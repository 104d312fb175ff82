import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oracles import cycle_walk, dfs_longest, hits, kmer_sets, labels_from_rows
from uhspath import paths
from uhspath.core import BudgetError
from uhspath.forbidden import build_forbidden_set
from uhspath.kmerset import KmerSet
from uhspath.mykkeltveit import build_mykkeltveit_set
from uhspath.paths import (
    ACYCLIC,
    CYCLIC,
    PathReport,
    is_decycling,
    is_uhs,
    longest_remaining_path,
    verify_rows,
    verify_witness,
)


def _summary(report):
    return report.kind, report.longest_vertices, report.witness


def _rows(kset):
    """The peel's rows h, one wave per (w-1)-mer."""
    return paths._peel(kset.mask, kset.sigma)[0]


def _labels(kset):
    """One label per w-mer, expanded from the peel's rows by the oracle."""
    return labels_from_rows(_rows(kset), kset.mask, kset.sigma)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("sigma", [2, 3, 4, 5])
    @given(data=st.data())
    def test_random_sets(self, sigma, data):
        # kind, length, witness and labels against the depth-first search
        kset = data.draw(kmer_sets(sigma))
        report = longest_remaining_path(kset)
        kind, labels, witness = dfs_longest(kset)
        assert report.kind == kind
        assert verify_witness(kset, report)
        if kind == ACYCLIC:
            assert _summary(report) == (kind, max(labels), witness)
            assert _labels(kset).tolist() == labels

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mykkeltveit_set(2, 14),
            lambda: build_mykkeltveit_set(3, 8),
            lambda: build_mykkeltveit_set(4, 6),
            lambda: build_forbidden_set(2, 16),
        ],
        ids=["mykkeltveit-2-14", "mykkeltveit-3-8", "mykkeltveit-4-6", "forbidden-2-16"],
    )
    def test_constructions(self, build):
        kset = build()
        summary = _summary(longest_remaining_path(kset))
        kind, labels, witness = dfs_longest(kset)
        assert summary == (ACYCLIC, max(labels), witness)

    def test_full_and_empty(self):
        assert longest_remaining_path(KmerSet(2, 4, np.ones(16, dtype=bool))).longest_vertices == 0
        assert longest_remaining_path(KmerSet(2, 4, np.zeros(16, dtype=bool))).kind == CYCLIC

    def test_self_loop_detected(self):
        # 0^w survives => self loop
        kset = KmerSet(2, 3, ~KmerSet.from_codes(2, 3, [0]).mask)
        report = longest_remaining_path(kset)
        assert report.kind == CYCLIC
        assert report.cycle_witness == [0]


class TestSlices:
    # slices of 1 to 7 rows put seams inside every wave, and split runs of
    # edges that share a prefix row; at sigma = 7 a row's count and the
    # copies of a prefix row in one slice reach 7

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("sigma", [2, 3, 4, 5, 7])
    @given(data=st.data())
    def test_against_dfs(self, sigma, chunk, data):
        kset = data.draw(kmer_sets(sigma, max_nodes=1 << 10))
        whole = longest_remaining_path(kset)
        with mock.patch.object(paths, "_CHUNK", chunk):
            report = longest_remaining_path(kset)
            h = _rows(kset)
            bound = verify_rows(kset.mask, sigma, h)
            decycling = is_decycling(kset)
        kind, oracle_labels, witness = dfs_longest(kset)
        assert report == whole  # the cycle witness too
        assert report.kind == kind and decycling == (kind == ACYCLIC)
        assert verify_witness(kset, report)
        if kind == ACYCLIC:
            assert _summary(report) == (kind, max(oracle_labels), witness)
            assert labels_from_rows(h, kset.mask, sigma).tolist() == oracle_labels
            assert bound == report.longest_vertices
        else:
            assert bound is None

    @pytest.mark.parametrize("large", [1, 10**9], ids=["rows", "read-back"])
    @given(data=st.data())
    def test_waves_read_back_from_h(self, large, data):
        # _LARGE = 1 keeps every wave after the first as rows; 10**9 reads
        # every wave back from h
        kset = data.draw(kmer_sets(data.draw(st.sampled_from([2, 3])), max_nodes=1 << 10))
        whole = longest_remaining_path(kset)
        with mock.patch.object(paths, "_LARGE", large), mock.patch.object(paths, "_CHUNK", 7):
            report = longest_remaining_path(kset)
            labels = _labels(kset)
        kind, oracle_labels, _ = dfs_longest(kset)
        assert report == whole
        if kind == ACYCLIC:
            assert labels.tolist() == oracle_labels

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_wave_without_surviving_owner(self, chunk):
        # only 001 survives: row 00 goes idle in wave 2, but the edges entering
        # it, 000 and 100, are members, so wave 2 labels nothing
        kset = KmerSet(2, 3, ~KmerSet.from_codes(2, 3, [1]).mask)
        with mock.patch.object(paths, "_CHUNK", chunk or paths._CHUNK):
            h, longest = paths._peel(kset.mask, 2)
            report = longest_remaining_path(kset)
        assert h.tolist() == [2, 1, 1, 1] and h.all() and longest == 1
        assert _summary(report) == (ACYCLIC, 1, [1])
        assert labels_from_rows(h, kset.mask, 2).tolist() == dfs_longest(kset)[1]


class TestWaveDtype:
    # waves start as paths._WAVE and widen to int32 once they reach its
    # largest value; a uint8 start widens at wave 255

    def test_widened_report_matches(self):
        kset = build_mykkeltveit_set(2, 18)  # L = 395; at w = 16 L is 255
        whole = longest_remaining_path(kset)
        with mock.patch.object(paths, "_WAVE", np.uint8):
            report = longest_remaining_path(kset)
            h, _ = paths._peel(kset.mask, 2)
        assert whole.longest_vertices > 255 and h.dtype == np.int32
        assert report == whole

    def test_widened_labels_against_dfs(self):
        kset = build_mykkeltveit_set(2, 17)  # L = 299
        with mock.patch.object(paths, "_WAVE", np.uint8):
            labels = _labels(kset)
        kind, oracle_labels, _ = dfs_longest(kset)
        assert kind == ACYCLIC and max(oracle_labels) > 255
        assert labels.tolist() == oracle_labels


def _peak(fn, *args):
    """tracemalloc's peak over one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBytesPerNode:
    # peaks at sigma = 2, w = 20, a little above those measured once the peel
    # kept uint16 waves and read its large waves back from them, and the
    # builds certified and filled in blocks (2.2, 4.1, 3.7 and 1.2 B/node;
    # before, 3.6, 7.5, 6.1 and 2.2), so that a later change cannot quietly
    # lose them; the forbidden build, since it strikes the zero runs through
    # views of the mask itself and counts its members with no buffer,
    # measured 1.003 (the mask and one sigma^(w/2) row)
    @pytest.mark.parametrize(
        "build,bound",
        [(build_mykkeltveit_set, 2.4), (build_forbidden_set, 4.5)],
        ids=["mykkeltveit", "forbidden"],
    )
    def test_peel(self, build, bound):
        kset = build(2, 20)
        assert _peak(longest_remaining_path, kset) <= bound * kset.n

    @pytest.mark.parametrize("case", ["empty", "less-first", "less-last"])
    def test_cycle_witness(self, case):
        # the empty set, and the Mykkeltveit set less its first or last
        # member: the least pending code is found by a blocked scan, so a
        # cyclic answer is held to the acyclic bound (10.5 and 5.5 B/node
        # when the pending codes were one sigma^w bool array)
        mask = np.zeros(2**20, dtype=bool)
        if case != "empty":
            mask = build_mykkeltveit_set(2, 20).mask.copy()
            mask[np.flatnonzero(mask)[0 if case == "less-first" else -1]] = False
        kset = KmerSet(2, 20, mask)
        assert _peak(longest_remaining_path, kset) <= 2.4 * kset.n
        assert longest_remaining_path(kset).kind == CYCLIC

    @pytest.mark.parametrize(
        "build", [build_mykkeltveit_set, build_forbidden_set], ids=["mykkeltveit", "forbidden"]
    )
    def test_verify_rows(self, build):
        # blocks of _CHUNK w-mers, about 0.2 B/node when measured
        kset = build(2, 20)
        assert _peak(verify_rows, kset.mask, 2, _rows(kset)) <= 0.5 * kset.n

    def test_mykkeltveit_build(self):
        assert _peak(build_mykkeltveit_set, 2, 20) <= 4.0 * 2**20

    def test_forbidden_build(self):
        assert _peak(build_forbidden_set, 2, 20) <= 1.01 * 2**20

    def test_load_binary(self, tmp_path):
        # the unpacked mask (1 B/node) is the set's own mask, not copied (1.19 B/node)
        path = str(tmp_path / "m.bin")
        build_mykkeltveit_set(2, 20).save_binary(path)
        assert _peak(KmerSet.load_binary, path) <= 1.5 * 2**20


class TestDeterminism:
    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kset = KmerSet(2, 4, rng.random(16) < 0.6)
            r1 = longest_remaining_path(kset)
            r2 = longest_remaining_path(kset)
            assert r1.witness == r2.witness
            assert r1.cycle_witness == r2.cycle_witness

    @given(kmer_sets(2, max_nodes=8))
    def test_witness_starts_at_least_optimal_code(self, kset):
        report = longest_remaining_path(kset)
        kind, labels, _ = dfs_longest(kset)
        assume(kind == ACYCLIC and report.longest_vertices > 0)
        assert report.witness[0] == labels.index(report.longest_vertices)


class TestMonotonicity:
    def test_adding_members_never_hurts(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mask = rng.random(16) < 0.5
            a = KmerSet(2, 4, mask)
            grown = mask.copy()
            grown[rng.integers(0, 16, size=3)] = True
            b = KmerSet(2, 4, grown)
            ra, rb = longest_remaining_path(a), longest_remaining_path(b)
            if ra.kind == ACYCLIC:
                assert rb.kind == ACYCLIC
                assert rb.longest_vertices <= ra.longest_vertices


class TestUhsSemantics:
    def test_is_uhs_and_string_conversion(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mask = rng.random(16) < 0.6
            kset = KmerSet(2, 4, mask)
            report = longest_remaining_path(kset)
            if report.kind != ACYCLIC:
                continue
            l = report.longest_vertices + 1
            assert is_uhs(kset, l)
            assert not is_uhs(kset, report.longest_vertices) or report.longest_vertices == 0
            # every string long enough for a walk of l vertices is hit
            L = l + 4 - 1
            for _ in range(50):
                s = "".join(rng.choice(["0", "1"], size=L))
                assert hits(kset, s)

    def test_is_decycling(self):
        assert is_decycling(KmerSet.from_codes(2, 2, [0b00, 0b10, 0b11]))
        assert not is_decycling(KmerSet.from_codes(2, 2, [0b00]))

    def test_budget(self):
        with pytest.raises(BudgetError):
            longest_remaining_path(KmerSet(2, 10, np.zeros(1024, dtype=bool)), budget=100)


class TestRowCertificate:
    @given(data=st.data())
    def test_bound_equals_brute_force(self, data):
        kset = data.draw(kmer_sets(data.draw(st.sampled_from([2, 3, 4]))))
        h = _rows(kset)
        kind, oracle_labels, _ = dfs_longest(kset)
        if kind == CYCLIC:
            assert verify_rows(kset.mask, kset.sigma, h) is None
            return
        assert verify_rows(kset.mask, kset.sigma, h) == max(oracle_labels)
        survivors = np.flatnonzero(~kset.mask)
        if survivors.size:
            # a survivor's row lowered by one: a sink row reads 0, any other
            # row ties its best successor
            v = int(survivors[data.draw(st.integers(0, survivors.size - 1))])
            h[v % h.size] -= 1
            assert verify_rows(kset.mask, kset.sigma, h) is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mykkeltveit_set(2, 12),
            lambda: build_mykkeltveit_set(3, 8),
            lambda: build_forbidden_set(2, 16),
        ],
        ids=["mykkeltveit-2-12", "mykkeltveit-3-8", "forbidden-2-16"],
    )
    def test_accepts_constructions(self, build):
        kset = build()
        bound = verify_rows(kset.mask, kset.sigma, _rows(kset))
        assert bound == longest_remaining_path(kset).longest_vertices > 0

    def test_one_symbol_words(self):
        # w = 1: one empty row, and every w-mer is a self-loop on it
        members, one = np.ones(3, dtype=bool), np.ones(1, dtype=np.int32)
        assert verify_rows(members, 3, one) == 0
        assert verify_rows(members, 3, 0 * one) is None
        assert verify_rows(np.array([True, False, True]), 3, 2 * one) is None

    @pytest.mark.parametrize(
        "build",
        [lambda: build_mykkeltveit_set(2, 12), lambda: build_forbidden_set(2, 12)],
        ids=["mykkeltveit-2-12", "forbidden-2-12"],
    )
    def test_rejects_row_set_to_successor_wave(self, build):
        # every row with a surviving out-edge u, set to u's wave h[u mod m]
        kset = build()
        h = _rows(kset)
        survivors = np.flatnonzero(~kset.mask)
        for u in survivors:
            bad = h.copy()
            bad[u // kset.sigma] = h[u % h.size]
            assert verify_rows(kset.mask, kset.sigma, bad) is None
        assert survivors.size > 100

    def test_rejects_wrong_shape(self):
        mask = np.zeros(8, dtype=bool)
        for h in (np.ones(3, dtype=np.int32), np.ones(4, dtype=float), np.ones((2, 2), dtype=np.int32)):
            with pytest.raises(ValueError):
                verify_rows(mask, 2, h)
        with pytest.raises(ValueError):
            verify_rows(mask.reshape(2, 4), 2, np.ones(4, dtype=np.int32))


class TestWitnessCheck:
    def test_rejects_corrupted_codes(self):
        kset = build_mykkeltveit_set(2, 8)
        report = longest_remaining_path(kset)
        path = report.witness
        member = int(kset.codes()[0])
        for bad in (
            path[:-1],  # shorter than reported
            [member] + path[1:],  # a member of the set
            path[:1] + path[:1] + path[2:],  # a repeated vertex is no edge here
            [path[0] + 256] + path[1:],  # out of range
            [256] + path[1:],  # one past the last code
        ):
            assert not verify_witness(kset, PathReport(ACYCLIC, len(path), witness=bad))
        assert verify_witness(kset, PathReport(ACYCLIC, len(path), witness=list(path)))

    def test_rejects_open_cycle(self):
        kset = KmerSet.from_codes(2, 3, [0b000, 0b111])
        report = longest_remaining_path(kset)
        assert report.kind == CYCLIC and verify_witness(kset, report)
        assert not verify_witness(kset, PathReport(CYCLIC, cycle_witness=report.cycle_witness[:-1]))
        assert not verify_witness(kset, PathReport(CYCLIC))


class TestCycleWitness:
    @pytest.mark.parametrize("sigma", [2, 3])
    @given(data=st.data())
    def test_random_cyclic_sets(self, sigma, data):
        kset = data.draw(kmer_sets(sigma, max_nodes=32))
        report = longest_remaining_path(kset)
        assume(report.kind == CYCLIC)
        assert verify_witness(kset, report)
        codes = report.cycle_witness
        assert codes == cycle_walk(kset)
        assert len(set(codes)) == len(codes)
        assert longest_remaining_path(kset).cycle_witness == codes
        assert not is_decycling(kset)
