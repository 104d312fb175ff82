import functools

import numpy as np
import pytest

from uhspath.core import BudgetError, kmer_encode
from uhspath.forbidden import build_forbidden_set
from uhspath.kmerset import KmerSet, hits
from uhspath.mykkeltveit import build_mykkeltveit_set
from uhspath.paths import (
    ACYCLIC,
    CYCLIC,
    is_decycling,
    is_uhs,
    longest_remaining_path,
    path_labels,
    string_length_for_walk,
    verify_labels,
    verify_witness,
)


def kahn_longest(kset):
    """Oracle: forward Kahn peel (Kahn 1962), then a DP over the reversed waves.

    Returns (kind, longest_vertices, witness codes) with the production
    tie-break: the least start code achieving the maximum, then the least
    successor symbol among optimal continuations.
    """
    sigma, n = kset.sigma, kset.n
    survives = ~kset.mask
    codes = np.flatnonzero(survives)
    indeg = np.zeros(n, dtype=np.int32)
    for a in range(sigma):
        sv = (codes * sigma + a) % n
        sv = sv[survives[sv]]
        if sv.size:
            indeg += np.bincount(sv, minlength=n).astype(np.int32)
    done = np.zeros(n, dtype=bool)
    frontier = codes[indeg[codes] == 0]
    waves = []
    while frontier.size:
        done[frontier] = True
        waves.append(frontier)
        parts = []
        for a in range(sigma):
            sv = (frontier * sigma + a) % n
            parts.append(sv[survives[sv]])
        allsucc = np.concatenate(parts)
        if allsucc.size == 0:
            break
        np.subtract.at(indeg, allsucc, 1)
        cand = np.unique(allsucc)
        frontier = cand[(indeg[cand] == 0) & ~done[cand]]
    if int(done.sum()) != codes.size:
        return CYCLIC, 0, []
    if codes.size == 0:
        return ACYCLIC, 0, []

    best = np.zeros(n, dtype=np.int32)
    choice = np.full(n, -1, dtype=np.int8)
    for wave in reversed(waves):
        bv = np.ones(wave.size, dtype=np.int32)
        ch = np.full(wave.size, -1, dtype=np.int8)
        for a in range(sigma):
            sv = (wave * sigma + a) % n
            cand = np.where(survives[sv], best[sv] + 1, 0).astype(np.int32)
            upd = cand > bv
            bv[upd] = cand[upd]
            ch[upd] = a
        best[wave] = bv
        choice[wave] = ch
    longest = int(best[codes].max())
    v = int(codes[best[codes] == longest][0])
    path = [v]
    while choice[v] >= 0:
        v = (v * sigma + int(choice[v])) % n
        path.append(v)
    return ACYCLIC, longest, path


def brute_longest(kset):
    """Exhaustive DFS oracle: (has_cycle, longest simple path in vertices)."""
    sigma, n = kset.sigma, kset.n
    alive = [v for v in range(n) if not kset.mask[v]]
    succ = {v: [s for a in range(sigma) if not kset.mask[s := (v * sigma + a) % n]] for v in alive}
    has_cycle = False
    best = 0

    def dfs(v, visited, depth):
        nonlocal has_cycle, best
        best = max(best, depth)
        for s in succ[v]:
            if s in visited:
                has_cycle = True
            else:
                visited.add(s)
                dfs(s, visited, depth + 1)
                visited.remove(s)

    for v in alive:
        dfs(v, {v}, 1)
    return has_cycle, best


def brute_has_cycle(kset):
    sigma, n = kset.sigma, kset.n
    color = {}

    def dfs(v):
        color[v] = 1
        for a in range(sigma):
            s = (v * sigma + a) % n
            if kset.mask[s]:
                continue
            if color.get(s) == 1:
                return True
            if s not in color and dfs(s):
                return True
        color[v] = 2
        return False

    return any(dfs(v) for v in range(n) if not kset.mask[v] and v not in color)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_random_sets(self, w):
        rng = np.random.default_rng(7 + w)
        for _ in range(400):
            mask = rng.random(2**w) < rng.uniform(0.2, 0.9)
            kset = KmerSet(2, w, mask)
            report = longest_remaining_path(kset)
            cyc = brute_has_cycle(kset)
            assert (report.kind == CYCLIC) == cyc
            assert verify_witness(kset, report)
            if report.kind == ACYCLIC:
                _, best = brute_longest(kset)
                assert report.longest_vertices == best

    def test_full_and_empty(self):
        assert longest_remaining_path(KmerSet.full(2, 4)).longest_vertices == 0
        assert longest_remaining_path(KmerSet.empty(2, 4)).kind == CYCLIC

    def test_self_loop_detected(self):
        # 0^w survives => self loop
        kset = KmerSet(2, 3, ~KmerSet.from_codes(2, 3, [0]).mask)
        report = longest_remaining_path(kset)
        assert report.kind == CYCLIC
        assert [k.code for k in report.cycle_witness] == [0]


class TestDeterminism:
    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kset = KmerSet(2, 4, rng.random(16) < 0.6)
            r1 = longest_remaining_path(kset)
            r2 = longest_remaining_path(kset)
            assert [k.code for k in r1.witness] == [k.code for k in r2.witness]
            assert [k.code for k in r1.cycle_witness] == [k.code for k in r2.cycle_witness]

    def test_witness_starts_at_least_optimal_code(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            kset = KmerSet(2, 3, rng.random(8) < 0.6)
            report = longest_remaining_path(kset)
            if report.kind != ACYCLIC or report.longest_vertices == 0:
                continue
            starts = [
                v
                for v in range(8)
                if not kset.mask[v]
                and brute_longest_from(kset, v) == report.longest_vertices
            ]
            assert report.witness[0].code == min(starts)


def brute_longest_from(kset, start):
    sigma, n = kset.sigma, kset.n
    best = 0

    def dfs(v, visited, depth):
        nonlocal best
        best = max(best, depth)
        for a in range(sigma):
            s = (v * sigma + a) % n
            if not kset.mask[s] and s not in visited:
                visited.add(s)
                dfs(s, visited, depth + 1)
                visited.remove(s)

    dfs(start, {start}, 1)
    return best


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
            L = string_length_for_walk(l, 4)
            for _ in range(50):
                s = "".join(rng.choice(["0", "1"], size=L))
                assert hits(kset, s)

    def test_is_decycling(self):
        assert is_decycling(KmerSet.from_texts(2, 2, ["00", "10", "11"]))
        assert not is_decycling(KmerSet.from_texts(2, 2, ["00"]))

    def test_budget(self):
        with pytest.raises(BudgetError):
            longest_remaining_path(KmerSet.empty(2, 10), budget=100)


def _summary(report):
    return report.kind, report.longest_vertices, [k.code for k in report.witness]


@functools.lru_cache(maxsize=None)
def _mykkeltveit_mask(sigma, w):
    return build_mykkeltveit_set(sigma, w).mask


def _random_set(rng, sigma, w):
    """A uniform random mask, or (for half the draws) a random superset of the
    Mykkeltveit set, which is decycling and so gives nontrivial ACYCLIC cases."""
    mask = rng.random(sigma**w) < rng.uniform(0.1, 0.9)
    if w >= 2 and rng.random() < 0.5:
        mask = _mykkeltveit_mask(sigma, w) | (rng.random(sigma**w) < rng.uniform(0, 0.5))
    return KmerSet(sigma, w, mask)


class TestAgainstKahn:
    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_random_masks(self, sigma):
        rng = np.random.default_rng(100 + sigma)
        widths = [w for w in range(1, 7) if sigma**w <= 4096]
        for _ in range(600):
            w = int(rng.choice(widths))
            kset = _random_set(rng, sigma, w)
            assert _summary(longest_remaining_path(kset)) == kahn_longest(kset)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_mykkeltveit_set(2, 14),
            lambda: build_mykkeltveit_set(3, 8),
            lambda: build_forbidden_set(2, 16),
        ],
        ids=["mykkeltveit-2-14", "mykkeltveit-3-8", "forbidden-2-16"],
    )
    def test_constructions(self, build):
        kset = build()
        summary = _summary(longest_remaining_path(kset))
        assert summary[0] == ACYCLIC
        assert summary == kahn_longest(kset)


class TestLabelCertificate:
    def test_bound_equals_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            sigma = int(rng.choice([2, 3]))
            w = int(rng.integers(1, 4 if sigma == 3 else 5))
            kset = _random_set(rng, sigma, w)
            bound = verify_labels(kset, path_labels(kset))
            if brute_has_cycle(kset):
                assert bound is None
            else:
                assert bound == brute_longest(kset)[1]

    @pytest.mark.parametrize(
        "build",
        [lambda: build_mykkeltveit_set(2, 12), lambda: build_forbidden_set(2, 16)],
        ids=["mykkeltveit-2-12", "forbidden-2-16"],
    )
    def test_accepts_constructions(self, build):
        kset = build()
        labels = path_labels(kset)
        assert verify_labels(kset, labels) == longest_remaining_path(kset).longest_vertices

    def test_rejects_zeroed_label(self):
        kset = build_forbidden_set(2, 16)
        labels = path_labels(kset)
        survivor = int(np.flatnonzero(~kset.mask)[0])
        labels[survivor] = 0
        assert verify_labels(kset, labels) is None

    def test_rejects_swapped_adjacent_labels(self):
        kset = build_mykkeltveit_set(2, 12)
        labels = path_labels(kset)
        u, v = (k.code for k in longest_remaining_path(kset).witness[:2])
        labels[u], labels[v] = labels[v], labels[u]
        assert verify_labels(kset, labels) is None

    def test_rejects_wrong_shape(self):
        kset = KmerSet.empty(2, 3)
        with pytest.raises(ValueError):
            verify_labels(kset, np.zeros(7, dtype=np.int32))


class TestCycleWitness:
    @pytest.mark.parametrize("sigma", [2, 3])
    def test_random_cyclic_sets(self, sigma):
        rng = np.random.default_rng(30 + sigma)
        checked = 0
        while checked < 200:
            w = int(rng.integers(1, 6 if sigma == 2 else 4))
            kset = _random_set(rng, sigma, w)
            report = longest_remaining_path(kset)
            if report.kind != CYCLIC:
                continue
            checked += 1
            assert verify_witness(kset, report)
            codes = [k.code for k in report.cycle_witness]
            assert len(set(codes)) == len(codes)
            assert [k.code for k in longest_remaining_path(kset).cycle_witness] == codes
            assert not is_decycling(kset)
