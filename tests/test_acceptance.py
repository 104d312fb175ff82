"""Acceptance gate: one test and one printed PASS/FAIL line per criterion."""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from uhspath.core import necklace_count, parse_symbols
from uhspath.contexts import build_context_set_forward, build_context_set_local
from uhspath.forbidden import (
    bracket_holds,
    build_forbidden_set,
    dominant_root,
    eigenpair_residual,
    forbidden_d,
    remaining_path_witness,
    survival_probability,
)
from uhspath.mds import enumerate_mds
from uhspath.mykkeltveit import build_long_path, build_mykkeltveit_set
from uhspath.paths import ACYCLIC, is_decycling, longest_remaining_path
from uhspath.schemes import (
    build_compatible_minimizer,
    estimate_density,
    expected_density,
    is_forward,
    minimizer_scheme,
    particular_density,
    table_scheme,
    _string_selected,
)


from conftest import record_acceptance


@contextmanager
def criterion(num: int, title: str):
    info = {"detail": ""}
    t0 = time.time()
    try:
        yield info
    except BaseException:
        record_acceptance(f"criterion {num:2d} [{title}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    record_acceptance(
        f"criterion {num:2d} [{title}]: PASS {info['detail']} ({time.time() - t0:.1f}s)"
    )


def test_criterion_01_minimizer_example():
    with criterion(1, "minimizer worked example") as info:
        sch = minimizer_scheme(4, 3, 5)
        syms = parse_symbols("CACTGCTGTACCTCTTCT", 4)
        positions = set(np.flatnonzero(_string_selected(sch, syms, False)).tolist())
        assert positions == {1, 2, 5, 9, 10, 11}
        res = particular_density(sch, "CACTGCTGTACCTCTTCT")
        assert res.density == Fraction(6, 16)
        info["detail"] = "positions {1,2,5,9,10,11}, density 6/16"


def _canonical_codes(codes, sigma, w):
    n = sigma**w
    canon = codes.copy()
    c = codes.copy()
    for _ in range(w - 1):
        c = (c * sigma + c // (n // sigma)) % n
        np.minimum(canon, c, out=canon)
    return canon


def test_criterion_02_decycling_set_size():
    with criterion(2, "decycling set size = necklace count") as info:
        checked = 0
        for sigma, ws in ((2, range(2, 21)), (4, range(2, 11))):
            for w in ws:
                m = build_mykkeltveit_set(sigma, w)
                assert m.cardinality == necklace_count(sigma, w)
                canon = _canonical_codes(m.codes(), sigma, w)
                assert np.unique(canon).size == m.cardinality  # one per class
                checked += 1
        info["detail"] = f"{checked} (sigma, w) pairs"


def test_criterion_03_decycling_property():
    with criterion(3, "decycling property") as info:
        checked = 0
        for sigma, ws in ((2, range(2, 21)), (4, range(2, 11))):
            for w in ws:
                assert is_decycling(build_mykkeltveit_set(sigma, w))
                checked += 1
        info["detail"] = f"{checked} (sigma, w) pairs"


def test_criterion_04_mds_counts_default_tier():
    with criterion(4, "MDS counts, default tier") as info:
        expect = {2: 2, 3: 4, 4: 30, 5: 28}
        for w, count in expect.items():
            assert enumerate_mds(2, w).mds_count == count
        info["detail"] = "w=2..5 -> 2, 4, 30, 28"


def test_criterion_04b_mds_count_w6(mds_w6):
    with criterion(4, "MDS count, opt-in w=6") as info:
        assert mds_w6.mds_count == 68288
        info["detail"] = "68288"


def test_criterion_04c_mds_count_w7(mds_w7):
    with criterion(4, "MDS count, opt-in w=7") as info:
        assert mds_w7.mds_count == 18432
        info["detail"] = "18432"


def test_criterion_05_forbidden_word_uhs():
    with criterion(5, "forbidden-word UHS") as info:
        checked = []
        for w in range(2, 25):
            if forbidden_d(2, w) < 1:
                continue
            d = forbidden_d(2, w)
            F = build_forbidden_set(2, w)
            avoiders = survival_probability(2, d, w) * 2**w
            assert avoiders.denominator == 1
            assert F.cardinality == 2 ** (w - d) + int(avoiders)
            report = longest_remaining_path(F)
            assert report.kind == ACYCLIC
            assert report.longest_vertices == w - d
            witness = remaining_path_witness(2, w)
            assert len(witness) == w - d
            assert not any(F.contains_code(c) for c in witness)
            checked.append(w)
        assert checked == list(range(9, 25))
        info["detail"] = f"w in [9, 24], path = w - d each time"


def test_criterion_06_fsm_equivalence():
    with criterion(6, "FSM avoider counts") as info:
        def direct_count(sigma, d, w):
            # vectorized scan over every length-w string
            codes = np.arange(sigma**w, dtype=np.int64)
            run = np.zeros(codes.size, dtype=np.int8)
            best = np.zeros(codes.size, dtype=np.int8)
            for i in range(w):
                digit = (codes // sigma ** (w - 1 - i)) % sigma
                run = np.where(digit == 0, run + 1, 0).astype(np.int8)
                np.maximum(best, run, out=best)
            return int((best < d).sum())

        def recurrence(sigma, d, w):
            a = [sigma**n for n in range(d)]
            for n in range(d, w + 1):
                a.append((sigma - 1) * sum(a[n - j] for j in range(1, d + 1)))
            return a[w]

        pairs = 0
        for sigma, w_direct in ((2, 20), (4, 10)):
            for d in range(1, 5):
                for w in range(1, 21):
                    got = survival_probability(sigma, d, w) * sigma**w
                    assert got.denominator == 1
                    oracle = direct_count(sigma, d, w) if w <= w_direct else recurrence(sigma, d, w)
                    assert int(got) == oracle
                    pairs += 1
        info["detail"] = f"{pairs} (sigma, d, w) triples, exact integers"


def test_criterion_07_dominant_root():
    with criterion(7, "dominant eigenvalue bracket + residual") as info:
        mu = Fraction(1, 2)
        held = []
        for d in range(1, 9):
            if not bracket_holds(2, d):
                continue
            lam = dominant_root(2, d)
            assert 1 - mu**d < lam < 1 - mu ** (d + 1)
            assert eigenpair_residual(2, d, lam) <= 1e-10
            held.append(d)
        assert held == list(range(2, 9))
        info["detail"] = f"d in {held}, residual <= 1e-10"


def test_criterion_08_context_set_theorem():
    with criterion(8, "context sets: size + remaining path") as info:
        def check_local(sch):
            cs = build_context_set_local(sch)
            assert cs.relative_size() == expected_density(sch).density
            report = longest_remaining_path(cs)
            assert report.kind == ACYCLIC
            assert report.longest_vertices <= sch.w - 1

        # exhaustive at w=2
        for c in range(2 ** (2 * 4)):
            table = [(c >> (2 * i)) & 1 for i in range(4)]
            if max(table) >= 2:
                continue
            check_local(table_scheme(2, 2, table))
        n_local = 16
        for w in (3, 4):
            rng = np.random.default_rng(w)
            for _ in range(200):
                check_local(table_scheme(2, w, rng.integers(0, w, size=2**w)))
                n_local += 1

        # forward variant, exhaustive over forward tables at w in {2, 3}
        n_fwd = 0
        for w in (2, 3):
            for c in range(w ** (2**w)):
                table = [(c // w**i) % w for i in range(2**w)]
                sch = table_scheme(2, w, table)
                if not is_forward(sch):
                    continue
                cs = build_context_set_forward(sch)
                assert cs.w == w + 1
                assert cs.relative_size() == expected_density(sch).density
                report = longest_remaining_path(cs)
                assert report.kind == ACYCLIC
                assert report.longest_vertices <= w - 1
                n_fwd += 1
        info["detail"] = f"{n_local} local tables, {n_fwd} forward tables"


def test_criterion_09_long_path_construction():
    with criterion(9, "long avoiding path, even w") as info:
        sizes = {}
        for w in (16, 24, 32, 40):
            lp = build_long_path(2, w)  # raises if any validation fails
            assert len(lp.vertices) >= w * w / 8
            sizes[w] = len(lp.vertices)
        lp40 = build_long_path(2, 40)
        assert len(lp40.quadruples) == 5
        info["detail"] = f"vertices {sizes}, 5 quadruples at w=40"


def test_criterion_10_growth_shape_report():
    with criterion(10, "growth-shape report") as info:
        lines = ["  w    L(w)   L/w^2    L/w^3   long-path"]
        compared = 0
        for w in range(2, 23):
            m = build_mykkeltveit_set(2, w)
            report = longest_remaining_path(m)
            assert report.kind == ACYCLIC
            L = report.longest_vertices
            try:
                lp_len = len(build_long_path(2, w).vertices)
                assert L >= lp_len
                compared += 1
                tail = str(lp_len)
            except ValueError:
                tail = "-"  # construction not defined/validating at this w
            lines.append(f"{w:3d}  {L:6d}  {L / w**2:6.3f}  {L / w**3:7.4f}   {tail}")
        for line in lines:
            record_acceptance("    " + line)
        assert compared >= 4
        info["detail"] = f"w in [2,22]; inequality checked at {compared} widths"


def test_criterion_11_compatible_scheme_density():
    with criterion(11, "compatible minimizer density") as info:
        details = []
        for w in (16, 20):
            F = build_forbidden_set(2, w)
            l = longest_remaining_path(F).longest_vertices
            sch = build_compatible_minimizer(F, l + 1)
            res = estimate_density(sch, sample_symbols=10**7, seed=0)
            bound = float(F.relative_size()) + 3 * res.stderr
            assert float(res.density) <= bound
            details.append(f"w={w}: {float(res.density):.4f} <= {bound:.4f}")
        info["detail"] = "; ".join(details)
