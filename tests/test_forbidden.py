import math
from fractions import Fraction

import numpy as np
import pytest

from uhspath.core import kmer_decode
from uhspath.forbidden import (
    _run_free,
    bracket_holds,
    build_forbidden_set,
    char_poly_eval,
    dominant_eigenvector,
    dominant_root,
    eigenpair_residual,
    forbidden_cardinality,
    forbidden_d,
    fsm_matrix,
    min_w_for_construction,
    remaining_path_bound,
    remaining_path_witness,
    survival_probability,
)
from uhspath.paths import longest_remaining_path, verify_witness


def brute_avoiders(sigma, d, w):
    """Count length-w strings with no run of d zeros, by direct scan."""
    count = 0
    for code in range(sigma**w):
        s = kmer_decode(code, sigma, w)
        if "0" * d not in s:
            count += 1
    return count


def max_zero_run(codes, sigma, w):
    """Oracle: longest zero run of each code, one digit pass per symbol."""
    run = np.zeros(codes.size, dtype=np.int8)
    best = np.zeros(codes.size, dtype=np.int8)
    for i in range(w):
        digit = (codes // sigma ** (w - 1 - i)) % sigma
        run = np.where(digit == 0, run + 1, 0).astype(np.int8)
        np.maximum(best, run, out=best)
    return best


def matvec_survival(sigma, d, w):
    """Oracle: w exact mat-vecs of the FSM matrix from the empty-run state, summed."""
    rows = fsm_matrix(sigma, d)
    p = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d))
    for _ in range(w):
        p = tuple(sum(r * x for r, x in zip(row, p)) for row in rows)
    return sum(p, Fraction(0))


def recurrence_avoiders(sigma, d, w):
    """a(n) = (sigma-1) * sum_{j=1..d} a(n-j), a(n) = sigma^n for n < d."""
    a = [sigma**n for n in range(d)]
    for n in range(d, w + 1):
        a.append((sigma - 1) * sum(a[n - j] for j in range(1, d + 1)))
    return a[w]


class TestParameterD:
    @pytest.mark.parametrize(
        "sigma,w,d", [(2, 16, 1), (2, 64, 2), (4, 256, 1), (2, 8, 0), (2, 9, 1)]
    )
    def test_examples(self, sigma, w, d):
        assert forbidden_d(sigma, w) == d

    def test_matches_definition(self):
        for sigma in (2, 3, 4):
            for w in range(2, 200):
                d = forbidden_d(sigma, w)
                x = w / math.log(w)
                assert sigma ** (d + 1) <= x < sigma ** (d + 2)

    def test_min_w(self):
        assert min_w_for_construction(2) == 9
        assert forbidden_d(2, 8) == 0


class TestSetConstruction:
    def test_cardinality_matches_bitmap(self):
        for sigma, w in [(2, 9), (2, 12), (2, 16)]:
            F = build_forbidden_set(sigma, w)
            assert F.cardinality == forbidden_cardinality(sigma, w)

    def test_parts_disjoint_and_cover(self):
        sigma, w = 2, 12
        d = forbidden_d(sigma, w)
        F = build_forbidden_set(sigma, w)
        for code in range(2**w):
            s = kmer_decode(code, sigma, w)
            prefix = s.startswith("0" * d)
            avoid = "0" * d not in s
            assert not (prefix and avoid)
            assert F.contains_code(code) == (prefix or avoid)

    def test_equals_digit_loop(self):
        sigma = 2
        for w in range(min_w_for_construction(sigma), 23):
            d = forbidden_d(sigma, w)
            expect = max_zero_run(np.arange(sigma**w), sigma, w) < d
            expect[: sigma ** (w - d)] = True
            assert np.array_equal(build_forbidden_set(sigma, w).mask, expect), w

    @pytest.mark.parametrize("sigma", [3, 4])
    def test_half_tables_give_longest_run(self, sigma):
        for w in range(1, 10):
            best = max_zero_run(np.arange(sigma**w), sigma, w)
            for d in range(1, w + 2):
                assert np.array_equal(_run_free(sigma, w, d), best < d), (w, d)

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            build_forbidden_set(2, 8)


class TestRemainingPath:
    @pytest.mark.parametrize("w", [9, 12, 16])
    def test_exact_length_and_witness(self, w):
        F = build_forbidden_set(2, w)
        d = forbidden_d(2, w)
        report = longest_remaining_path(F)
        assert report.kind == "ACYCLIC"
        assert report.longest_vertices == w - d == remaining_path_bound(2, w)
        assert verify_witness(F, report)
        # the closed-form witness string also achieves the bound
        codes = remaining_path_witness(2, w)
        assert len(codes) == w - d
        for c in codes:
            assert not F.contains_code(c)
        for a, b in zip(codes, codes[1:]):
            assert b in ((a * 2) % 2**w, (a * 2 + 1) % 2**w)


class TestSurvival:
    @pytest.mark.parametrize("sigma", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_enumeration(self, sigma, d):
        wmax = 14 if sigma == 2 else 7
        assert survival_probability(sigma, d, 0) == 1
        for w in range(1, wmax):
            expect = brute_avoiders(sigma, d, w)
            got = survival_probability(sigma, d, w) * sigma**w
            assert got == expect

    @pytest.mark.parametrize("sigma", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_recurrence_to_w20(self, sigma, d):
        # the recurrence is validated against enumeration for small w above
        for w in range(0, 21):
            got = survival_probability(sigma, d, w) * sigma**w
            assert got.denominator == 1
            assert int(got) == recurrence_avoiders(sigma, d, w)

    def test_known_values(self):
        assert survival_probability(2, 2, 4) == Fraction(8, 16)
        assert survival_probability(2, 1, 3) == Fraction(1, 8)

    @pytest.mark.parametrize("sigma", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_equals_matvec_oracle(self, sigma, d):
        for w in (0, 1, 5, 40):
            assert survival_probability(sigma, d, w) == matvec_survival(sigma, d, w)

    def test_design_point_equals_matvec_oracle(self):
        # the fsm step of the benchmark: sigma = 2, d = 6, w = 2000
        assert survival_probability(2, 6, 2000) == matvec_survival(2, 6, 2000)

    def test_rejects_bad_shape(self):
        for sigma in (1, 0):
            with pytest.raises(ValueError, match=f"alphabet size must be >= 2, got {sigma}"):
                survival_probability(sigma, 2, 10)
            with pytest.raises(ValueError, match=f"alphabet size must be >= 2, got {sigma}"):
                fsm_matrix(sigma, 2)
        with pytest.raises(ValueError, match="need d >= 1"):
            survival_probability(2, 0, 10)
        with pytest.raises(ValueError, match="need w >= 0"):
            survival_probability(2, 2, -1)

    def test_one_norm_decay(self):
        # || A_d^w p0 ||_1 shrinks roughly like 1/w at the design point w(d)
        for w in (16, 64, 256):
            d = forbidden_d(2, w)
            p = survival_probability(2, d, w)
            assert p <= 4.0 / w


class TestCharPoly:
    @pytest.mark.parametrize("sigma", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_matches_numpy_det(self, sigma, d):
        A = np.array(fsm_matrix(sigma, d), dtype=float)
        rng = np.random.default_rng(d)
        for lam in list(rng.uniform(-1, 1, size=8)) + [1 / sigma, 0.0, 1.0]:
            det = np.linalg.det(A - lam * np.eye(d))
            assert abs(float(char_poly_eval(sigma, d, Fraction(lam))) - det) < 1e-9

    def test_exact_value(self):
        assert char_poly_eval(2, 2, Fraction(1, 2)) == Fraction(-1, 4)

    def test_root_annihilates(self):
        lam = dominant_root(2, 3)
        assert abs(float(char_poly_eval(2, 3, lam))) < 1e-11


class TestDominantRoot:
    def test_bracket_fails_only_at_d1(self):
        # at d=1 the eigenvalue is exactly 1 - mu, the open bracket's endpoint
        assert not bracket_holds(2, 1)
        assert not bracket_holds(4, 1)
        for d in range(2, 8):
            assert bracket_holds(2, d)
            assert bracket_holds(4, d)

    def test_d1_root_is_endpoint(self):
        assert dominant_root(2, 1) == Fraction(1, 2)
        assert dominant_root(4, 1) == Fraction(3, 4)

    @pytest.mark.parametrize("sigma,d", [(2, 2), (2, 3), (2, 5), (4, 2), (4, 3)])
    def test_root_in_bracket_with_small_residual(self, sigma, d):
        mu = Fraction(1, sigma)
        lam = dominant_root(sigma, d)
        assert 1 - mu**d < lam < 1 - mu ** (d + 1)
        assert eigenpair_residual(sigma, d, lam) <= 1e-10

    def test_known_root(self):
        # sigma=2, d=2: lambda = (1+sqrt(5))/4 + ... golden-ratio flavoured
        lam = float(dominant_root(2, 2))
        assert abs(lam - 0.8090169943749475) < 1e-11

    def test_eigenvector_shape(self):
        lam = dominant_root(2, 3)
        v = dominant_eigenvector(2, 3, lam)
        s = Fraction(1, 2) / lam
        assert v == (1, s, s * s)
