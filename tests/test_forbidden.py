import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    bracket_sign_change,
    char_g,
    dfs_longest,
    dominant_eigenvector,
    fraction_bisection,
    g_residual,
    matvec_residual,
    matvec_survival,
    scaled_g,
    widths,
    zero_runs,
)
from uhspath.core import BudgetError
from uhspath.forbidden import (
    ROOT_TOL,
    _g_sign,
    _run_free,
    bracket_holds,
    build_forbidden_set,
    dominant_root,
    eigenpair_residual,
    forbidden_d,
    fsm_matrix,
    min_w_for_construction,
    remaining_path_witness,
    survival_probability,
)
from uhspath.paths import ACYCLIC, longest_remaining_path, verify_witness


def char_poly(sigma, d, lam):
    """det(A_d - lam I) from char_g, for lam != mu."""
    mu = Fraction(1, sigma)
    return (-1) ** d * char_g(mu, d, lam) / (lam - mu)


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

    def test_min_w_against_linear_search(self):
        # doubling and bisection find the w that counting up from 2 finds
        for sigma in range(2, 41):
            w = 2
            while forbidden_d(sigma, w) < 1:
                w += 1
            assert min_w_for_construction(sigma) == w

    @pytest.mark.parametrize("w", [10**20, 2**1023 + 1, 10**400])
    def test_past_the_float_range(self, w):
        # sigma^(d+1) <= w / ln w < sigma^(d+2), compared exactly
        for sigma in (2, 3, 10**30):
            d = forbidden_d(sigma, w)
            x = Fraction(w) / Fraction(math.log(w))
            assert sigma ** (d + 1) <= x < sigma ** (d + 2)

    def test_min_w_beyond_float_range(self):
        # w / ln w >= sigma^2 needs w near 4.6e402 at sigma = 10^200
        w = min_w_for_construction(10**200)
        assert forbidden_d(10**200, w) == 1 and forbidden_d(10**200, w - 1) == 0
        assert 10**402 < w < 10**403

    def test_min_w_huge_alphabet(self):
        # w / ln w >= sigma^2 first holds near w = 1.43e62 at sigma = 10^30
        w = min_w_for_construction(10**30)
        assert forbidden_d(10**30, w) == 1 and forbidden_d(10**30, w - 1) == 0
        assert 1.4e62 < w < 1.5e62


class TestSetConstruction:
    @given(data=st.data())
    def test_against_zero_run_scan(self, data):
        # the set, its survival count and L = w - d against one zero-run scan
        sigma = data.draw(st.integers(2, 4))
        w = data.draw(widths(sigma, 1 << 12, low=2))
        d = data.draw(st.integers(1, w))
        lead, longest = zero_runs(sigma, w)
        assert survival_probability(sigma, d, w) * sigma**w == np.count_nonzero(longest < d)
        assert np.array_equal(_run_free(sigma, w, d), longest < d)
        d = forbidden_d(sigma, w)
        if d >= 1:
            F = build_forbidden_set(sigma, w)
            assert np.array_equal(F.mask, (lead >= d) | (longest < d))
            kind, labels, _ = dfs_longest(F)
            assert (kind, max(labels)) == (ACYCLIC, w - d)

    def test_cardinality_matches_bitmap(self):
        for sigma, w in [(2, 9), (2, 12), (2, 16)]:
            d = forbidden_d(sigma, w)
            _, longest = zero_runs(sigma, w)
            F = build_forbidden_set(sigma, w)
            assert F.cardinality == sigma ** (w - d) + np.count_nonzero(longest < d)

    def test_parts_disjoint_and_cover(self):
        sigma, w = 2, 12
        d = forbidden_d(sigma, w)
        lead, longest = zero_runs(sigma, w)
        prefix, avoid = lead >= d, longest < d
        assert not (prefix & avoid).any()
        assert np.array_equal(build_forbidden_set(sigma, w).mask, prefix | avoid)

    def test_equals_digit_loop(self):
        sigma = 2
        for w in range(min_w_for_construction(sigma), 23):
            d = forbidden_d(sigma, w)
            lead, longest = zero_runs(sigma, w)
            assert np.array_equal(build_forbidden_set(sigma, w).mask, (lead >= d) | (longest < d)), w

    @pytest.mark.parametrize("sigma", [3, 4])
    def test_run_free_gives_longest_run(self, sigma):
        for w in range(1, 10):
            _, longest = zero_runs(sigma, w)
            for d in range(1, w + 2):
                assert np.array_equal(_run_free(sigma, w, d), longest < d), (w, d)

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
        assert report.longest_vertices == w - d
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
            _, longest = zero_runs(sigma, w)
            assert survival_probability(sigma, d, w) * sigma**w == np.count_nonzero(longest < d)

    @pytest.mark.parametrize("sigma", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_recurrence_to_w20(self, sigma, d):
        # the counts a(w) obey a(w) = sigma^w for w < d, else
        # a(w) = (sigma - 1) * (a(w-1) + ... + a(w-d)): a string without a
        # 0^d run ends in a nonzero symbol after j - 1 zeros, 1 <= j <= d
        a = []
        for w in range(0, 21):
            got = survival_probability(sigma, d, w) * sigma**w
            assert got.denominator == 1
            a.append(int(got))
            assert a[w] == (sigma**w if w < d else (sigma - 1) * sum(a[w - d : w]))

    @pytest.mark.parametrize("sigma", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_equals_matvec_oracle(self, sigma, d):
        for w in (0, 1, 5, 40):
            assert survival_probability(sigma, d, w) == matvec_survival(sigma, d, w)

    def test_design_point_equals_matvec_oracle(self):
        # the fsm step of the benchmark: sigma = 2, d = 6, w = 2000
        assert survival_probability(2, 6, 2000) == matvec_survival(2, 6, 2000)

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_run_longer_than_string(self, sigma):
        # runs of more than w zeros never occur: at most w + 1 lengths are kept
        for d in (5, 9, 40):
            for w in (0, 1, 4, 8):
                expect = 1 if d > w else matvec_survival(sigma, d, w)
                assert survival_probability(sigma, d, w) == expect

    def test_budget_checked_before_work(self):
        with pytest.raises(BudgetError, match="survival recurrence needs"):
            survival_probability(2, 3, 10**8)
        # w steps of w log2(sigma) bits: 10^5 (2 * 10^5 // 64 + 1) words
        with pytest.raises(BudgetError, match="survival recurrence needs 312600000 states"):
            survival_probability(2, 3, 10**5)
        with pytest.raises(BudgetError, match="fsm matrix needs 10000000000 states"):
            fsm_matrix(2, 10**5)
        assert survival_probability(2, 3, 60000) < 1  # about 2^26 words of steps

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
        # (-1)^d g(lam) / (lam - mu) = det(A_d - lam I)
        A = np.array(list(fsm_matrix(sigma, d)), dtype=float)
        rng = np.random.default_rng(d)
        for lam in list(rng.uniform(-1, 1, size=8)) + [0.0, 1.0]:
            det = np.linalg.det(A - lam * np.eye(d))
            assert abs(float(char_poly(sigma, d, Fraction(lam))) - det) < 1e-9

    def test_exact_value(self):
        # sigma = 2, d = 2: A_2 - I = [[-1/2, 1/2], [1/2, -1]] has det 1/4
        assert char_g(Fraction(1, 2), 2, Fraction(1)) == Fraction(1, 8)
        assert char_poly(2, 2, Fraction(1)) == Fraction(1, 4)

    def test_root_annihilates(self):
        lam = dominant_root(2, 3)
        assert abs(float(char_poly(2, 3, lam))) < 1e-11


class TestDominantRoot:
    def test_bracket_fails_only_at_d1(self):
        # the proved bracket_holds (d >= 2) against the oracle's end signs; at
        # d=1 the eigenvalue is exactly 1 - mu, the open bracket's end
        for sigma in range(2, 11):
            for d in range(1, 201):
                assert bracket_holds(sigma, d) == bracket_sign_change(sigma, d) == (d >= 2)

    @pytest.mark.parametrize("sigma", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 6, 40, 300])
    def test_integer_sign_is_char_g_sign(self, sigma, d):
        # g(a/b) (b sigma)^(d+1) in integers has the sign of g(a/b) in Fractions,
        # at the bracket's ends, its midpoint and off it
        mu = Fraction(1, sigma)
        lo, hi = 1 - mu**d, 1 - mu ** (d + 1)
        for lam in (lo, hi, (lo + hi) / 2, Fraction(0), mu, Fraction(3, 2)):
            g = char_g(mu, d, lam)
            assert _g_sign(sigma, d, lam.numerator, lam.denominator) == (g > 0) - (g < 0)
            assert scaled_g(sigma, d, lam.numerator, lam.denominator) == g * (
                lam.denominator * sigma
            ) ** (d + 1)

    @pytest.mark.parametrize("sigma", range(2, 11))
    def test_root_is_fraction_bisection(self, sigma):
        for d in range(1, 61):
            assert dominant_root(sigma, d) == fraction_bisection(sigma, d), (sigma, d)

    def test_large_d_is_fast(self):
        # from d = 39 on at sigma = 2 the bracket is narrower than ROOT_TOL, so
        # the root is its midpoint, found without evaluating g: well under
        # 10 ms up to the largest d that fsm_matrix's d^2 gate admits
        mu = Fraction(1, 2)
        for d in (1000, 16384):
            lo, hi = 1 - mu**d, 1 - mu ** (d + 1)
            assert hi - lo < ROOT_TOL
            start = time.perf_counter()
            assert bracket_holds(2, d)
            root = dominant_root(2, d)
            assert time.perf_counter() - start < 0.01
            assert root == (lo + hi) / 2

    @pytest.mark.parametrize(
        "call,args,match",
        [
            (bracket_holds, (1, 3), "alphabet size must be >= 2, got 1"),
            (bracket_holds, (2, -1), "need d >= 1"),
            (dominant_root, (2, 0), "need d >= 1"),
            (dominant_root, (1, 3), "alphabet size must be >= 2, got 1"),
            (dominant_root, (0, 2), "alphabet size must be >= 2, got 0"),
            (eigenpair_residual, (2, 0, Fraction(1, 2)), "need d >= 1"),
            (eigenpair_residual, (2, 3, Fraction(0)), "need a nonzero root"),
        ],
        ids=[
            "bracket-sigma1",
            "bracket-d-1",
            "root-d0",
            "root-sigma1",
            "root-sigma0",
            "residual-d0",
            "residual-root0",
        ],
    )
    def test_rejects_bad_shape(self, call, args, match):
        with pytest.raises(ValueError, match=match):
            call(*args)

    @pytest.mark.parametrize("sigma,d", [(2, 2), (2, 3), (2, 5), (4, 2), (4, 3)])
    def test_root_in_bracket_with_small_residual(self, sigma, d):
        mu = Fraction(1, sigma)
        lam = dominant_root(sigma, d)
        assert 1 - mu**d < lam < 1 - mu ** (d + 1)
        assert eigenpair_residual(sigma, d, lam) <= 1e-10

    @pytest.mark.parametrize("sigma,d", [(2, 1), (2, 2), (3, 1), (3, 5), (4, 50), (2, 200)])
    def test_residual_is_the_matvec_oracle(self, sigma, d):
        # rows 1..d-1 of A v - root v are exactly 0; row 0 in closed form
        root = dominant_root(sigma, d)
        start = time.perf_counter()
        residual = eigenpair_residual(sigma, d, root)
        assert time.perf_counter() - start < 0.05
        assert residual == matvec_residual(sigma, d, root)

    def test_closed_form_sum_is_horner(self):
        # the geometric sum in closed form gives Horner's float, and the g
        # quotient's, at every d from 2 to 200, and at p = q
        def horner(sigma, d, root):
            s = Fraction(1, sigma) / root
            p, q = s.numerator, s.denominator
            n, power = 0, 1
            for _ in range(d):
                n, power = n * q + power, power * p
            qd = q ** (d - 1)
            diff = (sigma - 1) * n * root.denominator - sigma * qd * root.numerator
            return abs(diff / (sigma * qd * root.denominator))

        for sigma in (2, 3, 5):
            for d in range(2, 201):
                root = dominant_root(sigma, d)
                residual = eigenpair_residual(sigma, d, root)
                assert residual == horner(sigma, d, root) == g_residual(sigma, d, root), (sigma, d)
        for sigma, d in [(2, 1), (3, 7)]:
            mu = Fraction(1, sigma)  # s = 1, so p = q
            assert eigenpair_residual(sigma, d, mu) == horner(sigma, d, mu)
            assert eigenpair_residual(sigma, d, mu) == matvec_residual(sigma, d, mu)

    @given(
        st.integers(2, 5),
        st.integers(1, 60),
        st.fractions(Fraction(1, 10), 2, max_denominator=2**40),
    )
    def test_residual_is_g_residual(self, sigma, d, root):
        # at any root != mu, not only the bisection's (from 1/10 up, s <= 2)
        if root != Fraction(1, sigma):
            assert eigenpair_residual(sigma, d, root) == g_residual(sigma, d, root)

    def test_residual_underflows_past_d_1073(self):
        # from d = 39 at sigma = 2 the root is the bracket's midpoint, and
        # g_residual there is just under mu^d / 2 = 2^-(d+1): it rounds to the
        # least subnormal, 2^-1074, at d = 1073, and to 0.0 from d = 1074 on,
        # where it is under half of it; fsm prints that 0.0
        for d, printed in [(1073, 2.0**-1074), (1074, 0.0)]:
            root = dominant_root(2, d)
            assert eigenpair_residual(2, d, root) == g_residual(2, d, root) == printed

    def test_eigenvector_shape(self):
        lam = dominant_root(2, 3)
        v = dominant_eigenvector(2, 3, lam)
        s = Fraction(1, 2) / lam
        assert v == (1, s, s * s)
