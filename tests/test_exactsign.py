import itertools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from oracles import mp_im, mp_re, one_sign, part_polynomial, reduce_mod_cyclotomic
from uhspath.exactsign import (
    NEG,
    POS,
    ZERO,
    _reduction_matrix,
    cyclotomic_coeffs,
    signs,
    zero_rows,
)


def assert_cli_skips_modules(argv, modules):
    """Run the CLI on argv in a fresh interpreter: it must exit 0 without
    having imported any of `modules`."""
    code = (
        "import sys; from uhspath.cli import run; "
        f"assert run({argv.split()!r}) == 0; "
        f"loaded = [m for m in {modules!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    run_python(code)


def run_python(code):
    """Run `code` in a fresh interpreter with the package on its path; it must exit 0."""
    import uhspath

    src = os.path.dirname(os.path.dirname(uhspath.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def float_im(symbols):
    w = len(symbols)
    return sum(x * math.sin(2 * math.pi * (i + 1) / w) for i, x in enumerate(symbols))


def float_re(symbols):
    w = len(symbols)
    return sum(x * math.cos(2 * math.pi * (i + 1) / w) for i, x in enumerate(symbols))


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(2) == (1, 1)
        assert cyclotomic_coeffs(4) == (1, 0, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        from uhspath.core import _totient

        for w in range(1, 40):
            assert len(cyclotomic_coeffs(w)) - 1 == _totient(w)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for w in range(1, 121):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(w, x), x).all_coeffs()
            assert cyclotomic_coeffs(w) == tuple(int(c) for c in reversed(coeffs)), w


class TestZeroMatrix:
    @pytest.mark.parametrize("sigma,wmax", [(2, 14), (3, 9)])
    def test_every_code_matches_division(self, sigma, wmax):
        for w in range(1, wmax + 1):
            words = np.array(list(itertools.product(range(sigma), repeat=w)))
            for part in ("im", "re"):
                expect = [
                    reduce_mod_cyclotomic(part_polynomial(row, part), w)
                    for row in words.tolist()
                ]
                assert zero_rows(words, part).tolist() == expect, (w, part)

    def test_scalar_and_bulk_agree(self):
        words = np.random.default_rng(3).integers(0, 3, size=(200, 12))
        bulk = zero_rows(words, "im")
        assert [bool(zero_rows(row, "im")) for row in words.tolist()] == bulk.tolist()

    def test_wide_digits_use_python_ints(self):
        # digits large enough that an int64 product could overflow
        for w in (6, 12, 15):
            words = np.random.default_rng(w).integers(0, 2, size=(100, w))
            for part in ("im", "re"):
                assert _reduction_matrix(w, part, 2**62).dtype == object
                assert np.array_equal(zero_rows(words * 2**62, part), zero_rows(words, part))

    def test_no_sympy_at_runtime(self):
        assert_cli_skips_modules("mykkeltveit --sigma 3 --w 12", ["sympy"])


class TestImportFootprint:
    @pytest.mark.parametrize(
        "argv",
        [
            "necklaces --sigma 4 --w 6 --list",
            "debruijn-seq --sigma 2 --n 8",
            "mds-count --sigma 2 --w 4",
            "fsm --sigma 2 --d 6 --w 20",
        ],
        ids=["necklaces", "debruijn-seq", "mds-count", "fsm"],
    )
    def test_integer_subcommands_skip_numpy_and_mpmath(self, argv):
        assert_cli_skips_modules(argv, ["numpy", "mpmath"])

    @pytest.mark.parametrize(
        "argv",
        ["mykkeltveit --sigma 2 --w 12", "long-path --sigma 2 --w 100"],
        ids=["mykkeltveit", "long-path"],
    )
    def test_no_mpmath_without_escalation(self, argv):
        # every band sign here is an exact zero, or no code is in the band
        assert_cli_skips_modules(argv, ["mpmath"])

    def test_escalation_loads_mpmath(self):
        # a word near zero but not zero reaches the mpmath tier
        code = (
            "import sys, numpy as np; from uhspath.exactsign import signs; "
            "assert 'mpmath' not in sys.modules; "
            "assert signs(np.array([[2, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0]]), np.zeros(1), 3, 'im')[0] != 0; "
            "assert 'mpmath' in sys.modules"
        )
        run_python(code)


class TestZeroDecisions:
    def test_examples(self):
        # "01": zeta^2 = 1 at w=2, real -> Im == 0
        assert zero_rows([0, 1], "im")
        # "1000" at w=4: value is zeta = i, purely imaginary
        assert not zero_rows([1, 0, 0, 0], "im")
        assert zero_rows([1, 0, 0, 0], "re")
        # "0001" at w=4: value is zeta^4 = 1
        assert zero_rows([0, 0, 0, 1], "im")
        assert not zero_rows([0, 0, 0, 1], "re")

    def test_constant_words_sum_to_zero(self):
        for w in (2, 3, 5, 8, 12):
            assert zero_rows([1] * w, "im")
            assert zero_rows([1] * w, "re")

    def test_period_two_words(self):
        # "1010...": sum of even powers of zeta over w/2 values -> 0 when w even
        for w in (4, 6, 10):
            word = [1, 0] * (w // 2)
            assert zero_rows(word, "im") and zero_rows(word, "re")

    @pytest.mark.parametrize("w", [3, 4, 5, 6, 7, 8, 9, 12, 15, 16])
    def test_agrees_with_high_precision(self, w):
        rng = np.random.default_rng(w)
        for _ in range(60):
            word = rng.integers(0, 4, size=w).tolist()
            im = mp_im(word)
            if zero_rows(word, "im"):
                assert abs(im) < mp.mpf(10) ** -150
            else:
                assert abs(im) > mp.mpf(10) ** -150


class TestCertifiedSigns:
    @pytest.mark.parametrize("w", [4, 7, 12, 20])
    def test_matches_float_away_from_zero(self, w):
        rng = np.random.default_rng(w + 100)
        for _ in range(50):
            word = rng.integers(0, 4, size=w).tolist()
            fi, fr = float_im(word), float_re(word)
            si = one_sign(word, fi, 4, "im")
            sr = one_sign(word, fr, 4, "re")
            hi, hr = mp_im(word), mp_im([0] + word[:-1])  # placeholder for re
            assert si == (0 if zero_rows(word, "im") else (1 if hi > 0 else -1))
            if abs(fr) > 1e-9:
                assert sr == (1 if fr > 0 else -1)

    def test_borderline_zero(self):
        word = [0, 1]  # exactly real
        assert one_sign(word, 0.0, 2, "im") == ZERO
        assert one_sign(word, 1.0, 2, "re") == POS

    def test_borderline_nonzero_near_float_zero(self):
        # w=12: zeta + zeta^5 + zeta^7 + zeta^11 = 0 exactly; perturb one term
        w = 12
        base = [0] * w
        for e in (1, 5, 7, 11):
            base[e - 1] = 1
        assert zero_rows(base, "re")
        assert zero_rows(base, "im")
        # doubling one imaginary contribution breaks the cancellation
        tweak = list(base)
        tweak[0] = 2
        fi = float_im(tweak)
        assert one_sign(tweak, fi, 2, "im") == (POS if mp_im(tweak) > 0 else NEG)

    def test_tiny_float_handed_in_gets_corrected(self):
        # pass a dishonest approx of 0.0; certification must still resolve it
        word = [1, 0, 0, 0]  # Im = 1 at w=4
        assert one_sign(word, 0.0, 2, "im") == POS
        word = [0, 0, 1, 0]  # zeta^3 = -i
        assert one_sign(word, 0.0, 2, "im") == NEG


def cascade_stack(sigma, w=12):
    """Rows for the sign cascade: exact zeros, the near-cancelling w = 12
    tweak words, and random words handed a dishonest approx of 0.0."""
    base = [0] * w
    for e in (1, 5, 7, 11):
        base[e - 1] = 1
    rows = [[0] * w, [1] * w, [sigma - 1] * w, base]
    for j in range(w):
        tweak = list(base)
        tweak[j] = min(tweak[j] + 1, sigma - 1)
        rows.append(tweak)
    honest = len(rows)
    rows += np.random.default_rng(sigma).integers(0, sigma, size=(20, w)).tolist()
    return np.array(rows), honest


class TestOneCascade:
    @pytest.mark.parametrize("part", ["im", "re"])
    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_stack_equals_each_row(self, sigma, part):
        rows, honest = cascade_stack(sigma)
        approx = np.array([(float_im if part == "im" else float_re)(r) for r in rows.tolist()])
        approx[honest:] = 0.0
        stack = signs(rows, approx, sigma, part)
        assert stack.dtype == np.int8 and stack.shape == (len(rows),)
        each = [one_sign(r, float(a), sigma, part) for r, a in zip(rows.tolist(), approx)]
        assert stack.tolist() == each
        exact = mp_im if part == "im" else mp_re
        for r, s in zip(rows.tolist(), each):
            v = exact(r)
            assert s == (ZERO if abs(v) < mp.mpf(10) ** -150 else (POS if v > 0 else NEG))
        assert any(s != ZERO for s in each[honest:])  # the mpmath tier ran in the stack

    @pytest.mark.parametrize("part", ["im", "re"])
    def test_one_zero_test_per_call(self, monkeypatch, part):
        from uhspath import exactsign

        calls = []
        real = exactsign.zero_rows

        def counting(digits, p):
            calls.append(np.shape(digits))
            return real(digits, p)

        monkeypatch.setattr(exactsign, "zero_rows", counting)
        rows, _ = cascade_stack(3)
        out = signs(rows, np.zeros(len(rows)), 3, part)
        assert (out != ZERO).any() and (out == ZERO).any()
        assert calls == [rows.shape]
        calls.clear()
        assert signs(np.array([[1, 0, 0, 0]]), np.zeros(1), 2, part)[0] in (NEG, ZERO, POS)
        assert calls == [(1, 4)]

    def test_band_is_guard(self):
        from uhspath.exactsign import FLOAT_GUARD, guard

        assert guard(4, 12) == FLOAT_GUARD * 3 * 12
        word = [1, 0, 0, 0]
        assert one_sign(word, -0.9 * guard(2, 4), 2, "im") == POS  # in the band: certified
        assert one_sign(word, -1.1 * guard(2, 4), 2, "im") == NEG  # outside: the double's sign
