import itertools
import math
import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    cyclotomic_coeffs,
    mp_im,
    mp_re,
    one_sign,
    part_polynomial,
    reduce_mod_cyclotomic,
)
from uhspath import exactsign
from uhspath.core import BudgetError, _totient
from uhspath.exactsign import NEG, POS, ZERO, _roots, signs

ROOT = Path(__file__).resolve().parent.parent


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


def false_zero_signs(words, sigma):
    """`signs` of a block of words, each handed a false double of 0.0, so
    every row goes through the exact tier."""
    words = np.atleast_2d(words)
    return signs(np.zeros(len(words)), sigma, words.shape[1], words.__getitem__)


def is_zero(word):
    return int(false_zero_signs(word, max(word) + 1)[0]) == ZERO


def float_im(symbols):
    w = len(symbols)
    return sum(x * math.sin(2 * math.pi * (i + 1) / w) for i, x in enumerate(symbols))


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
        # every code handed 0.0: ZERO exactly where Phi_w divides the part's
        # polynomial, and otherwise the sign of a double far from zero
        for w in range(1, wmax + 1):
            words = np.array(list(itertools.product(range(sigma), repeat=w)))
            expect = [reduce_mod_cyclotomic(part_polynomial(row, "im"), w) for row in words.tolist()]
            got = false_zero_signs(words, sigma)
            assert (got == ZERO).tolist() == expect, w
            floats = [float_im(r) for r in words.tolist()]
            far = np.abs(floats) > 1e-9
            assert np.array_equal(got[far], np.sign(floats)[far]), w

    def test_scalar_and_bulk_agree(self):
        words = np.random.default_rng(3).integers(0, 3, size=(200, 12))
        bulk = false_zero_signs(words, 3)
        assert [one_sign(row, 0.0, 3) for row in words.tolist()] == bulk.tolist()

    def test_wide_digits_raise(self):
        # err = |digit| w past 2^29 could overflow the int64 limb sums
        words = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]])
        assert false_zero_signs(words << 26, 2).tolist() == [POS, NEG, ZERO]
        with pytest.raises(AssertionError):
            false_zero_signs(words << 27, 2)

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
        assert_cli_skips_modules(argv, ["mpmath"])

    def test_near_cancelling_rows_skip_mpmath(self):
        # the exact tier decides the near-cancelling and falsely zero rows
        # in integers: the signs match mpmath's, and mpmath never loads
        cases = []
        for sigma in (2, 3, 4):
            rows, _ = cascade_stack(sigma)
            cases.append((rows.tolist(), sigma, [mp_sign(r) for r in rows.tolist()]))
        code = "\n".join([
            "import sys, numpy as np",
            "from uhspath.exactsign import signs",
            f"for rows, sigma, expect in {cases!r}:",
            "    got = signs(np.zeros(len(rows)), sigma, 12, np.array(rows).__getitem__).tolist()",
            "    assert got == expect, sigma",
            "assert 'mpmath' not in sys.modules",
        ])
        run_python(code)


class TestZeroDecisions:
    @pytest.mark.parametrize("w", [3, 4, 5, 6, 7, 8, 9, 12, 15, 16])
    def test_agrees_with_high_precision(self, w):
        rng = np.random.default_rng(w)
        for _ in range(60):
            word = rng.integers(0, 4, size=w).tolist()
            im = mp_im(word)
            if is_zero(word):
                assert abs(im) < mp.mpf(10) ** -150
            else:
                assert abs(im) > mp.mpf(10) ** -150


class TestCertifiedSigns:
    @pytest.mark.parametrize("w", [4, 7, 12, 20])
    def test_matches_float_away_from_zero(self, w):
        rng = np.random.default_rng(w + 100)
        for _ in range(50):
            word = rng.integers(0, 4, size=w).tolist()
            assert one_sign(word, float_im(word), 4) == mp_sign(word)

    def test_borderline_zero(self):
        word = [0, 1]  # exactly real
        assert one_sign(word, 0.0, 2) == ZERO

    def test_borderline_nonzero_near_float_zero(self):
        # w=12: zeta + zeta^5 + zeta^7 + zeta^11 = 0 exactly; perturb one term
        w = 12
        base = [0] * w
        for e in (1, 5, 7, 11):
            base[e - 1] = 1
        assert is_zero(base)
        # doubling one imaginary contribution breaks the cancellation
        tweak = list(base)
        tweak[0] = 2
        assert one_sign(tweak, float_im(tweak), 2) == (POS if mp_im(tweak) > 0 else NEG)

    def test_tiny_float_handed_in_gets_corrected(self):
        # pass a dishonest approx of 0.0; certification must still resolve it
        word = [1, 0, 0, 0]  # Im = 1 at w=4
        assert one_sign(word, 0.0, 2) == POS
        word = [0, 0, 1, 0]  # zeta^3 = -i
        assert one_sign(word, 0.0, 2) == NEG


def mp_sign(word, part=mp_im):
    """Sign of Im P (or of `part`, mp_re for Re P) at 200 digits, ZERO below
    10^-150."""
    v = part(word)
    return ZERO if abs(v) < mp.mpf(10) ** -150 else (POS if v > 0 else NEG)


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
        # "im" signs the rows themselves; "re" signs their rotations R(x),
        # which is how the Mykkeltveit build reads Re P(x) where Im P(x) = 0:
        # sign Re P(x) = -sign Im P(R(x))
        words, honest = cascade_stack(sigma)
        rows = words if part == "im" else np.roll(words, -1, axis=1)
        approx = np.array([float_im(r) for r in rows.tolist()])
        approx[honest:] = 0.0
        stack = signs(approx, sigma, 12, rows.__getitem__)
        assert stack.dtype == np.int8 and stack.shape == (len(rows),)
        each = [one_sign(r, float(a), sigma) for r, a in zip(rows.tolist(), approx)]
        assert stack.tolist() == each
        assert each == [mp_sign(r) for r in rows.tolist()]
        assert any(s != ZERO for s in each[honest:])  # nonzero rows reached the exact tier
        if part == "re":
            real = [k for k, x in enumerate(words.tolist()) if mp_sign(x) == ZERO]
            re = [mp_sign(words[k].tolist(), mp_re) for k in real]
            assert [-each[k] for k in real] == re
            assert {NEG, ZERO, POS} <= set(re)  # both half-axes and the origin

    def test_one_zero_test_per_call(self, monkeypatch):
        # one table per block of band rows, at q = 1 + phi(w) bitlen(2 top w),
        # decides every band row
        calls = []
        real = exactsign._roots

        def counting(w, q):
            calls.append((w, q))
            return real(w, q)

        monkeypatch.setattr(exactsign, "_roots", counting)
        rows, _ = cascade_stack(3)
        out = signs(np.zeros(len(rows)), 3, 12, rows.__getitem__)
        assert (out != ZERO).any() and (out == ZERO).any()
        assert calls == [(12, 1 + 4 * (2 * 2 * 12).bit_length())]
        calls.clear()
        word = np.array([[1, 0, 0, 0]])
        assert signs(np.zeros(1), 2, 4, word.__getitem__).tolist() == [POS]
        assert calls == [(4, 1 + 2 * (2 * 4).bit_length())]
        calls.clear()
        assert signs(np.ones(1), 2, 4, word.__getitem__).tolist() == [POS]
        assert calls == []  # no band row, no table

    def test_band_is_guard(self):
        from uhspath.exactsign import FLOAT_GUARD, guard

        assert guard(4, 12) == FLOAT_GUARD * 3 * 12
        word = [1, 0, 0, 0]
        assert one_sign(word, -0.9 * guard(2, 4), 2) == POS  # in the band: certified
        assert one_sign(word, -1.1 * guard(2, 4), 2) == NEG  # outside: the double's sign

    def test_guard_covers_float_bound_every_w(self):
        # the module docstring's bound over (sigma - 1) w, in units of 2^-53:
        # 2^5 + 1 for each root, w + 1 for the products and the sum.  The guard
        # covers it for every w up to 2^20, and below 2^12 it is
        # (sigma - 1) w 2^-40, so no band there moved when it widened
        from uhspath.exactsign import FLOAT_GUARD, guard

        w = np.arange(1, 2**20 + 1)
        assert (2.0**-53 * w * (2**5 + 1 + w + 1) <= guard(2, w)).all()
        assert (guard(4, w) == 3 * guard(2, w)).all()
        assert (guard(2, w[:4095]) == FLOAT_GUARD * w[:4095]).all()
        assert guard(2, 4096) == 2 * FLOAT_GUARD * 4096


class TestFixedPointTier:
    @pytest.mark.parametrize("w", range(1, 65))
    def test_table_within_one_of_mpmath(self, w):
        # every entry within 1 of 2^q sin, checked at 2q bits
        for q in (8, 1 + _totient(w) * (2 * w).bit_length()):
            im_ = _roots(w, q)
            assert len(im_) == w
            with mp.workprec(2 * q):
                for k in range(w):
                    angle = 2 * mp.pi * (k + 1) / w
                    assert abs(im_[k] - mp.ldexp(mp.sin(angle), q)) <= 1, (w, q, k)

    @pytest.mark.parametrize("w", [100, 101])
    def test_long_path_rows_handed_zero(self, w):
        # the long path's rows, each handed a false 0.0: at w = 101 the tier
        # works at q = 801 bits, and every Im P is positive
        from uhspath.mykkeltveit import build_long_path

        lp = build_long_path(2, w)
        start = time.perf_counter()
        assert (false_zero_signs(lp.vertices, 2) == POS).all()
        assert time.perf_counter() - start < 0.5

    def test_over_cap_precision_raises_before_table(self, monkeypatch):
        # one row at prime w = 20011 asks for q = 1 + 20010 * 16 bits: the
        # table's 2 w q bits pass the default budget, and no table is built
        monkeypatch.setattr(exactsign, "_roots", lambda w, q: pytest.fail("table built"))
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="^sign table needs 12813483542 states"):
            false_zero_signs(np.ones((1, 20011), dtype=np.int64), 2)
        assert time.perf_counter() - start < 1.0

    def test_over_cap_exits_2(self, capsys, monkeypatch):
        # every code in the band and a table budget of 100 bits: one error line
        from uhspath.cli import run
        from uhspath.core import check_budget

        monkeypatch.setattr(exactsign, "guard", lambda sigma, w: math.inf)
        monkeypatch.setattr(exactsign, "check_budget", partial(check_budget, budget=100))
        assert run(["mykkeltveit", "--sigma", "2", "--w", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sign table needs 504 states, budget is 100\n"

    def test_one_tier_in_source(self):
        # the cyclotomic zero test and the mpmath escalation are gone from the
        # package, and mpmath is a test dependency only
        gone = ["mpmath", "ArithmeticError", "zero_rows", "cyclotomic_coeffs"]
        found = [
            (path.name, name)
            for path in sorted((ROOT / "src" / "uhspath").glob("*.py"))
            for name in gone
            if name in path.read_text()
        ]
        assert found == []
        pyproject = (ROOT / "pyproject.toml").read_text()
        runtime = re.search(r"^\[project\]$.*?^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
        test_extra = re.search(r"^test = \[(.*?)\]", pyproject, re.M)
        assert "numpy" in runtime.group(1) and "mpmath" not in runtime.group(1)
        assert "mpmath" in test_extra.group(1)
