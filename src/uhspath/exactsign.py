"""Certified signs of real/imaginary parts of root-of-unity sums.

Quantities of the form sum_i x_i * zeta^(i+1), zeta = e^(2 pi i / w), are
evaluated in doubles first.  A value safely away from zero keeps its float
sign.  Borderline values get an exact zero test -- an integer combination
of powers of zeta vanishes iff the w-th cyclotomic polynomial divides the
corresponding integer polynomial -- and provably nonzero values have their
sign pinned down with escalating mpmath precision.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import mpmath as mp

NEG, ZERO, POS = -1, 0, 1

#: doubles closer to zero than this (scaled) are re-checked exactly
FLOAT_GUARD = 2.0**-40


@lru_cache(maxsize=None)
def cyclotomic_coeffs(w: int) -> tuple[int, ...]:
    """Coefficients of the w-th cyclotomic polynomial, ascending degree."""
    from sympy import Poly, Symbol, cyclotomic_poly

    x = Symbol("x")
    coeffs = Poly(cyclotomic_poly(w, x), x).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def _reduce_mod_cyclotomic(coef: list[int], w: int) -> bool:
    """True iff the integer polynomial (ascending coef) is divisible by Phi_w."""
    phi = cyclotomic_coeffs(w)
    deg = len(phi) - 1
    rem = list(coef)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi):
                rem[i - deg + j] -= c * p
    return all(v == 0 for v in rem[:deg])


def _combination(symbols: Sequence[int], conj_sign: int) -> list[int]:
    # polynomial for sum x_i (zeta^(i+1) + conj_sign * zeta^-(i+1))
    w = len(symbols)
    coef = [0] * w
    for i, x in enumerate(symbols):
        if x:
            coef[(i + 1) % w] += x
            coef[(w - i - 1) % w] += conj_sign * x
    return coef


def im_is_zero(symbols: Sequence[int]) -> bool:
    """Exactly decide Im(sum x_i zeta^(i+1)) == 0."""
    return _reduce_mod_cyclotomic(_combination(symbols, -1), len(symbols))


def re_is_zero(symbols: Sequence[int]) -> bool:
    """Exactly decide Re(sum x_i zeta^(i+1)) == 0."""
    return _reduce_mod_cyclotomic(_combination(symbols, +1), len(symbols))


def sum_is_zero(symbols: Sequence[int]) -> bool:
    """Exactly decide sum x_i zeta^(i+1) == 0."""
    w = len(symbols)
    coef = [0] * w
    for i, x in enumerate(symbols):
        coef[(i + 1) % w] += x
    return _reduce_mod_cyclotomic(coef, w)


def _mp_part(symbols: Sequence[int], trig) -> mp.mpf:
    w = len(symbols)
    step = 2 * mp.pi / w
    return mp.fsum(x * trig(step * (i + 1)) for i, x in enumerate(symbols) if x)


def _certified(symbols: Sequence[int], approx: float, exact_zero, trig, scale: float) -> int:
    if abs(approx) > FLOAT_GUARD * scale:
        return POS if approx > 0 else NEG
    if exact_zero(symbols):
        return ZERO
    for dps in (60, 120, 240, 480):
        with mp.workdps(dps):
            v = _mp_part(symbols, trig)
            if abs(v) > mp.mpf(10) ** (10 - dps):
                return POS if v > 0 else NEG
    raise ArithmeticError(f"could not certify sign for {tuple(symbols)}")


def im_sign(symbols: Sequence[int], approx: float, sigma: int) -> int:
    """Certified sign of Im(sum x_i zeta^(i+1)) given a double approximation."""
    return _certified(symbols, approx, im_is_zero, mp.sin, (sigma - 1) * len(symbols))


def re_sign(symbols: Sequence[int], approx: float, sigma: int) -> int:
    """Certified sign of Re(sum x_i zeta^(i+1)) given a double approximation."""
    return _certified(symbols, approx, re_is_zero, mp.cos, (sigma - 1) * len(symbols))
