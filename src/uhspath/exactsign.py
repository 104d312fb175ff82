"""Certified signs of real/imaginary parts of root-of-unity sums.

Quantities of the form sum_i x_i * zeta^(i+1), zeta = e^(2 pi i / w), are
evaluated in doubles first, and `signs` certifies them for a stack of
words.  A value outside the guard band keeps its float sign.  Borderline
values get an exact zero test: an integer combination of powers of zeta
vanishes iff the w-th cyclotomic polynomial Phi_w divides the corresponding
integer polynomial, and reduction mod Phi_w is an integer linear map (Lam &
Leung 2000), so the test is one product of the digit rows with a cached
w x phi(w) integer matrix.  Provably nonzero values have their sign pinned
down with escalating mpmath precision; mpmath is imported only then.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NEG, ZERO, POS = -1, 0, 1

#: doubles closer to zero than this, scaled by `guard`, are re-checked exactly
FLOAT_GUARD = 2.0**-40

#: sign of the conjugate term in each part's polynomial
_CONJ = {"im": -1, "re": 1}


def _divide_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact quotient of integer polynomials (ascending), den monic
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = num[i + len(den) - 1]
        if c:
            for j, p in enumerate(den):
                num[i + j] -= c * p
    assert not any(num), "cyclotomic division left a remainder"
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(w: int) -> tuple[int, ...]:
    """Coefficients of the w-th cyclotomic polynomial, ascending degree.

    (x^w - 1) divided by Phi_d for every proper divisor d of w.
    """
    poly = [-1] + [0] * (w - 1) + [1]
    for d in range(1, w):
        if w % d == 0:
            poly = _divide_monic(poly, cyclotomic_coeffs(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_remainders(w: int) -> tuple[tuple[int, ...], ...]:
    # x^k mod Phi_w for k < w, each as phi(w) ascending coefficients
    phi = cyclotomic_coeffs(w)
    deg = len(phi) - 1
    rem = [1] + [0] * (deg - 1)
    out = [tuple(rem)]
    for _ in range(w - 1):
        lead = rem[-1]
        rem = [0] + rem[:-1]
        rem = [r - lead * p for r, p in zip(rem, phi)]
        out.append(tuple(rem))
    return tuple(out)


@lru_cache(maxsize=None)
def _reduction_matrix(w: int, part: str, top: int) -> np.ndarray:
    """w x phi(w) integer matrix mapping a digit row to a remainder mod Phi_w.

    Row i is the remainder of digit i's term in the Im ('im': z^(i+1) -
    z^-(i+1)) or Re ('re': z^(i+1) + z^-(i+1)) polynomial, exponents mod w,
    so `digits @ A` is the remainder of a whole row and the row's part is
    zero iff it is.  int64 when rows of digits up to `top` cannot overflow
    it, else Python ints (dtype=object).
    """
    powers = _power_remainders(w)
    conj = _CONJ[part]
    rows = [
        [a + conj * b for a, b in zip(powers[(i + 1) % w], powers[(w - i - 1) % w])]
        for i in range(w)
    ]
    big = max(abs(v) for row in rows for v in row) * top * w >= 2**63
    A = np.array(rows, dtype=object if big else np.int64)
    A.flags.writeable = False  # shared by every caller through the cache
    return A


def zero_rows(digits, part: str) -> np.ndarray:
    """Exactly decide, per digit row, whether its `part` of sum x_i zeta^(i+1) is 0.

    `digits` is one word (shape (w,)) or a stack of words (shape (m, w));
    the result is a bool per word.
    """
    d = np.asarray(digits, dtype=np.int64)
    A = _reduction_matrix(d.shape[-1], part, int(np.abs(d).max(initial=0)))
    return ~(d @ A).any(axis=-1)


def guard(sigma: int, w: int) -> float:
    """Half-width of the band of doubles whose sign is not trusted, for the
    parts of a word of w digits below sigma."""
    return FLOAT_GUARD * (sigma - 1) * w


def _mp_sign(row: list[int], part: str) -> int:
    # escalating precision for a part proven nonzero
    import mpmath as mp

    trig = mp.sin if part == "im" else mp.cos
    for dps in (60, 120, 240, 480):
        with mp.workdps(dps):
            step = 2 * mp.pi / len(row)
            v = mp.fsum(x * trig(step * (i + 1)) for i, x in enumerate(row) if x)
            if abs(v) > mp.mpf(10) ** (10 - dps):
                return POS if v > 0 else NEG
    raise ArithmeticError(f"could not certify sign for {tuple(row)}")


def signs(digits, approx, sigma: int, part: str) -> np.ndarray:
    """Certified NEG/ZERO/POS of the `part` ("im" or "re") of sum x_i zeta^(i+1),
    as int8, for a stack of words: `digits` of shape (m, w) and their doubles
    `approx` of shape (m,).  A double outside `guard` keeps its sign; all band
    rows go through one `zero_rows` call, and only the nonzero ones through
    mpmath.
    """
    d = np.asarray(digits, dtype=np.int64)
    out = np.sign(approx).astype(np.int8)
    band = np.flatnonzero(np.abs(approx) <= guard(sigma, d.shape[-1]))
    zero = zero_rows(d[band], part)
    out[band[zero]] = ZERO
    for i in band[~zero]:
        out[i] = _mp_sign(d[i].tolist(), part)
    return out
