"""Certified signs of the imaginary parts of root-of-unity sums.

`signs` certifies the sign of Im P, P(x) = sum_i x_i zeta^(i+1) with
zeta = e^(2 pi i / w), for a block of words given their doubles.

Doubles.  A double sums w terms x_i t_i, t_i within 2^-48 + 2^-53 of its
sine (a double angle, then libm), and its products and sum add
(sigma-1) w (w+1) 2^-53 to first order.  The total is below (sigma-1) w
2^-40 (1 + floor(w / 2^12)) = `guard(sigma, w)` for every w: a double outside
it has the true sign.

Fixed point.  Im P = alpha/2i for alpha = P - conj P, an algebraic integer of
Q(zeta) whose phi(w) conjugates have modulus at most 2 top w, top the largest
|digit|.  A nonzero alpha has a nonzero integer norm, so a nonzero Im P has
modulus at least 1/2 (2 top w)^-(phi(w)-1) (Myerson, Amer. Math. Monthly 93,
1986).  Each entry of `_roots(w, q)` is within 1 of 2^q sin, so a row's
integer sum S is within E = top w of 2^q Im P, and q = 1 + phi(w)
bitlen(2 top w) puts a nonzero Im P past 2E: |S| <= E exactly when Im P is
zero, and otherwise S has its sign.  `core.check_budget` is charged 2 w q
units before the table is built.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import _totient, check_budget

NEG, ZERO, POS = -1, 0, 1

#: doubles closer to zero than this, scaled by `guard`, are re-checked exactly
FLOAT_GUARD = 2.0**-40
_ROWS = 1 << 12  # band rows spelled and summed exactly at a time


def guard(sigma: int, w: int) -> float:
    """Half-width of the band of doubles whose sign is not trusted, for Im P
    of a word of w digits below sigma."""
    return FLOAT_GUARD * (sigma - 1) * w * (1 + (w >> 12))


def _pi(p: int) -> int:
    """pi 2^p by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239), within
    4p + 40.  Each series term is one floor of its exact value, and each
    series stops at its first zero term, so atan(1/x) is within its term
    count plus one."""

    def atan_inv(x: int) -> int:
        total, power, k = 0, (1 << p) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= x * x
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


@lru_cache(maxsize=8)
def _roots(w: int, q: int) -> tuple[int, ...]:
    """im with im[k] within 1 of 2^q sin(2 pi (k+1) / w), for k < w, in
    integers only.

    Works at p = q + g bits: theta = 2 pi / w from `_pi` is within 8p + 81;
    its Taylor terms, floored one from the last, are each within e^theta <
    2^10, and at most 2p of them are nonzero, so zeta is within
    (p + 2) 2^12 =: delta.  The powers are floored products, and the k-th
    is within 2 k delta; g makes 2 w delta <= 2^(g-1), so rounding off g
    bits leaves each entry within 1/2 + 1/2.
    """
    g = 64 + w.bit_length() + (2 * q + 256).bit_length()
    p = q + g
    theta = 2 * _pi(p) // w
    c = s = 0
    term, k = 1 << p, 0  # (i theta)^k / k!
    while term:
        if k & 1:
            s += -term if k & 2 else term
        else:
            c += -term if k & 2 else term
        k += 1
        term = (term * theta >> p) // k
    # zeta^k for k <= w/2 by floored products, three multiplications each;
    # then Im zeta^(w-k) = -Im zeta^k, and zeta^w = 1
    half = 1 << (g - 1)
    im = []
    x, y = c, s
    for _ in range(w // 2):
        im.append((y + half) >> g)
        t = c * (x + y)
        x, y = (t - y * (c + s)) >> p, (t + x * (s - c)) >> p
    rest = w - 1 - w // 2
    return tuple(im + [-v for v in im[:rest][::-1]] + [0])


def signs(approx: np.ndarray, sigma: int, w: int, rows) -> np.ndarray:
    """Certified NEG/ZERO/POS of Im sum x_i zeta^(i+1), as int8, for a block
    of words of w digits below sigma: their doubles `approx`, shape (m,), and
    `rows(k)`, the (len(k), w) digit rows, any integer dtype, of entries k.

    A double outside `guard` keeps its sign.  The band inside it is spelled
    _ROWS rows at a time, each block widened to int64 and summed once against
    the `_roots` table at the precision the norm bound asks for (see the
    module docstring).  So every sign of the block is decided here.
    """
    th = guard(sigma, w)
    band = np.flatnonzero((-th <= approx) & (approx <= th))
    out = np.empty(np.shape(approx), dtype=np.int8)
    np.sign(approx, out=out, casting="unsafe")
    for i in range(0, band.size, _ROWS):
        k = band[i : i + _ROWS]
        d = np.asarray(rows(k)).astype(np.int64)
        err = max(-int(d.min()), int(d.max()), 1) * w  # |S - 2^q Im P| <= err
        q = 1 + _totient(w) * (2 * err).bit_length()
        check_budget(2 * w * q, 1, what="sign table")
        # 32-bit limbs, the top one signed, in int64: products and carries
        # stay below 2^62 while err < 2^29.  The callers' digits are 0 and 1,
        # or below a sigma whose sine tables already hold sigma^2 entries
        assert err.bit_length() <= 29
        n = (q + 33) // 32
        raw = b"".join(t.to_bytes(4 * n, "little", signed=True) for t in _roots(w, q))
        limbs = np.frombuffer(raw, dtype="<u4").reshape(w, n).astype(np.int64)
        limbs[:, -1] -= (limbs[:, -1] >> 31) << 32
        acc = d @ limbs
        # acc becomes S + err with every limb but the top one in [0, 2^32)
        acc[:, 0] += err
        for j in range(acc.shape[1] - 1):
            carry = acc[:, j] >> 32
            acc[:, j] -= carry << 32
            acc[:, j + 1] += carry
        neg = acc[:, -1] < 0
        zero = ~neg & (acc[:, 1:] == 0).all(axis=1) & (acc[:, 0] <= 2 * err)
        out[k] = np.where(neg, NEG, np.where(zero, ZERO, POS))
    return out
