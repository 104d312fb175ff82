"""Complex-embedding decycling sets and an explicit long avoiding path.

Each w-mer x maps to P(x) = sum_i x_i r^(i+1) with r = e^(2 pi i / w).
A pure rotation multiplies P by r^-1, so a conjugacy class traces a circle
around the origin, and picking the member of every class sitting just
below (or exactly on) the negative real axis yields a set that meets every
cycle of the order-w de Bruijn graph, with exactly one member per class.

The long-path construction drives a shift-register ring through pseudo-
loops: quadruples of tag positions whose roots of unity cancel, so writing
zeros at those tags returns the embedding to (nearly) its starting point
while the walk gains about w vertices per round, all with Im(P) > 0 and
hence outside the set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import exactsign
from .core import (
    DEFAULT_NODE_BUDGET,
    Kmer,
    canonical_rotation_code,
    check_budget,
    necklace_count,
    rotation_code,
)
from .exactsign import FLOAT_GUARD, NEG, POS, ZERO
from .kmerset import KmerSet

#: scaled guard band below which double signs are not trusted
def _theta(sigma: int, w: int) -> float:
    return FLOAT_GUARD * (sigma - 1) * w


@dataclass(frozen=True)
class ComplexPoint:
    re: float
    im: float
    im_sign: int  # NEG/ZERO/POS, certified

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


def weight(x: Kmer) -> int:
    """Digit sum W(x), between 0 and (sigma-1) * w."""
    return sum(x.symbols())


def _raw_embedding(symbols, w: int) -> complex:
    return sum(
        x * cmath.exp(2j * math.pi * (i + 1) / w) for i, x in enumerate(symbols) if x
    )


def embedding(x: Kmer) -> ComplexPoint:
    """P(x) = sum x_i r^(i+1), with a certified sign for the imaginary part."""
    syms = x.symbols()
    p = _raw_embedding(syms, x.w)
    s = exactsign.im_sign(syms, p.imag, x.sigma)
    return ComplexPoint(p.real, p.imag, s)


def im_sign(x: Kmer) -> int:
    """Certified sign of Im(P(x))."""
    syms = x.symbols()
    return exactsign.im_sign(syms, _raw_embedding(syms, x.w).imag, x.sigma)


def weight_in_embedding(x: Kmer) -> complex:
    """Q(x) = P(x) - W(x); rotations spin Q around (-W, 0) instead of the origin."""
    return complex(embedding(x)) - weight(x)


def rotation_identity_check(x: Kmer, a: int, eps: float = 1e-9) -> bool:
    """|P(S_a(x)) - (r^-1 P(x) + (a - x_0))| <= eps."""
    from .core import successor

    r_inv = cmath.exp(-2j * math.pi / x.w)
    lhs = complex(embedding(successor(x, a)))
    x0 = x.code // x.sigma ** (x.w - 1)
    rhs = r_inv * complex(embedding(x)) + (a - x0)
    return abs(lhs - rhs) <= eps


# -- the set -----------------------------------------------------------------


def _certify_borderline(sgn, vals, borderline, sigma, w, part_sign):
    codes = np.flatnonzero(borderline)
    for c in codes:
        syms = Kmer(int(c), sigma, w).symbols()
        sgn[c] = part_sign(syms, float(vals[c]), sigma)


def _member(im, im_rot, re, least):
    """The keep rule on certified signs of P(x) and P(R(x)), R the pure rotation.

    Since P(R(x)) = r^-1 P(x), these signs place x on its class's circle:
    keep x just below the negative real axis (Im P(x) < 0 < Im P(R(x))),
    exactly on it, or, when the class sits at the origin, if x is its least
    rotation.  Works elementwise on sign arrays; `least` is only consulted
    where P(x) = 0.
    """
    on_axis = im == ZERO
    return ((im == NEG) & (im_rot == POS)) | (on_axis & (re == NEG)) | (
        on_axis & (re == ZERO) & least
    )


def build_mykkeltveit_set(
    sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET
) -> KmerSet:
    """One w-mer per conjugacy class, chosen by where P lands:

    classes with P = 0 contribute their lexicographically least member;
    otherwise the member exactly on the negative real axis if one exists,
    else the unique member with Im(P(x)) < 0 and Im(P(R(x))) > 0.
    """
    if w < 2:
        raise ValueError("need w >= 2")
    n = sigma**w
    check_budget(n, budget, "decycling set construction")
    codes = np.arange(n, dtype=np.int64)
    im = np.zeros(n)
    re = np.zeros(n)
    for i in range(w):
        digit = (codes // sigma ** (w - 1 - i)) % sigma
        ang = 2 * math.pi * (i + 1) / w
        im += digit * math.sin(ang)
        re += digit * math.cos(ang)
    th = _theta(sigma, w)

    im_sgn = np.sign(im).astype(np.int8)
    _certify_borderline(im_sgn, im, np.abs(im) <= th, sigma, w, exactsign.im_sign)
    re_sgn = np.sign(re).astype(np.int8)
    near = (np.abs(re) <= th) & (im_sgn == 0)  # Re sign only matters when Im = 0
    _certify_borderline(re_sgn, re, near, sigma, w, exactsign.re_sign)

    rot = (codes * sigma + codes // (n // sigma)) % n
    # classes embedded at the origin (the all-zero word's among them) keep
    # their least rotation
    least = (im_sgn == ZERO) & (re_sgn == ZERO)
    c = origin = np.flatnonzero(least)
    canon = origin.copy()
    for _ in range(w - 1):
        c = (c * sigma + c // (n // sigma)) % n
        np.minimum(canon, c, out=canon)
    least[origin] = canon == origin
    mask = _member(im_sgn, im_sgn[rot], re_sgn, least)

    kset = KmerSet(sigma, w, mask)
    if kset.cardinality != necklace_count(sigma, w):
        raise AssertionError(
            f"sign classification bug: {kset.cardinality} members for "
            f"{necklace_count(sigma, w)} classes"
        )
    return kset


def in_mykkeltveit(x: Kmer) -> bool:
    """Set membership from the certified signs of P(x) and P(R(x)), no bitmap.

    Two embeddings per query; the least rotation of x's class is computed
    only when P(x) = 0.
    """
    pt = embedding(x)
    rot = Kmer(rotation_code(x.code, x.sigma, x.w), x.sigma, x.w)
    if pt.im_sign == ZERO:
        re = exactsign.re_sign(x.symbols(), pt.re, x.sigma)
    else:  # the rule ignores Re off the real axis
        re = NEG if pt.re < 0 else POS
    least = re == ZERO and canonical_rotation_code(x.code, x.sigma, x.w) == x.code
    return bool(_member(pt.im_sign, im_sign(rot), re, least))


# -- long avoiding path ------------------------------------------------------


@dataclass
class RingState:
    """Shift-register view of a w-mer: circular tape plus a pointer tag."""

    sigma: int
    tape: list[int]
    pointer: int = 0

    @property
    def w(self) -> int:
        return len(self.tape)

    def code(self) -> int:
        c = 0
        for i in range(self.w):
            c = c * self.sigma + self.tape[(self.pointer + i) % self.w]
        return c

    def rotate(self) -> None:
        self.pointer = (self.pointer + 1) % self.w

    def write_advance(self, a: int) -> None:
        self.tape[self.pointer] = a
        self.pointer = (self.pointer + 1) % self.w


@dataclass(frozen=True)
class LongPath:
    sigma: int
    w: int
    vertices: list[Kmer]
    embeddings: list[ComplexPoint]
    quadruples: list[tuple[int, ...]]
    rounds: list[int] = field(default_factory=list)  # start index per quadruple


def _run_ring(sigma: int, w: int, zero_tags: list[int], quads: list[tuple[int, ...]]):
    ring = RingState(sigma, [1] * w)
    for t in zero_tags:
        ring.tape[t] = 0
    trace: list[int] = []
    rounds: list[int] = []
    ring.rotate()  # the initial vertex sits on the negative real axis, inside the set
    trace.append(ring.code())
    for quad in quads:
        rounds.append(len(trace) - 1)
        for tag in quad:
            steps = (tag - ring.pointer) % w or w
            for _ in range(steps):
                ring.rotate()
                trace.append(ring.code())
            ring.write_advance(0)
            trace.append(ring.code())
    return trace, rounds


def _even_quadruples(w: int) -> list[tuple[int, ...]]:
    m = w // 2
    a, b = m - 1, w - 1
    q = -(-w // 8)
    return [((a - j) % w, (a + j) % w, (b - j) % w, (b + j) % w) for j in range(1, q + 1)]


def _odd_quadruples(w: int) -> tuple[list[int], list[tuple[int, ...]]]:
    # Tags a0, a1 carry the two roots of unity flanking -1; b carries +1.
    # Starting from all ones with a single zero at b puts the absolute
    # embedding exactly at -1, and the imperfect quadruples keep it on the
    # real axis near -1 round after round.
    m = w // 2
    a0, a1, b = m - 1, m, w - 1
    j0 = max(2, -(-w // 20))
    j_hi = w // 10
    if j0 > j_hi:
        raise ValueError(f"w={w} too small: quadruple range [{j0}, {j_hi}] is empty")

    def tag_sum(tags) -> float:
        v = sum(cmath.exp(2j * math.pi * ((t % w) + 1) / w) for t in tags)
        assert abs(v.imag) < 1e-9  # candidate quadruples are built to cancel on Im
        return v.real

    quads = []
    l = -1.0
    for j in range(j0, j_hi + 1, 2):
        plus = (a0 - j, a1 + j, b - j, b + j)
        minus = (a0 - j + 1, a1 + j - 1, b - j, b + j)
        quad = minus if l < -1 else plus
        l -= tag_sum(quad)
        quads.append(tuple(t % w for t in quad))
    return [b], quads


def build_long_path(sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET) -> LongPath:
    """Explicit path avoiding the decycling set, about w^2/8 vertices long.

    Follows the ring program: start from all ones with designated zero tags,
    one pure rotation, then per quadruple rotate to each tag and write a
    zero.  Every visited vertex is validated: edges legal, Im(P) > 0
    certified, and not a member of the set.
    """
    if w % 2 == 0:
        if w < 16:
            raise ValueError("even construction needs w >= 16")
        zero_tags, quads = [w - 1], _even_quadruples(w)
    else:
        zero_tags, quads = _odd_quadruples(w)
    trace, rounds = _run_ring(sigma, w, zero_tags, quads)

    # Revisits, illegal edges and set members can only come from a bug
    # (AssertionError); Im(P) <= 0 means the program does not work at this w.
    n = sigma**w
    if len(set(trace)) != len(trace):
        raise AssertionError("constructed walk revisits a vertex")
    vertices = [Kmer(c, sigma, w) for c in trace]
    embeddings = []
    for step, (u, v) in enumerate(zip(trace, trace[1:])):
        if not (u * sigma) % n <= v < (u * sigma) % n + sigma:
            raise AssertionError(f"illegal edge at step {step}")
    for step, x in enumerate(vertices):
        pt = embedding(x)
        if pt.im_sign != POS:
            raise ValueError(f"vertex at step {step} has Im(P) <= 0")
        if in_mykkeltveit(x):
            raise AssertionError(f"vertex at step {step} lies in the decycling set")
        embeddings.append(pt)
    return LongPath(sigma, w, vertices, embeddings, quads, rounds)
