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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import exactsign
from .core import (
    DEFAULT_NODE_BUDGET,
    check_alphabet,
    check_budget,
    necklace_count,
    rotation_code,
)
from .exactsign import POS, ZERO
from .kmerset import KmerSet, digit_rows

_BLOCK = 1 << 18  # codes per block of the bulk build


# -- the set -----------------------------------------------------------------


def _sin_tables(sigma: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_i x_i sin(2 pi (i+1) / w) over the leading ceil(w/2) symbols (hi)
    and over the trailing floor(w/2) symbols (lo), one value per half code."""
    h = w - w // 2
    t = np.sin(2 * np.pi * np.arange(1, w + 1) / w)
    hi = digit_rows(np.arange(sigma**h), sigma, h) @ t[:h]
    lo = digit_rows(np.arange(sigma ** (w - h)), sigma, w - h) @ t[h:]
    return hi, lo


def _member(im, im_rot):
    """The keep rule on certified signs of Im P(x) and Im P(R(x)), R the pure
    rotation: Im P(x) <= 0 < Im P(R(x)).

    Since P(R(x)) = r^-1 P(x), the rotation turns x clockwise on its class's
    circle, and the rule keeps the member just below the negative real axis
    or exactly on it.  There it is the paper's Re P(x) < 0: a real P(x) has
    Im P(R(x)) = -sin(2 pi / w) Re P(x), of the opposite sign for w >= 3.
    Classes at the origin, where both signs are 0, are decided apart.  Works
    elementwise on sign arrays.
    """
    return (im <= ZERO) & (im_rot == POS)


def _im_signs(sigma: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(im_sgn, zero): the certified int8 sign of Im P for every code, and the
    codes where it is 0.  Im P is summed in doubles from two half-word tables
    one block of whole hi rows (about _BLOCK codes) at a time into one reused
    buffer, so no float array spans more than a block, and `exactsign.signs`
    decides the block, spelling the digit rows of the codes it asks for."""
    im_hi, im_lo = _sin_tables(sigma, w)
    im_sgn = np.empty(im_hi.size * im_lo.size, dtype=np.int8)
    step = max(1, _BLOCK // im_lo.size)
    buf = np.empty((min(step, im_hi.size), im_lo.size))  # one block, reused
    zero = []
    for i in range(0, im_hi.size, step):
        hi = im_hi[i : i + step, None]
        im = np.add(hi, im_lo, out=buf[: hi.shape[0]]).ravel()
        first = i * im_lo.size  # code of the block's first entry
        s = im_sgn[first : first + im.size]
        s[:] = exactsign.signs(im, sigma, w, lambda k: digit_rows(first + k, sigma, w))
        zero.append(first + np.flatnonzero(s == ZERO))
    return im_sgn, np.concatenate(zero)


def build_mykkeltveit_set(
    sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET
) -> KmerSet:
    """One w-mer per conjugacy class, chosen by where P lands:

    classes with P = 0 contribute their lexicographically least member;
    otherwise the member exactly on the negative real axis if one exists,
    else the unique member with Im(P(x)) < 0 and Im(P(R(x))) > 0.

    For w >= 3 both cases are the one rule Im P(x) <= 0 < Im P(R(x))
    (`_member`): on the axis, Re P(x) < 0 exactly when Im P(R(x)) > 0.  So
    only Im P is signed, by `_im_signs`; the rule runs block by block, and
    the origin codes, where Im P(x) = Im P(R(x)) = 0, keep their least
    rotation.  At w = 2, P(x) = x_1 - x_0 is an integer and R(x) has -P(x),
    so the set is x_1 <= x_0 (1 B/node).
    """
    check_alphabet(sigma)
    if w < 2:
        raise ValueError("need w >= 2")
    n = check_budget(sigma, w, budget, "decycling set construction")
    if w == 2:
        mask = np.tri(sigma, dtype=bool).reshape(n)
    else:
        im_sgn, z = _im_signs(sigma, w)
        # P(R(x)) for x = a.r (leading symbol a) is at code r.a, so over a
        # block of codes with one leading symbol the rotated signs are a
        # strided view
        m = n // sigma
        mask = np.empty(n, dtype=bool)
        for a in range(sigma):
            for j in range(0, m, _BLOCK):
                k = min(j + _BLOCK, m)
                x = slice(a * m + j, a * m + k)
                mask[x] = _member(im_sgn[x], im_sgn[j * sigma + a : k * sigma : sigma])
        # classes embedded at the origin (the all-zero word's among them)
        # keep their least rotation
        c = origin = z[im_sgn[rotation_code(z, sigma, w)] == ZERO]
        canon = origin.copy()
        for _ in range(w - 1):
            c = rotation_code(c, sigma, w)
            np.minimum(canon, c, out=canon)
        mask[origin] = canon == origin

    kset = KmerSet(sigma, w, mask)
    if kset.cardinality != necklace_count(sigma, w):
        raise AssertionError(
            f"sign classification bug: {kset.cardinality} members for "
            f"{necklace_count(sigma, w)} classes"
        )
    return kset


# -- long avoiding path ------------------------------------------------------


@dataclass(frozen=True)
class LongPath:
    """The ring program's walk: its vertices, the (n, w) uint8 windows of one
    array; P of each as complex128, every Im certified > 0; its quadruples."""

    vertices: np.ndarray
    embeddings: np.ndarray
    quadruples: list[tuple[int, ...]]


def _run_ring(w: int, zero_tags: list[int], quads: list[tuple[int, ...]]) -> np.ndarray:
    """The ring program's walk as uint8 symbols; its w-windows are its vertices.
    The ring is a circular tape, all ones but for zeros at `zero_tags`.  A
    rotate appends the symbol under the pointer and moves it on; a write
    stores 0 at the tag and appends 0.  The tape read at 0 sits on the
    negative real axis, inside the set, so the walk starts one rotation on."""
    tape = np.ones(w, dtype=np.uint8)
    tape[zero_tags] = 0
    walk, pointer, zero = [np.roll(tape, -1)], 1, np.zeros(1, dtype=np.uint8)
    for quad in quads:
        for tag in quad:
            turn = np.arange(pointer, pointer + ((tag - pointer) % w or w))
            walk += [tape.take(turn, mode="wrap"), zero]
            tape[tag] = 0
            pointer = (tag + 1) % w
    return np.concatenate(walk)


def _quadruples(w: int) -> Iterator[tuple[int, ...]]:
    """The ring program's quadruples at w, made one at a time; its tape
    starts all ones but for a zero at b = w - 1."""
    m, b = w // 2, w - 1
    if w % 2 == 0:
        if w < 16:
            raise ValueError("even construction needs w >= 16")
        for j in range(1, -(-w // 8) + 1):
            yield (m - 1 - j) % w, (m - 1 + j) % w, (b - j) % w, (b + j) % w
        return
    # Tags a0, a1 carry the two roots of unity flanking -1; b carries +1.
    # Starting from all ones with a single zero at b puts the absolute
    # embedding exactly at -1, and the imperfect quadruples keep it on the
    # real axis near -1 round after round.
    a0, a1 = m - 1, m
    j0, j_hi = max(2, -(-w // 20)), w // 10
    if j0 > j_hi:
        raise ValueError(f"w={w} too small: quadruple range [{j0}, {j_hi}] is empty")
    l = -1.0
    for j in range(j0, j_hi + 1, 2):
        quad = (a0 - j + 1, a1 + j - 1, b - j, b + j) if l < -1 else (a0 - j, a1 + j, b - j, b + j)
        v = sum(cmath.exp(2j * math.pi * ((t % w) + 1) / w) for t in quad)
        assert abs(v.imag) < 1e-9  # candidate quadruples are built to cancel on Im
        l -= v.real
        yield tuple(t % w for t in quad)


def build_long_path(sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET) -> LongPath:
    """Explicit path avoiding the decycling set, about w^2/8 vertices long
    for even w and about w^2/40 for odd w.

    Follows the ring program (`_run_ring`).  The walk is one uint8 array and
    the vertices are its (n, w) sliding-window view, so every step is a de
    Bruijn edge; their doubles are one complex128 array, and one
    `exactsign.signs` call certifies Im(P) > 0 for all of them, which keeps
    them out of the set (the keep rule `_member` never holds there).  The
    steps are counted against the budget as each quadruple is made.  The
    peak is about 60 bytes per vertex at sigma = 2, w = 401 and 1001; the
    CLI at w = 2001 (100,249 vertices) takes about 1.4 s and 46 MB.
    """
    check_alphabet(sigma)
    # a tag costs its write and the rotations from the pointer, one past the last tag
    quads, steps, last = [], 0, 0
    for quad in _quadruples(w):
        for t in quad:
            steps += ((t - last - 1) % w or w) + 1
            last = t
        check_budget(1 + steps, 1, budget, "long path")
        quads.append(quad)
    walk = _run_ring(w, [w - 1], quads)
    vertices = np.lib.stride_tricks.sliding_window_view(walk, w)
    # P in doubles, one window column at a time: column i is walk[i : i + n],
    # and each of its nonzero symbols, all 1, adds r^(i+1), so every window
    # sums x r^(i+1) over its nonzero symbols x in order
    n = len(vertices)
    ps = np.zeros(n, dtype=np.complex128)
    for i in range(w):
        np.add(ps, cmath.exp(2j * math.pi * (i + 1) / w), out=ps, where=walk[i : i + n] != 0)
    # A revisit can only come from a bug (AssertionError); Im(P) <= 0 means
    # the program does not work at this w.
    if _revisits(vertices, ps):
        raise AssertionError("constructed walk revisits a vertex")
    bad = np.flatnonzero(exactsign.signs(ps.imag, sigma, w, vertices.__getitem__) != POS)
    if bad.size:
        raise ValueError(f"vertex at step {bad[0]} has Im(P) <= 0")
    return LongPath(vertices, ps, quads)


def _revisits(vertices: np.ndarray, ps: np.ndarray) -> bool:
    """Whether two rows of `vertices` are equal.  Equal rows have bit-equal
    doubles `ps`, so in the order of the doubles each row is compared with
    the d-th next while they tie, d = 1, 2, ..., about 4 MiB of rows at a time."""
    order = np.argsort(ps)
    group = np.cumsum(np.r_[True, ps[order[1:]] != ps[order[:-1]]])
    step = max(1, (1 << 22) // vertices.shape[1])
    for d in range(1, ps.size):
        pairs = np.flatnonzero(group[d:] == group[:-d])
        if not pairs.size:
            break
        for k in np.split(pairs, range(step, pairs.size, step)):
            if (vertices[order[k]] == vertices[order[k + d]]).all(axis=1).any():
                return True
    return False
