"""Hitting sets built from a forbidden zero run, plus their survival FSM.

For d = floor(log_sigma(w / ln w)) - 1 >= 1, take every w-mer that starts
with 0^d together with every w-mer containing no 0^d run at all.  Removing
this set from the order-w de Bruijn graph kills all cycles (any long walk
either avoids 0^d forever or eventually starts a window with one) and the
longest remaining path has exactly w - d vertices.

The relative size of the run-avoiding part is the survival probability of a
small Markov chain: state i = current zero-run length, absorbing death at
run d.  Its transition matrix A_d has a closed-form characteristic
polynomial and a dominant eigenvalue bracketed in (lo, hi) =
(1 - mu^d, 1 - mu^(d+1)), mu = 1/sigma.  The bracket is proved, not
computed: with g(lam) = lam^d (lam - 1) + mu^d (1 - mu), the characteristic
polynomial times (lam - mu),
    g(hi) = mu^d [(1 - mu) - mu hi^d] > mu^d (1 - 2 mu) >= 0, and
    g(lo) = mu^d [(1 - mu) - lo^d],
which is 0 at d = 1 (the root is lo itself).  For d >= 2 the strict
Bernoulli inequality lo^d > 1 - d mu^d gives
g(lo) < mu^(d+1) (d mu^(d-1) - 1) <= 0, as d <= 2^(d-1) <= sigma^(d-1).

Neither keeps a whole table beside its output: the run-free mask is struck
through reshaped views of itself (one byte per w-mer and one sigma^(w/2)
row), and the chain's matrix is made one row at a time.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .core import (
    DEFAULT_NODE_BUDGET,
    check_alphabet,
    check_budget,
    kmer_encode,
)

# The set builders import numpy and KmerSet themselves, so the survival FSM
# (the fsm subcommand) runs without numpy.
if TYPE_CHECKING:
    import numpy as np

    from .kmerset import KmerSet


def forbidden_d(sigma: int, w: int) -> int:
    """floor(log_sigma(w / ln w)) - 1, computed away from float rounding:
    sigma^t is compared exactly with x = w / ln w, ln w a double, for w of any
    size, counting t up from 0 (x > 1 for every w >= 2)."""
    check_alphabet(sigma)
    if w < 2:
        raise ValueError("need w >= 2")
    x = Fraction(w) / Fraction(math.log(w))
    t = 0
    while sigma ** (t + 1) <= x:
        t += 1
    return t - 1


def min_w_for_construction(sigma: int) -> int:
    """Smallest w with forbidden_d >= 1, by doubling and then bisection."""
    lo, hi = 3, 4  # the test fails at both, and w / ln w grows from w = 3 on
    while forbidden_d(sigma, hi) < 1:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if forbidden_d(sigma, mid) < 1 else (lo, mid)
    return hi


def _run_free(sigma: int, w: int, d: int) -> np.ndarray:
    """Bool per w-mer code: no run of d zeros.

    A code has a 0^d run starting at digit i exactly when its middle index
    in the (sigma^i, sigma^d, sigma^(w-i-d)) view of the mask is 0, so each
    start is struck by one write.  The starts at i >= h = ceil(w/2) lie in
    the trailing floor(w/2) digits: they are struck once in a row `lo` of
    sigma^(w//2) codes, copied into each of the sigma^h rows of the mask.
    The starts at i < h are then struck in the whole mask, each struck run
    a contiguous chunk of at least sigma^(w//2 - d + 1) codes.
    """
    import numpy as np

    def strike(mask, starts):
        for i in starts:
            mask.reshape(sigma**i, sigma**d, -1)[:, 0] = False

    h = w - w // 2
    lo = np.ones(sigma ** (w // 2), dtype=bool)
    strike(lo, range(w // 2 - d + 1))
    free = np.empty((sigma**h, lo.size), dtype=bool)
    free[:] = lo
    strike(free.reshape(-1), range(min(h, w - d + 1)))
    return free.reshape(-1)


def build_forbidden_set(sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET) -> KmerSet:
    """w-mers starting with 0^d, plus w-mers with no 0^d run (disjoint union)."""
    from .kmerset import KmerSet

    d = forbidden_d(sigma, w)
    if d < 1:
        raise ValueError(
            f"construction needs d >= 1; sigma={sigma} requires w >= {min_w_for_construction(sigma)}"
        )
    check_budget(sigma, w, budget, "forbidden-run set")
    mask = _run_free(sigma, w, d)
    mask[: sigma ** (w - d)] = True  # first d symbols all zero
    return KmerSet(sigma, w, mask)


def remaining_path_witness(sigma: int, w: int) -> list[int]:
    """A path of w - d vertices outside the set, read off 1^(w-d) 0^d 1^(w-d-1).

    Every window of that string contains a 0^d run but never as a prefix,
    so all w - d windows survive.
    """
    d = forbidden_d(sigma, w)
    if d < 1:
        raise ValueError("construction needs d >= 1")
    s = [1] * (w - d) + [0] * d + [1] * (w - d - 1)
    return [kmer_encode(s[i : i + w], sigma) for i in range(w - d)]


# -- survival FSM ------------------------------------------------------------


def _check_chain(sigma: int, d: int) -> None:
    """The chain's shape, checked first by each function of it."""
    check_alphabet(sigma)
    if d < 1:
        raise ValueError("need d >= 1")


def fsm_matrix(sigma: int, d: int) -> Iterator[tuple[Fraction, ...]]:
    """Rows of the zero-run chain's d x d transition matrix A_d, exact, made
    one at a time: first row all 1 - mu (run resets), subdiagonal mu (run
    grows), one shared zero elsewhere.  sigma, d and the d^2 entries (against
    the default budget) are checked when it is called, before any row."""
    _check_chain(sigma, d)
    check_budget(d, 2, what="fsm matrix")
    mu, zero = Fraction(1, sigma), Fraction(0)
    first = (1 - mu,) * d
    return (first if i == 0 else (zero,) * (i - 1) + (mu,) + (zero,) * (d - i) for i in range(d))


def survival_probability(sigma: int, d: int, w: int) -> Fraction:
    """Exact probability that a uniform w-string contains no 0^d run.

    The chain's steps in integers: runs[i] is the number of strings so far
    with no 0^d run that end in a zero run of length i, and total their sum;
    a nonzero symbol (sigma - 1 ways) resets any run, and a zero lengthens
    it, which drops the strings ending in d - 1 zeros.  A run longer than w
    never occurs, so at most w + 1 lengths are kept.  The w steps add
    integers of up to w log2(sigma) bits, and their 64-bit words are
    checked against the default budget before the first step.
    """
    if w < 0:
        raise ValueError("need w >= 0")
    _check_chain(sigma, d)
    check_budget(w * (w * sigma.bit_length() // 64 + 1), 1, what="survival recurrence")
    runs = deque([1] + [0] * (min(d, w + 1) - 1))
    total = 1
    for _ in range(w):
        fresh = (sigma - 1) * total
        total += fresh - runs.pop()
        runs.appendleft(fresh)
    return Fraction(total, sigma**w)


#: Width at which `dominant_root` stops bisecting.
ROOT_TOL = Fraction(1, 10**12)


def _g_sign(sigma: int, d: int, a: int, b: int) -> int:
    """Sign of g(a/b), b > 0, where g(lam) = lam^(d+1) - lam^d - mu^(d+1) + mu^d
    is the characteristic polynomial times (lam - mu): det(A_d - lam I) =
    (-1)^d g(lam) / (lam - mu) for lam != mu.  It is the sign of the integer
    g(a/b) (b sigma)^(d+1) = sigma^(d+1) a^d (a - b) + (sigma - 1) b^(d+1).
    Only `dominant_root`'s bisection calls it: the bracket's end signs are
    proved (see the module docstring)."""
    v = sigma ** (d + 1) * a**d * (a - b) + (sigma - 1) * b ** (d + 1)
    return (v > 0) - (v < 0)


def bracket_holds(sigma: int, d: int) -> bool:
    """Whether the characteristic polynomial changes sign on the open bracket
    (1 - mu^d, 1 - mu^(d+1)): exactly when d >= 2.  g is positive at the
    upper end for every sigma >= 2.  At the lower end it is 0 for d = 1 and,
    by Bernoulli's inequality, below mu^(d+1) (d mu^(d-1) - 1) <= 0 for
    d >= 2 (the module docstring has the proof)."""
    _check_chain(sigma, d)
    return d >= 2


def dominant_root(sigma: int, d: int) -> Fraction:
    """Dominant eigenvalue of A_d by exact bisection on its bracket, to ROOT_TOL.

    At d = 1 it is 1 - mu, the bracket's lower end, where g is 0.  For d >= 2
    the proved end signs g(lo) < 0 < g(hi) (see `bracket_holds`) start the
    bisection without evaluating g.  The ends stay integers over one
    denominator, sigma^(d+1) at first, which doubles at each halving; once
    the bracket is narrower than ROOT_TOL (d >= 39 at sigma = 2) its midpoint
    is the root.  No midpoint is a root of g: by the rational root theorem
    on sigma^(d+1) g, a rational root 0 < a/b < 1 has a | sigma - 1, so
    a/b <= a / (a + 1) <= 1 - mu <= lo.
    """
    _check_chain(sigma, d)
    if d == 1:
        return 1 - Fraction(1, sigma)
    den = sigma ** (d + 1)
    lo, hi = den - sigma, den - 1
    while (hi - lo) * ROOT_TOL.denominator > ROOT_TOL.numerator * den:
        mid, den = lo + hi, 2 * den
        lo, hi = (mid, 2 * hi) if _g_sign(sigma, d, mid, den) < 0 else (2 * lo, mid)
    return Fraction(lo + hi, 2 * den)


def eigenpair_residual(sigma: int, d: int, root: Fraction) -> float:
    """max_i |(A v)_i - root v_i| for the eigenvector v = (1, s, ..., s^(d-1)),
    s = mu / root = p / q.  Rows 1..d-1 are mu s^(i-1) - root s^i = 0 exactly,
    so the residual is row 0's, (1 - mu)(1 + s + ... + s^(d-1)) - root.  The
    sum is n / q^(d-1), n = p^(d-1) + p^(d-2) q + ... + q^(d-1) =
    (q^d - p^d) / (q - p) in integers (d q^(d-1) when p = q), and the
    residual is one correctly rounded quotient."""
    _check_chain(sigma, d)
    lam = Fraction(root)
    if lam == 0:
        raise ValueError("need a nonzero root")
    s = Fraction(1, sigma) / lam
    p, q = s.numerator, s.denominator
    qd = q ** (d - 1)
    n = d * qd if p == q else (qd * q - p**d) // (q - p)
    diff = (sigma - 1) * n * lam.denominator - sigma * qd * lam.numerator
    return abs(diff / (sigma * qd * lam.denominator))
