"""Selection functions (table, minimizer, set-compatible minimizer) and densities.

A scheme picks one position in every window of a string.  Window length is
always `w` positions; for minimizer kinds a position holds a k-mer, so a
window spans w + k - 1 symbols.  Particular density follows the convention
pinned by the worked minimizer example: the count of distinct selected
positions is divided by the number of k-mer positions (|s| - k + 1) for
minimizer kinds and by the number of windows (|s| - w + 1) for table
schemes; on a cyclic sequence both equal the sequence length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import DEFAULT_NODE_BUDGET, check_budget, parse_symbols
from .kmerset import KmerSet
from . import paths

TABLE = "TABLE"
MINIMIZER = "MINIMIZER"
COMPATIBLE = "COMPATIBLE"

PARTICULAR = "PARTICULAR"
EXPECTED_EXACT = "EXPECTED_EXACT"
EXPECTED_ESTIMATE = "EXPECTED_ESTIMATE"

#: Largest sigma^order for which expected density is computed exactly.
DEFAULT_EXACT_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class SelectionScheme:
    """A selection function f mapping each window to a position in [0, w-1]."""

    sigma: int
    w: int
    kind: str
    k: int = 1
    table: np.ndarray | None = None  # TABLE: f over all sigma^w window codes
    rank: np.ndarray | None = None  # minimizer kinds: total order on k-mer codes
    guarantee: bool | None = None  # COMPATIBLE: is_uhs(U, w) held? None = unverified

    @property
    def window_symbols(self) -> int:
        return self.w + self.k - 1

    def __repr__(self) -> str:
        return f"SelectionScheme({self.kind}, sigma={self.sigma}, w={self.w}, k={self.k})"


@dataclass(frozen=True)
class DensityResult:
    selected: int
    windows: int
    density: Fraction
    mode: str
    stderr: float | None = None


def table_scheme(sigma: int, w: int, table: Sequence[int]) -> SelectionScheme:
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != (sigma**w,):
        raise ValueError(f"table must have sigma**w = {sigma**w} entries")
    if arr.min() < 0 or arr.max() >= w:
        raise ValueError("table values must lie in [0, w-1]")
    return SelectionScheme(sigma, w, TABLE, table=arr)


def minimizer_scheme(sigma: int, k: int, w: int, rank: Sequence[int] | None = None) -> SelectionScheme:
    """Minimizer with window of w k-mers; rank=None means lexicographic order."""
    if rank is None:
        arr = np.arange(sigma**k, dtype=np.int64)
    else:
        arr = np.asarray(rank, dtype=np.int64)
        if arr.shape != (sigma**k,):
            raise ValueError(f"rank must cover all sigma**k = {sigma**k} k-mers")
        if sorted(arr.tolist()) != list(range(sigma**k)):
            raise ValueError("rank must be a permutation defining a total order")
    return SelectionScheme(sigma, w, MINIMIZER, k=k, rank=arr)


def lexicographic_minimizer(sigma: int, k: int, w: int) -> SelectionScheme:
    return minimizer_scheme(sigma, k, w)


def build_compatible_minimizer(
    U: KmerSet,
    window_positions: int,
    budget: int = DEFAULT_NODE_BUDGET,
    uhs_check_budget: int = 1 << 24,
) -> SelectionScheme:
    """Minimizer ranking members of U before all non-members, lexicographic within.

    The density-vs-size guarantee requires is_uhs(U, window_positions); that
    check runs when the graph fits the check budget and its outcome is
    recorded on the returned scheme (None when unverified).
    """
    if U.cardinality == 0:
        raise ValueError("compatible minimizer needs a nonempty set")
    if window_positions < 1:
        raise ValueError("window must have at least one position")
    n = U.n
    rank = np.where(U.mask, 0, n).astype(np.int64) + np.arange(n, dtype=np.int64)
    order = np.argsort(rank, kind="stable")
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)
    guarantee = None
    if n <= uhs_check_budget:
        guarantee = paths.is_uhs(U, window_positions, budget=uhs_check_budget)
    return SelectionScheme(
        U.sigma, window_positions, COMPATIBLE, k=U.w, rank=perm, guarantee=guarantee
    )


# -- evaluation ------------------------------------------------------------


def select(scheme: SelectionScheme, window: str | Sequence[int]) -> int:
    """Selected position for one window; minimizers pick the leftmost minimum k-mer."""
    syms = parse_symbols(window, scheme.sigma)
    if len(syms) != scheme.window_symbols:
        raise ValueError(
            f"window must have {scheme.window_symbols} symbols, got {len(syms)}"
        )
    sigma = scheme.sigma
    if scheme.kind == TABLE:
        code = 0
        for v in syms:
            code = code * sigma + v
        return int(scheme.table[code])
    kk = sigma**scheme.k
    code = 0
    for v in syms[: scheme.k]:
        code = code * sigma + v
    best_rank, best_pos = int(scheme.rank[code]), 0
    for i, v in enumerate(syms[scheme.k :], start=1):
        code = (code * sigma + v) % kk
        r = int(scheme.rank[code])
        if r < best_rank:
            best_rank, best_pos = r, i
    return best_pos


def scheme_values(scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """f over every possible window code (dense array of sigma^window_symbols)."""
    sigma = scheme.sigma
    ws = scheme.window_symbols
    m = sigma**ws
    check_budget(m, budget, "dense scheme table")
    if scheme.kind == TABLE:
        return scheme.table
    codes = np.arange(m, dtype=np.int64)
    kk = sigma**scheme.k
    best = None
    pos = np.zeros(m, dtype=np.int32)
    for i in range(scheme.w):
        kcode = (codes // sigma ** (ws - i - scheme.k)) % kk
        r = scheme.rank[kcode]
        if best is None:
            best = r.copy()
        else:
            upd = r < best  # strict: leftmost minimum wins ties
            best[upd] = r[upd]
            pos[upd] = i
    return pos


def is_forward(scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exhaustive forwardness check over all (window_symbols+1)-symbol strings."""
    sigma = scheme.sigma
    ws = scheme.window_symbols
    check_budget(sigma ** (ws + 1), budget, "forwardness check")
    fv = scheme_values(scheme, budget=budget)
    c = np.arange(sigma ** (ws + 1), dtype=np.int64)
    w1 = c // sigma
    w2 = c % sigma**ws
    return bool(np.all(fv[w2] >= fv[w1] - 1))


def _window_positions_denominator(scheme: SelectionScheme, length: int, cyclic: bool) -> int:
    if cyclic:
        return length
    if scheme.kind == TABLE:
        return length - scheme.window_symbols + 1
    return length - scheme.k + 1


def _selected_positions(scheme: SelectionScheme, syms: Sequence[int], cyclic: bool) -> set[int]:
    sigma = scheme.sigma
    ws = scheme.window_symbols
    length = len(syms)
    if cyclic:
        work = list(syms) + list(syms[: ws - 1])
        nwin = length
    else:
        work = list(syms)
        nwin = length - ws + 1
    selected: set[int] = set()
    if scheme.kind == TABLE:
        m = sigma**ws
        code = 0
        for v in work[:ws]:
            code = code * sigma + v
        selected.add(int(scheme.table[code]))
        for i in range(1, nwin):
            code = (code * sigma + work[ws + i - 1]) % m
            p = i + int(scheme.table[code])
            selected.add(p % length if cyclic else p)
        return selected
    # minimizer kinds: rolling k-mer ranks with a monotonic deque
    kk = sigma**scheme.k
    rank = scheme.rank
    code = 0
    for v in work[: scheme.k - 1]:
        code = code * sigma + v
    dq: deque[tuple[int, int]] = deque()  # (rank, k-mer position), increasing rank
    npos = len(work) - scheme.k + 1
    for j in range(npos):
        code = (code * sigma + work[j + scheme.k - 1]) % kk
        r = int(rank[code])
        while dq and dq[-1][0] > r:
            dq.pop()
        dq.append((r, j))
        i = j - scheme.w + 1  # window index whose last k-mer position is j
        if i >= 0:
            while dq[0][1] < i:
                dq.popleft()
            p = dq[0][1]
            selected.add(p % length if cyclic else p)
    return selected


def particular_density(
    scheme: SelectionScheme, s: str | Sequence[int], cyclic: bool = False
) -> DensityResult:
    """Distinct selected positions over the position count of s."""
    syms = parse_symbols(s, scheme.sigma)
    if len(syms) < scheme.window_symbols:
        raise ValueError(
            f"string of length {len(syms)} is shorter than a window "
            f"({scheme.window_symbols} symbols)"
        )
    selected = _selected_positions(scheme, syms, cyclic)
    denom = _window_positions_denominator(scheme, len(syms), cyclic)
    return DensityResult(len(selected), denom, Fraction(len(selected), denom), PARTICULAR)


def expected_density(
    scheme: SelectionScheme,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    sample_symbols: int = 10**7,
    seed: int = 0,
    budget: int = DEFAULT_NODE_BUDGET,
) -> DensityResult:
    """Exact density as the relative size of the scheme's context set.

    Minimizer kinds select forward, so their contexts have w + k symbols;
    tables may not, and use the local contexts of 2w - 1 symbols.  By the
    context theorem |C| / sigma^|context| is the density on the cyclic
    de Bruijn sequence of that order, and `selected` / `windows` are its
    counts.  Falls back to a seeded random-sequence estimate with a reported
    standard error when sigma^|context| exceeds `exact_budget`; `budget`
    is passed to the context-set builder.
    """
    from .contexts import (
        build_context_set_forward,
        build_context_set_local,
        forward_context_symbols,
        local_context_symbols,
    )

    if scheme.kind == TABLE:
        order, build = local_context_symbols(scheme), build_context_set_local
    else:
        order, build = forward_context_symbols(scheme), build_context_set_forward
    windows = scheme.sigma**order
    if windows <= exact_budget:
        selected = build(scheme, budget=budget).kset.cardinality
        return DensityResult(selected, windows, Fraction(selected, windows), EXPECTED_EXACT)
    return estimate_density(scheme, sample_symbols=sample_symbols, seed=seed)


def estimate_density(
    scheme: SelectionScheme, sample_symbols: int = 10**7, seed: int = 0
) -> DensityResult:
    """Density on a seeded uniform random string, with binomial standard error."""
    sigma = scheme.sigma
    rng = np.random.default_rng(seed)
    s = rng.integers(0, sigma, size=sample_symbols, dtype=np.int64)
    ws = scheme.window_symbols
    if scheme.kind == TABLE:
        m = sigma**ws
        codes = np.zeros(sample_symbols - ws + 1, dtype=np.int64)
        for j in range(ws):
            codes = codes * sigma + s[j : j + codes.size]
        sel = np.arange(codes.size) + scheme.table[codes]
        count = int(np.unique(sel).size)
    else:
        kk = sigma**scheme.k
        npos = sample_symbols - scheme.k + 1
        codes = np.zeros(npos, dtype=np.int64)
        for j in range(scheme.k):
            codes = codes * sigma + s[j : j + npos]
        ranks = scheme.rank[codes].astype(np.int64)
        count = 0
        prev = -1
        chunk = 1 << 20
        view_len = scheme.w
        for start in range(0, npos - view_len + 1, chunk):
            stop = min(start + chunk, npos - view_len + 1)
            windows = np.lib.stride_tricks.sliding_window_view(
                ranks[start : stop + view_len - 1], view_len
            )
            sel = start + np.arange(stop - start) + np.argmin(windows, axis=1)
            # forward scheme: selected positions are non-decreasing
            count += int(np.count_nonzero(np.diff(sel)))
            if sel.size:
                if sel[0] != prev:
                    count += 1
                prev = int(sel[-1])
    denom = _window_positions_denominator(scheme, sample_symbols, cyclic=False)
    p = count / denom
    stderr = float(np.sqrt(p * (1.0 - p) / denom))
    return DensityResult(count, denom, Fraction(count, denom), EXPECTED_ESTIMATE, stderr)


# -- file formats ------------------------------------------------------------


def save_scheme_table(scheme: SelectionScheme, path: str, budget: int = DEFAULT_NODE_BUDGET) -> None:
    from .core import Kmer

    fv = scheme_values(scheme, budget=budget)
    ws = scheme.window_symbols
    with open(path, "w") as fh:
        fh.write(f"scheme sigma={scheme.sigma} w={ws}\n")
        for code, p in enumerate(fv):
            fh.write(f"{Kmer(code, scheme.sigma, ws).text()} {int(p)}\n")


def load_scheme_table(path: str, budget: int = DEFAULT_NODE_BUDGET) -> SelectionScheme:
    from .core import kmer_encode

    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "scheme":
            raise ValueError(f"bad scheme file header in {path}")
        sigma = int(header[1].removeprefix("sigma="))
        w = int(header[2].removeprefix("w="))
        check_budget(sigma**w, budget, "scheme table")
        table = np.full(sigma**w, -1, dtype=np.int64)
        for line in fh:
            if not line.strip():
                continue
            km, p = line.split()
            table[kmer_encode(km, sigma).code] = int(p)
    if (table < 0).any():
        raise ValueError(f"scheme file {path} does not cover all windows")
    return table_scheme(sigma, w, table)


def save_minimizer_order(scheme: SelectionScheme, path: str) -> None:
    from .core import Kmer

    if scheme.rank is None:
        raise ValueError("scheme has no k-mer order")
    order = np.argsort(scheme.rank, kind="stable")
    with open(path, "w") as fh:
        for code in order:
            fh.write(Kmer(int(code), scheme.sigma, scheme.k).text())
            fh.write("\n")


def load_minimizer_order(path: str, sigma: int, w: int) -> SelectionScheme:
    from .core import kmer_encode

    kmers = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                kmers.append(line)
    if not kmers:
        raise ValueError(f"empty order file {path}")
    k = len(kmers[0])
    rank = np.full(sigma**k, -1, dtype=np.int64)
    for i, t in enumerate(kmers):
        rank[kmer_encode(t, sigma).code] = i
    if (rank < 0).any():
        raise ValueError(f"order file {path} does not list every k-mer")
    return minimizer_scheme(sigma, k, w, rank)
