"""Selection functions (table, minimizer, set-compatible minimizer) and densities.

A scheme picks one position in every window of a string.  Window length is
always `w` positions; for minimizer kinds a position holds a k-mer, so a
window spans w + k - 1 symbols; a minimizer picks its leftmost minimum-rank
k-mer.  Particular and sampled density both count the positions marked in
the bitmap of one streaming kernel, `_selected`, which reads the string
piece by piece (the seeded sample is drawn piece by piece too), takes each
window's offset from the table or its leftmost minimum rank
(`_leftmost_min`), and holds for any table, forward or not.  Particular
density follows the convention pinned by the worked minimizer example: the
count of distinct selected positions is divided by the number of k-mer
positions (|s| - k + 1) for minimizer kinds and by the number of windows
(|s| - w + 1) for table schemes; on a cyclic sequence both equal the
sequence length.  Exact expected density counts the scheme's context set.
A table scheme stores its picks as int16, the dtype of the dense table
`scheme_values` builds for minimizers, so every kind's picks are int16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_NODE_BUDGET, BudgetError, check_alphabet, check_budget, parse_symbols
from .kmerset import KmerSet, _ascii_int, encode_lines, read_header

TABLE = "TABLE"
MINIMIZER = "MINIMIZER"
COMPATIBLE = "COMPATIBLE"

PARTICULAR = "PARTICULAR"
EXPECTED_EXACT = "EXPECTED_EXACT"
EXPECTED_ESTIMATE = "EXPECTED_ESTIMATE"

#: Largest sigma^order for which expected density is computed exactly.
DEFAULT_EXACT_BUDGET = 1 << 20

#: Symbols per piece of string that the selection kernel `_selected` consumes.
_CHUNK = 1 << 18

#: Batches of the batch-means standard error of `estimate_density`.
_BATCHES = 32


def _check_shape(sigma: int, w: int, k: int) -> None:
    check_alphabet(sigma)
    if w < 1 or k < 1:
        raise ValueError(f"need w >= 1 and k >= 1, got w={w} k={k}")


@dataclass(frozen=True, eq=False)
class SelectionScheme:
    """A selection function f mapping each window to a position in [0, w-1]."""

    sigma: int
    w: int
    kind: str
    k: int = 1
    table: np.ndarray | None = None  # TABLE: f over all sigma^w window codes, int16
    rank: np.ndarray | None = None  # minimizer kinds: total order on k-mer codes
    guarantee: bool | None = None  # COMPATIBLE: is_uhs(U, w) held? None = unverified

    def __post_init__(self) -> None:
        _check_shape(self.sigma, self.w, self.k)

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
    return SelectionScheme(sigma, w, TABLE, table=arr.astype(np.int16))


def minimizer_scheme(
    sigma: int,
    k: int,
    w: int,
    rank: Sequence[int] | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SelectionScheme:
    """Minimizer with window of w k-mers; rank=None means lexicographic order."""
    _check_shape(sigma, w, k)  # before sigma**k is sized
    n = check_budget(sigma, k, budget, "minimizer rank table")
    if rank is None:
        arr = np.arange(n, dtype=np.int64)
    else:
        arr = np.asarray(rank, dtype=np.int64)
        if arr.shape != (n,):
            raise ValueError(f"rank must cover all sigma**k = {n} k-mers")
        # a permutation: every rank in range and none twice, 1 byte per k-mer
        seen = np.zeros(n, dtype=bool)
        if 0 <= arr.min() and arr.max() < n:
            seen[arr] = True
        if not seen.all():
            raise ValueError("rank must be a permutation defining a total order")
    return SelectionScheme(sigma, w, MINIMIZER, k=k, rank=arr)


def build_compatible_minimizer(
    U: KmerSet,
    window_positions: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SelectionScheme:
    """Minimizer ranking members of U before all non-members, lexicographic within.

    The density-vs-size guarantee requires is_uhs(U, window_positions); that
    check runs when the graph's sigma^w nodes fit `budget`, and its outcome
    is recorded on the returned scheme (None when unverified).
    """
    if U.cardinality == 0:
        raise ValueError("compatible minimizer needs a nonempty set")
    if window_positions < 1:
        raise ValueError("window must have at least one position")
    n = U.n
    c = np.cumsum(U.mask, dtype=np.int64)  # members up to and including each code
    perm = np.where(U.mask, c - 1, c[-1] + np.arange(n, dtype=np.int64) - c)
    guarantee = None
    if n <= budget:
        from .paths import is_uhs  # only this scheme kind needs the peel

        guarantee = is_uhs(U, window_positions, budget=budget)
    return SelectionScheme(
        U.sigma, window_positions, COMPATIBLE, k=U.w, rank=perm, guarantee=guarantee
    )


# -- evaluation ------------------------------------------------------------


def digit_slice(values: np.ndarray, sigma: int, lead: int, total: int) -> np.ndarray:
    """values[digits of each total-digit code from `lead` on], in code order.

    `values` covers all codes of d digits, so the slice is digits [lead, lead + d).
    The result is a broadcast of `values`; no array of codes is built.
    """
    shape = (sigma**lead, values.size, sigma**total // (sigma**lead * values.size))
    return np.broadcast_to(values.reshape(1, -1, 1), shape).reshape(-1)


def scheme_values(scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """f over every possible window code: a dense int16 array of
    sigma^window_symbols picks."""
    sigma = scheme.sigma
    ws = scheme.window_symbols
    m = check_budget(sigma, ws, budget, "dense scheme table")
    if scheme.kind == TABLE:
        return scheme.table
    # ranks are a permutation of [0, sigma^k): the smallest dtype holds them
    rank = scheme.rank.astype(np.min_scalar_type(scheme.rank.size - 1))
    best = digit_slice(rank, sigma, 0, ws)
    pos = np.zeros(m, dtype=np.int16)
    for i in range(1, scheme.w):
        r = digit_slice(rank, sigma, i, ws)
        upd = r < best  # strict: leftmost minimum wins ties
        np.copyto(best, r, where=upd)
        pos[upd] = i
    return pos


def is_forward(scheme: SelectionScheme, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exhaustive forwardness check over all (window_symbols+1)-symbol strings."""
    sigma = scheme.sigma
    ws = scheme.window_symbols
    check_budget(sigma, ws + 1, budget, "forwardness check")
    fv = scheme_values(scheme, budget=budget)
    nxt = digit_slice(fv + 1, sigma, 1, ws + 1)  # the next window's pick, one symbol on
    return bool(np.all(nxt >= digit_slice(fv, sigma, 0, ws + 1)))


def _window_positions_denominator(scheme: SelectionScheme, length: int, cyclic: bool) -> int:
    if cyclic:
        return length
    if scheme.kind == TABLE:
        return length - scheme.window_symbols + 1
    return length - scheme.k + 1


def _require_window(scheme: SelectionScheme, length: int) -> None:
    if length < scheme.window_symbols:
        raise ValueError(
            f"string of length {length} is shorter than a window "
            f"({scheme.window_symbols} symbols)"
        )


def _leftmost_min(rank: np.ndarray, w: int) -> np.ndarray:
    """Position of the leftmost minimum in each run of w consecutive ranks.

    Keys rank << shift | position order by rank, then by position, so their
    minimum is the leftmost minimum and its low bits are its position.
    Doubling passes take the minimum over runs of 2, 4, ..., 2^p <= w keys,
    and one more pass joins two overlapping 2^p runs into a run of w.  The
    keys are one int64 array, built and reduced in place.
    """
    m = rank.size
    shift = m.bit_length()
    key = rank.astype(np.int64)
    key <<= shift
    key |= np.arange(m, dtype=np.int64)
    n, h = m, 1  # key[:n] holds the minima over runs of h
    while 2 * h <= w:
        np.minimum(key[: n - h], key[h:n], out=key[: n - h])
        n, h = n - h, 2 * h
    if h < w:
        np.minimum(key[: m - w + 1], key[w - h : n], out=key[: m - w + 1])
    key = key[: m - w + 1]
    key &= (1 << shift) - 1
    return key


def _codes(buf: np.ndarray, sigma: int, span: int) -> np.ndarray:
    """Codes of the span-symbol runs of buf, first symbol most significant.

    Doubling joins runs of h symbols into runs of 2h (code * sigma^h plus
    the code h on), so ceil(log2 span) passes replace one per symbol; a
    Horner step per symbol finishes a span that is not a power of two.
    """
    codes, h = buf, 1
    while 2 * h <= span:
        codes = codes[:-h] * sigma**h + codes[h:]
        h *= 2
    for j in range(h, span):
        codes = codes[:-1] * sigma + buf[j:]
    return codes


def _selected(
    scheme: SelectionScheme, chunks: Iterable[np.ndarray], length: int, cyclic: bool
) -> np.ndarray:
    """Bool mask over `length` positions: True where some window selects.

    `chunks` are consecutive pieces of the symbol string; a cyclic string is
    extended by its first window_symbols - 1 symbols and its positions wrap
    modulo `length`.  The last window_symbols - 1 symbols of each piece are
    carried into the next, so each piece builds the codes of its windows
    (window codes for tables, k-mer codes for minimizer kinds, `_codes`) and
    picks an offset from the table or the leftmost minimum rank
    (`_leftmost_min`), read from one copy of the ranks in the smallest
    unsigned dtype that holds them.
    """
    sigma, ws = scheme.sigma, scheme.window_symbols
    span = ws if scheme.kind == TABLE else scheme.k  # symbols per code
    dtype = np.int32 if sigma**span < 1 << 31 else np.int64
    if scheme.kind != TABLE:
        rank = scheme.rank.astype(np.min_scalar_type(scheme.rank.size - 1))
    seen = np.zeros(length, dtype=bool)
    buf = np.zeros(0, dtype=dtype)
    start = 0  # string position of buf[0]
    for chunk in chunks:
        buf = np.concatenate([buf, chunk.astype(dtype, copy=False)])
        n = buf.size - ws + 1  # windows in buf
        if n <= 0:
            continue
        codes = _codes(buf, sigma, span)
        # np.take gathers by int32 codes as they are; indexing widens them first
        if scheme.kind == TABLE:
            pick = np.arange(start, start + n) + np.take(scheme.table, codes)
        else:
            pick = _leftmost_min(np.take(rank, codes), scheme.w)
            pick += start
        seen[pick % length if cyclic else pick] = True
        start += n
        buf = buf[n:]
    return seen


def _string_selected(scheme: SelectionScheme, syms: Sequence[int], cyclic: bool) -> np.ndarray:
    """`_selected` over a whole string, cut into pieces of _CHUNK symbols."""
    syms = np.asarray(syms, dtype=np.int64)
    length = syms.size
    if cyclic:
        syms = np.concatenate([syms, syms[: scheme.window_symbols - 1]])
    pieces = (syms[i : i + _CHUNK] for i in range(0, syms.size, _CHUNK))
    return _selected(scheme, pieces, length, cyclic)


def particular_density(
    scheme: SelectionScheme, s: str | Sequence[int], cyclic: bool = False
) -> DensityResult:
    """Distinct selected positions over the position count of s."""
    syms = parse_symbols(s, scheme.sigma)
    _require_window(scheme, len(syms))
    selected = int(np.count_nonzero(_string_selected(scheme, syms, cyclic)))
    denom = _window_positions_denominator(scheme, len(syms), cyclic)
    return DensityResult(selected, denom, Fraction(selected, denom), PARTICULAR)


def expected_density(
    scheme: SelectionScheme,
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
    standard error when sigma^|context| exceeds DEFAULT_EXACT_BUDGET; `budget`
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
    try:
        windows = check_budget(scheme.sigma, order, DEFAULT_EXACT_BUDGET)
    except BudgetError:
        return estimate_density(scheme, sample_symbols=sample_symbols, seed=seed)
    selected = build(scheme, budget=budget).cardinality
    return DensityResult(selected, windows, Fraction(selected, windows), EXPECTED_EXACT)


def estimate_density(
    scheme: SelectionScheme, sample_symbols: int = 10**7, seed: int = 0
) -> DensityResult:
    """Density on a seeded uniform random string, with a batch-means standard error.

    Neighbouring selections are correlated, so the error is not binomial: the
    selected-position mask is cut into _BATCHES equal batches and the reported
    standard error is the standard deviation of their densities over
    sqrt(_BATCHES).  The mask holds a byte per symbol, so `sample_symbols`
    passes the default budget before the first draw.
    """
    _require_window(scheme, sample_symbols)
    if sample_symbols < _BATCHES:
        raise ValueError(f"a sample of {sample_symbols} symbols cannot fill {_BATCHES} batches")
    check_budget(sample_symbols, 1, what="sampled estimate")
    rng = np.random.default_rng(seed)
    draws = (
        rng.integers(0, scheme.sigma, size=min(_CHUNK, sample_symbols - i), dtype=np.int64)
        for i in range(0, sample_symbols, _CHUNK)
    )
    seen = _selected(scheme, draws, sample_symbols, cyclic=False)
    count = int(np.count_nonzero(seen))
    denom = _window_positions_denominator(scheme, sample_symbols, cyclic=False)
    batches = [b.mean() for b in np.array_split(seen, _BATCHES)]
    stderr = float(np.std(batches, ddof=1) / np.sqrt(_BATCHES))
    return DensityResult(count, denom, Fraction(count, denom), EXPECTED_ESTIMATE, stderr)


# -- file formats ------------------------------------------------------------


def load_scheme_table(path: str, budget: int = DEFAULT_NODE_BUDGET) -> SelectionScheme:
    with open(path) as fh:
        sigma, w = read_header(fh.readline(), "scheme", f"bad scheme file header in {path}")
        line_of = np.full(check_budget(sigma, w, budget, "scheme table"), -1, dtype=np.int64)
        windows, picks = [], []
        for lineno, line in enumerate(fh, 2):
            fields = line.split()
            if not fields:
                continue
            try:
                km, p = fields
                picks.append(_ascii_int(p))
            except ValueError:
                raise ValueError(
                    f"bad line {lineno} in scheme file {path}: "
                    "expected a window and an integer pick"
                ) from None
            windows.append(km)
    # each window's line, so that any pick, negative ones too, reaches table_scheme's check
    line_of[encode_lines(windows, sigma, w)] = np.arange(len(windows))
    if (line_of < 0).any():
        raise ValueError(f"scheme file {path} does not cover all windows")
    return table_scheme(sigma, w, np.array(picks, dtype=np.int64)[line_of])


def load_minimizer_order(
    path: str, sigma: int, w: int, budget: int = DEFAULT_NODE_BUDGET
) -> SelectionScheme:
    with open(path) as fh:
        kmers = [t for t in map(str.strip, fh) if t]
    if not kmers:
        raise ValueError(f"empty order file {path}")
    k = len(kmers[0])
    rank = np.full(check_budget(sigma, k, budget, "minimizer rank table"), -1, dtype=np.int64)
    rank[encode_lines(kmers, sigma, k)] = np.arange(len(kmers))
    if (rank < 0).any():
        raise ValueError(f"order file {path} does not list every k-mer")
    return minimizer_scheme(sigma, k, w, rank, budget=budget)
