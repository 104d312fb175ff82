"""Longest remaining path and decycling checks on the implicit de Bruijn graph.

A w-mer u is an edge of the order-(w-1) de Bruijn graph, from its prefix row
u // sigma to its suffix row u mod m, m = sigma^(w-1): the w-mers leaving row
r are r*sigma + a and those entering it are b*m + r.  The successors of a
surviving w-mer are the surviving w-mers leaving its suffix row, so its
label, the number of vertices on the longest surviving path that starts
there, depends on that row alone: it is h[u mod m].

The peel (Kahn 1962) keeps, per row, the count of its surviving out-edges
still unlabelled.  A row whose count reaches 0 goes idle: wave k sets
h[r] = k on the rows that went idle after wave k - 1 and labels the
surviving edges entering them, which lowers the counts of their prefix rows.
Its cost is the number of numpy passes per edge, so each slice of a wave
makes few: a gather of the mask, one ``np.subtract.at`` whose scalar has the
counts' dtype (a Python int sends ufunc.at down its slow casting loop), and
``compress`` selects, faster than boolean indexing where about half the
entries go.  It reads the set's mask as it is and keeps about 3/sigma bytes
per w-mer (a count that holds sigma and a uint16 wave per row, widened to
int32 only if the waves reach 65,535) besides the wave in flight, which is
read back from h when it holds more than a sixteenth of the rows.  Rows
still counting at the end lie on a cycle or lead into one.

h, with m entries, is the certificate of the longest path: ``verify_rows``
checks without the peel that h[r] exceeds the label of every w-mer leaving
row r (0 for a member), which proves both acyclicity and the upper bound,
and ``longest_remaining_path`` runs it and ``verify_witness`` before it returns.
Path lengths are always counted in vertices (w-mers); a string of L symbols
corresponds to a walk of L - w + 1 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_NODE_BUDGET, check_budget
from .kmerset import KmerSet

ACYCLIC = "ACYCLIC"
CYCLIC = "CYCLIC"

_CHUNK = 1 << 16  # rows per peel slice
_WAVE = np.uint16  # dtype of the peel's waves until they reach its largest value
_LARGE = 16  # a wave of more than 1/_LARGE of the rows is read back from h


@dataclass(frozen=True)
class PathReport:
    """Result of longest-remaining-path analysis after removing a set.

    The witnesses are lists of w-mer codes: the longest path (ACYCLIC), or
    one cycle (CYCLIC).
    """

    kind: str
    longest_vertices: int = 0
    witness: list[int] = field(default_factory=list)
    cycle_witness: list[int] = field(default_factory=list)


def _peel(mask: np.ndarray, sigma: int) -> tuple[np.ndarray, int]:
    """Counting peel on the (w-1)-mer rows of a membership mask.

    Returns (h, longest): h[r] is the wave in which row r went idle, 0 if it
    never did, kept as _WAVE and widened to int32 once the waves reach
    _WAVE's largest value; longest is the last wave that labelled an edge.
    The count `left[r]` of row r's surviving out-edges still unlabelled
    stays nonzero only on rows that reach a cycle.  A wave runs in slices of
    at most _CHUNK sorted rows: the surviving edges f = r + b*m entering a
    slice's rows, taken b-major, have their prefix rows t = f // sigma in
    order.  Each slice
    - keeps the surviving edges, by boolean indexing (about 95% survive);
    - takes one off `left` per edge with np.subtract.at, its scalar of
      `left`'s dtype, so that ufunc.at runs its fast indexed loop;
    - keeps, by compress, the prefix rows whose count reached 0, unless all
      did, and marks them in h.
    A row reached by several edges of the slice is listed once per edge;
    its copies are adjacent, and are dropped by compress only while the
    wave is kept as rows.  A row goes idle at most once, so slicing a wave
    changes no label.  Wave 1, and any wave of more than m/_LARGE rows, is
    read back from h a block of _CHUNK rows at a time; a smaller wave is
    also kept as a sorted array of rows.
    """
    m = mask.size // sigma
    left = np.full(m, sigma, dtype=np.min_scalar_type(sigma))
    for a in range(sigma):
        left -= mask[a::sigma]
    entering = np.arange(sigma, dtype=np.int64)[:, None] * m
    h = np.zeros(m, dtype=_WAVE)
    for j in range(0, m, _CHUNK):
        h[j : j + _CHUNK] = left[j : j + _CHUNK] == 0
    one, top = left.dtype.type(1), np.iinfo(_WAVE).max
    wave, longest, rows = 1, 0, None
    while True:
        if wave == top:  # the next wave would not fit
            h = h.astype(np.int32)
        if rows is None:  # read the wave back from h
            slices = (j + np.flatnonzero(h[j : j + _CHUNK] == wave) for j in range(0, m, _CHUNK))
        else:
            slices = (rows[i : i + _CHUNK] for i in range(0, rows.size, _CHUNK))
        idle, count = [], 0
        for part in slices:
            f = (part + entering).ravel()
            f = f[~mask.take(f)]
            if f.size == 0:
                continue
            longest = wave
            t = f // sigma
            del f  # before the selects allocate
            np.subtract.at(left, t, one)
            went = left.take(t) == 0
            if idle is not None:  # the wave is kept as rows: one copy of each
                went[1:] &= t[1:] != t[:-1]
            if np.count_nonzero(went) < t.size:
                t = t.compress(went)
            h[t] = wave + 1
            count += t.size
            if idle is not None and t.size:
                idle.append(t)
                if count > m // _LARGE:
                    idle = None
        if count == 0:
            return h, longest
        wave += 1
        rows = None if idle is None else np.concatenate(idle)
        if idle and len(idle) > 1:  # one sorted run per slice; timsort merges them
            rows.sort(kind="stable")


def _least(mask: np.ndarray, h: np.ndarray, label: int) -> int:
    """The least surviving code b*m + r whose row holds `label`, h[r] ==
    label (0: the row never went idle), or -1 if there is none; each b-block
    of the mask is scanned a slice of _CHUNK rows at a time, in code order."""
    m = h.size
    for b in range(0, mask.size, m):
        for j in range(0, m, _CHUNK):
            k = min(j + _CHUNK, m)
            hit = np.flatnonzero(~mask[b + j : b + k] & (h[j:k] == label))
            if hit.size:
                return b + j + int(hit[0])
    return -1


def _walk(mask: np.ndarray, sigma: int, h: np.ndarray, label: int) -> list[int]:
    """A witness read off the peel's rows: from the least surviving code
    whose row holds `label`, step to the least surviving successor whose row
    holds the next label.  For the longest path, `label` is the longest and
    drops by one each step, down to 1.  For a cycle it stays 0: every code
    left pending (surviving, its row never idle) has a pending successor, so
    the walk revisits a code and is cut at that code's first visit.  A
    missing successor ends the walk on -1, which verify_witness rejects.
    """
    n, m = mask.size, h.size
    v, first = _least(mask, h, label), {}
    while v not in first:  # a falling label repeats no code
        first[v] = len(first)
        if v < 0 or label == 1:
            return list(first)
        label = max(label - 1, 0)
        base = (v * sigma) % n
        v = next((u for u in range(base, base + sigma) if not mask[u] and h[u % m] == label), -1)
    return list(first)[first[v] :]


def verify_rows(mask: np.ndarray, sigma: int, h: np.ndarray) -> int | None:
    """Certified upper bound on the longest path avoiding the set, or None.

    Label w-mer v with h[v mod m], m = sigma^(w-1), if it survives and 0 if
    it is a member.  Accepts iff h[r] exceeds the label of every w-mer
    r*sigma + a leaving row r: then a surviving path's last vertex has a
    label >= 1 and labels strictly decrease along it, so no path avoiding
    the set has more vertices than the largest label, which is returned.
    It reads h in place, _CHUNK w-mers at a time: rows r and r + q, q =
    m / sigma, share their successors, row r mod q of h.reshape(q, sigma).
    """
    h, m = np.asarray(h), mask.size // sigma
    if mask.ndim != 1 or h.shape != (m,) or h.dtype.kind not in "iu":
        raise ValueError(f"h must be an integer array of length sigma**(w-1) = {m}")
    if m % sigma:  # w = 1: every w-mer is a self-loop on the one empty row
        return 0 if mask.all() and h[0] > 0 else None
    q, step = m // sigma, max(1, _CHUNK // sigma)
    succ_rows, top = h.reshape(q, sigma), 0
    for b in range(0, m, q):
        for i in range(0, q, step):
            j = min(i + step, q)
            member = mask[(b + i) * sigma : (b + j) * sigma].reshape(-1, sigma)
            label, own = succ_rows[i:j] * ~member, h[b + i : b + j]
            if not all((label[:, a] < own).all() for a in range(sigma)):  # columns: no broadcast
                return None
            top = max(top, int(label.max()))
            del label  # before the next block's is built
    return top


def longest_remaining_path(kset: KmerSet, budget: int = DEFAULT_NODE_BUDGET) -> PathReport:
    """Exact longest path (in vertices) avoiding the set, with one witness.

    Ties are broken deterministically: the witness starts at the least code
    achieving the maximum and follows the least successor symbol among
    optimal continuations.  Returns a CYCLIC report with a witness cycle
    when the complement subgraph is not acyclic.
    """
    sigma, mask = kset.sigma, kset.mask
    check_budget(sigma, kset.w, budget, "longest remaining path")
    h, longest = _peel(mask, sigma)
    if not h.all():  # a row never went idle: it reaches a cycle
        report = PathReport(CYCLIC, cycle_witness=_walk(mask, sigma, h, 0))
    elif verify_rows(mask, sigma, h) != longest:  # checked before the walk trusts h
        raise AssertionError("the peel's rows do not certify its longest path")
    else:
        report = PathReport(ACYCLIC, longest, _walk(mask, sigma, h, longest) if longest else [])
    if not verify_witness(kset, report):
        raise AssertionError(f"the {report.kind} witness fails its check")
    return report


def is_decycling(kset: KmerSet, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the subgraph induced by the complement of the set is acyclic."""
    return longest_remaining_path(kset, budget).kind == ACYCLIC


def is_uhs(kset: KmerSet, l: int, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the set hits every walk of l vertices (decycling + short paths)."""
    report = longest_remaining_path(kset, budget=budget)
    return report.kind == ACYCLIC and report.longest_vertices < l


def verify_witness(kset: KmerSet, report: PathReport) -> bool:
    """Re-verify a PathReport's witness codes: each in range and outside the set,
    each step a de Bruijn edge (v // sigma == u % sigma^(w-1)), the path as long
    as reported and the cycle closed."""
    sigma, n = kset.sigma, kset.n
    if report.kind == ACYCLIC:
        codes, ok = report.witness, len(report.witness) == report.longest_vertices
        heads = codes[1:]
    else:
        codes = report.cycle_witness
        ok, heads = bool(codes), codes[1:] + codes[:1]
    outside = all(0 <= c < n for c in codes) and not kset.mask[codes].any()
    return ok and outside and all(v // sigma == u % (n // sigma) for u, v in zip(codes, heads))
