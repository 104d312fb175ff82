"""Longest remaining path and decycling checks on the implicit de Bruijn graph.

The surviving subgraph (the graph on sigma^w nodes minus a set) is peeled
sink-first: wave k labels every surviving node whose surviving successors
all carry labels below k, so a node's label is the number of vertices on the
longest surviving path that starts there.  The predecessors of node v are
v // sigma + b * sigma^(w-1), and all of them share the successor row
v // sigma.  Each wave tests the rows the last wave touched with sigma 1-D
gathers, one per successor symbol, from strided column views of a bool
``pending`` array; it needs no degree array, no hashing and no scatter-add.
Nodes still pending at the end lie on a cycle or lead into one.

The label array doubles as a certificate: ``verify_labels`` checks, without
the peel, that labels strictly decrease along every surviving edge, which
proves both acyclicity and the upper bound.  Path lengths are always counted
in vertices (w-mers); a string of L symbols corresponds to a walk of
L - w + 1 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_NODE_BUDGET, check_budget
from .kmerset import KmerSet

ACYCLIC = "ACYCLIC"
CYCLIC = "CYCLIC"


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


def _idle_rows(cols: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The rows with no pending entry in any column view.  The busy mask
    lives only in this call, so it is freed before the wave allocates."""
    busy = cols[0][rows]
    for col in cols[1:]:
        busy |= col[rows]
    return rows[~busy]


def _reverse_peel(survives: np.ndarray, sigma: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sink-first peel restricted to surviving nodes.

    Returns (label, pending): label[v] >= 1 is the number of vertices on the
    longest surviving path from v, 0 for removed or pending nodes; pending
    marks survivors that lie on or lead into a cycle.  With m = sigma^(w-1),
    node u's successors are row u % m of ``pending.reshape(m, sigma)`` and
    the owners of row r are r + b*m, so a wave keeps the rows the last
    frontier touched that have nothing pending, and takes their pending
    owners; for sorted rows, the owners come out sorted in b-major order.
    Column a of that reshape, a strided view of ``pending``, says whether
    each row's successor ending in symbol a is pending, so ``_idle_rows``
    tests a wave's rows with sigma 1-D gathers.
    """
    m = n // sigma
    pending = survives.copy()
    cols = [pending.reshape(m, sigma)[:, a] for a in range(sigma)]
    label = np.zeros(n, dtype=np.int32)
    owners = np.arange(sigma, dtype=np.int64)[:, None] * m
    rows = np.arange(m, dtype=np.int64)
    k = 0
    while rows.size:
        k += 1
        rows = _idle_rows(cols, rows)
        cand = (rows + owners).ravel()
        frontier = cand[pending[cand]]
        if frontier.size == 0:
            break
        pending[frontier] = False
        label[frontier] = k
        rows = frontier // sigma
        rows = rows[np.r_[True, rows[1:] != rows[:-1]]]
    return label, pending


def _cycle_witness(pending: np.ndarray, sigma: int, n: int) -> list[int]:
    """Extract one forward cycle from the nodes the peel left pending.

    Every pending node has a pending successor, so walking least-symbol
    pending successors from the least pending node must revisit a node; the
    segment from its first visit is a cycle.
    """
    v = int(np.flatnonzero(pending)[0])
    seen: dict[int, int] = {}
    walk: list[int] = []
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        base = (v * sigma) % n
        for a in range(sigma):
            if pending[base + a]:
                v = base + a
                break
        else:  # pragma: no cover - impossible by the peel invariant
            raise AssertionError("pending node without pending successor")
    return walk[seen[v] :]


def path_labels(kset: KmerSet, budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """Longest-path label of every node (int32, length sigma^w).

    label[v] is the number of vertices on the longest path from v avoiding the
    set; 0 means v is in the set, or lies on or leads into a cycle.
    """
    check_budget(kset.n, budget, "path labels")
    label, _ = _reverse_peel(~kset.mask, kset.sigma, kset.n)
    return label


def verify_labels(kset: KmerSet, labels: np.ndarray) -> int | None:
    """Certified upper bound on the longest path avoiding the set, or None.

    Accepts iff every surviving node has a label >= 1 and every surviving
    edge u -> v has labels[u] > labels[v]; then no path avoiding the set has
    more vertices than the largest survivor label, which is returned (for
    labels from ``path_labels`` that is ``labels.max()``).  Independent of the
    peel and O(sigma^w): with m = sigma^(w-1), the nodes r + b*m all have the
    successors r*sigma .. r*sigma + sigma-1, so per r it compares the least
    surviving owner label with the largest surviving successor label.
    """
    sigma, n = kset.sigma, kset.n
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be an integer array of length sigma**w = {n}")
    survives = ~kset.mask
    owner_min = np.where(survives, labels, np.iinfo(labels.dtype).max).reshape(sigma, -1).min(0)
    succ_max = np.where(survives, labels, 0).reshape(-1, sigma).max(1)
    if not bool((owner_min > succ_max).all()):
        return None
    return int(labels[survives].max()) if survives.any() else 0


def longest_remaining_path(kset: KmerSet, budget: int = DEFAULT_NODE_BUDGET) -> PathReport:
    """Exact longest path (in vertices) avoiding the set, with one witness.

    Ties are broken deterministically: the witness starts at the least code
    achieving the maximum and follows the least successor symbol among
    optimal continuations.  Returns a CYCLIC report with a witness cycle
    when the complement subgraph is not acyclic.
    """
    sigma, n = kset.sigma, kset.n
    check_budget(n, budget, "longest remaining path")
    label, pending = _reverse_peel(~kset.mask, sigma, n)

    if pending.any():
        return PathReport(CYCLIC, cycle_witness=_cycle_witness(pending, sigma, n))

    v = int(np.argmax(label))
    longest = int(label[v])
    if longest == 0:
        return PathReport(ACYCLIC, longest_vertices=0)
    path = [v]
    for k in range(longest - 1, 0, -1):
        base = (v * sigma) % n
        v = next(u for u in range(base, base + sigma) if label[u] == k)
        path.append(v)
    return PathReport(ACYCLIC, longest_vertices=longest, witness=path)


def is_decycling(kset: KmerSet, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the subgraph induced by the complement of the set is acyclic."""
    n = kset.n
    check_budget(n, budget, "decycling check")
    _, pending = _reverse_peel(~kset.mask, kset.sigma, n)
    return not pending.any()


def is_uhs(kset: KmerSet, l: int, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the set hits every walk of l vertices (decycling + short paths)."""
    report = longest_remaining_path(kset, budget=budget)
    return report.kind == ACYCLIC and report.longest_vertices < l


def verify_witness(kset: KmerSet, report: PathReport) -> bool:
    """Re-verify a PathReport's witness codes: each in range and outside the set,
    each step a de Bruijn edge (v // sigma == u % sigma^(w-1)), the path as long
    as reported and the cycle closed."""
    sigma, n = kset.sigma, kset.n

    def outside(codes: list[int]) -> bool:
        return all(0 <= c < n for c in codes) and not kset.mask[codes].any()

    def edges(pairs) -> bool:
        return all(v // sigma == u % (n // sigma) for u, v in pairs)

    if report.kind == ACYCLIC:
        path = report.witness
        if len(path) != report.longest_vertices:
            return False
        return outside(path) and edges(zip(path, path[1:]))
    cyc = report.cycle_witness
    return bool(cyc) and outside(cyc) and edges(zip(cyc, cyc[1:] + cyc[:1]))
