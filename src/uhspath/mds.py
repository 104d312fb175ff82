"""Exhaustive census of minimum decycling sets for small binary orders.

The pure cycles (conjugacy classes) are vertex-disjoint and there are
N_{sigma,w} of them, so a decycling set of minimum size contains exactly
one w-mer per class.  The search walks classes in ascending size, keeps a
bitmask of nodes already decided to survive, and prunes any branch whose
decided survivors contain a cycle -- no future choice can remove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import conjugacy_class, kmer_encode, necklace_count, necklaces

MAX_W = 7  # product of class sizes beyond this is out of reach


@dataclass
class MdsCensus:
    sigma: int
    w: int
    mds_count: int = 0
    nodes_explored: int = 0
    prunes: int = 0
    sets: list[tuple[int, ...]] = field(default_factory=list)  # sorted member codes


def _has_cycle(alive: int, succ_mask: list[int], pred_mask: list[int]) -> bool:
    """Trim nodes missing an alive successor or predecessor; cycle iff nonempty."""
    changed = True
    while changed and alive:
        changed = False
        m = alive
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if not (succ_mask[v] & alive and pred_mask[v] & alive):
                alive ^= b
                changed = True
    return alive != 0


def enumerate_mds(sigma: int, w: int, emit_sets: bool = False) -> MdsCensus:
    """Count every selection of one w-mer per conjugacy class whose removal
    leaves the de Bruijn graph acyclic."""
    if sigma != 2:
        raise ValueError("census is only implemented for sigma=2")
    if not 2 <= w <= MAX_W:
        raise ValueError(f"census needs 2 <= w <= {MAX_W}")
    n = sigma**w
    succ_mask = [0] * n
    pred_mask = [0] * n
    for v in range(n):
        for a in range(sigma):
            s = (v * sigma + a) % n
            succ_mask[v] |= 1 << s
            pred_mask[s] |= 1 << v

    # one class per necklace, members in rotation order from the representative
    members_of = [
        conjugacy_class(kmer_encode(list(map(ord, word)), sigma), sigma, w)
        for word, _ in necklaces(sigma, w)
    ]
    assert len(members_of) == necklace_count(sigma, w)
    assert sum(map(len, members_of)) == n
    classes = []  # per class, ascending size: list of (survivor mask, chosen code)
    for members in sorted(members_of, key=len):
        bits = 0
        for c in members:
            bits |= 1 << c
        classes.append([(bits ^ (1 << c), c) for c in members])

    census = MdsCensus(sigma, w)
    depth = len(classes)
    chosen: list[int] = []

    def walk(level: int, alive: int) -> None:
        census.nodes_explored += 1
        if _has_cycle(alive, succ_mask, pred_mask):
            census.prunes += 1
            return
        if level == depth:
            census.mds_count += 1
            if emit_sets:
                census.sets.append(tuple(sorted(chosen)))
            return
        for survivors, code in classes[level]:
            chosen.append(code)
            walk(level + 1, alive | survivors)
            chosen.pop()

    walk(0, 0)
    assert census.mds_count >= 1  # the Mykkeltveit set always qualifies
    if emit_sets:
        assert all(len(s) == necklace_count(sigma, w) for s in census.sets)
    return census
