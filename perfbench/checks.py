"""Output checkers for the benchmark, written apart from the library.

Every fact checked here is recomputed from first principles (closed-form
counts, integer recurrences, direct numpy references) or decoded from the
program's files with code of our own.  Nothing imports ``uhspath``.  A
checker raises ``CheckError`` on the first discrepancy.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def rational(obj: dict) -> Fraction:
    """Decode the CLI's {"num", "den", "float"} rational, checking the float."""
    q = Fraction(int(obj["num"]), int(obj["den"]))
    require(q.denominator == int(obj["den"]), f"rational {obj['num']}/{obj['den']} not reduced")
    require(math.isclose(float(q), obj["float"], rel_tol=1e-12, abs_tol=1e-300),
            f"float field {obj['float']} does not match {q}")
    return q


# -- counting ------------------------------------------------------------------


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def necklace_count(sigma: int, w: int) -> int:
    """Moreau's formula: (1/w) * sum over d | w of phi(d) * sigma^(w/d)."""
    total = sum(totient(d) * sigma ** (w // d) for d in range(1, w + 1) if w % d == 0)
    return total // w


def no_zero_run_count(sigma: int, d: int, w: int) -> int:
    """Strings of length w over sigma symbols with no run of d zeros."""
    ends = [1] + [0] * (d - 1)  # ends[j]: strings whose trailing zero run is j
    for _ in range(w):
        ends = [(sigma - 1) * sum(ends)] + ends[:-1]
    return sum(ends)


def binary_mds_count(w: int) -> int:
    """Minimum decycling sets of the binary order-w de Bruijn graph, by brute force.

    The rotation classes are disjoint cycles and a minimum decycling set has
    one vertex per class (Mykkeltveit), so it suffices to try every choice
    of one vertex per class and keep those that leave an acyclic graph.
    """
    n, mask = 1 << w, (1 << w) - 1
    classes, seen = [], set()
    for c in range(n):
        if c not in seen:
            orbit = {((c << i) | (c >> (w - i))) & mask for i in range(w)}
            seen |= orbit
            classes.append(sorted(orbit))
    succ = [((c << 1) & mask, ((c << 1) & mask) | 1) for c in range(n)]
    count = 0
    for choice in itertools.product(*classes):
        alive = [True] * n
        for c in choice:
            alive[c] = False
        indeg = [0] * n
        for u in range(n):
            if alive[u]:
                for v in succ[u]:
                    indeg[v] += alive[v]
        ready = [u for u in range(n) if alive[u] and indeg[u] == 0]
        left = n - len(choice)
        while ready:
            u = ready.pop()
            left -= 1
            for v in succ[u]:
                if alive[v]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
        count += left == 0
    return count


def forbidden_d(sigma: int, w: int) -> int:
    """floor(log_sigma(w / ln w)) - 1, settled by integer powers."""
    x = w / math.log(w)
    t = 0
    while sigma ** (t + 1) <= x:
        t += 1
    return t - 1


# -- set files and paths ---------------------------------------------------------


def decode_binary_set(path: Path) -> tuple[int, int, np.ndarray]:
    """Read a ``UHS1`` file: magic, sigma byte, u32 w, little-endian packed bits."""
    raw = path.read_bytes()
    require(raw[:4] == b"UHS1", f"{path.name}: bad magic {raw[:4]!r}")
    sigma = raw[4]
    w = int.from_bytes(raw[5:9], "little")
    n = sigma**w
    body = np.frombuffer(raw, dtype=np.uint8, offset=9)
    require(body.size == (n + 7) // 8, f"{path.name}: {body.size} payload bytes for {n} bits")
    bits = np.unpackbits(body, bitorder="little")
    require(not bits[n:].any(), f"{path.name}: padding bits set")
    return sigma, w, bits[:n].astype(bool)


def decode_word(text: str, sigma: int, w: int) -> int:
    require(len(text) == w, f"vertex {text!r} does not have {w} symbols")
    require(all(c.isdigit() and int(c) < sigma for c in text), f"vertex {text!r} has a bad symbol")
    return int(text, sigma)


def check_walk(codes: list[int], sigma: int, w: int) -> None:
    """Distinct vertices joined by de Bruijn edges."""
    n = sigma**w
    require(len(set(codes)) == len(codes), "walk revisits a vertex")
    for step, (u, v) in enumerate(zip(codes, codes[1:])):
        require((u * sigma) % n <= v < (u * sigma) % n + sigma, f"no edge at step {step}")


def embedding_im(code: int, sigma: int, w: int) -> float:
    """Im(sum x_i r^(i+1)), r = exp(2 pi i / w), first symbol x_0 most significant."""
    total = 0j
    for i in range(w):
        x = (code // sigma ** (w - 1 - i)) % sigma
        if x:
            total += x * cmath.exp(2j * math.pi * (i + 1) / w)
    return total.imag


# -- selection schemes -------------------------------------------------------------


def kmer_codes(symbols: np.ndarray, sigma: int, k: int) -> np.ndarray:
    """Code of the k-mer starting at every position, first symbol most significant."""
    npos = symbols.size - k + 1
    codes = np.zeros(npos, dtype=np.int64)
    for j in range(k):
        codes = codes * sigma + symbols[j : j + npos]
    return codes


def count_selected(keys: np.ndarray, w: int, chunk: int = 1 << 20) -> int:
    """Distinct positions picked by the leftmost minimum of every w-window of keys.

    Uses a doubling range-minimum over (key, position) pairs in chunks, a
    different algorithm from the library's deque and argmin paths.
    """
    nwin = keys.size - w + 1
    shift = int(keys.size).bit_length()
    p = 1 << (w.bit_length() - 1)  # largest power of two <= w
    last = -1
    total = 0
    for start in range(0, nwin, chunk):
        stop = min(start + chunk, nwin)
        pos = np.arange(start, stop + w - 1, dtype=np.int64)
        m = (keys[start : stop + w - 1].astype(np.int64) << shift) | pos
        span = 1
        while span < p:
            m = np.minimum(m[:-span], m[span:])
            span *= 2
        sel = np.minimum(m[: stop - start], m[w - p : w - p + stop - start]) & ((1 << shift) - 1)
        step = np.diff(sel)
        require(bool(np.all(step >= 0)) and sel[0] >= last, "reference picks are not monotone")
        total += int(np.count_nonzero(step)) + int(sel[0] != last)
        last = int(sel[-1])
    return total


def forward_charged(rank: np.ndarray, sigma: int, k: int, w: int) -> int:
    """Charged (ws+1)-symbol contexts of a minimizer with k-mer ranks ``rank``.

    A context is charged when its two windows (the first and the last ws
    symbols) pick different positions of the context.  By the context
    theorem the count over sigma^(ws+1) equals the exact expected density.
    """
    ws = w + k - 1
    m = sigma ** (ws + 1)
    codes = np.arange(m, dtype=np.int64)
    kk = sigma**k
    keys = np.stack(
        [rank[(codes // sigma ** (ws + 1 - k - i)) % kk] * (w + 1) + i for i in range(w + 1)]
    )
    first = keys[:w].min(axis=0) % (w + 1)
    second = keys[1:].min(axis=0) % (w + 1)
    return int(np.count_nonzero(first != second))
