"""Alphabet and w-mer primitives on the implicit de Bruijn graph.

w-mers are packed as integers in base sigma with the first symbol as the
most significant digit, so walking an edge of the de Bruijn graph is a
single multiply-add: the edge from x that appends symbol a ends at code
(x * sigma + a) mod sigma**w.  The graph itself is never materialized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

ACGT = "ACGT"
_ACGT_VALUES = {c: i for i, c in enumerate(ACGT)}
# byte table from symbol values to their digits
_DIGIT_BYTES = bytes.maketrans(bytes(range(10)), b"0123456789")

#: Default cap on the number of graph nodes an operation may touch.
DEFAULT_NODE_BUDGET = 1 << 28


class BudgetError(Exception):
    """An operation would exceed its configured memory budget."""


def _count(n: int) -> str:
    # Python refuses str() of ints with very many digits; name the power of two
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def check_budget(n: int, budget: int = DEFAULT_NODE_BUDGET, what: str = "operation") -> None:
    if n > budget:
        raise BudgetError(f"{what} needs {_count(n)} states, budget is {_count(budget)}")


def check_alphabet(sigma: int) -> None:
    if sigma < 2:
        raise ValueError(f"alphabet size must be >= 2, got {sigma}")


def check_digit_text(sigma: int) -> None:
    if sigma > 10:
        raise ValueError("digit text form only supports sigma <= 10")


def parse_symbols(text: str | Sequence[int], sigma: int) -> tuple[int, ...]:
    """Turn a digit string (or an ACGT string when sigma=4) into symbol values."""
    if not isinstance(text, str):
        syms = tuple(int(s) for s in text)
    elif sigma == 4 and text and text[0] in _ACGT_VALUES:
        try:
            syms = tuple(_ACGT_VALUES[c] for c in text)
        except KeyError as e:
            raise ValueError(f"invalid ACGT symbol {e.args[0]!r}") from None
    else:
        check_digit_text(sigma)
        try:
            syms = tuple(int(c) for c in text)
        except ValueError:
            raise ValueError(f"invalid symbol in {text!r}") from None
    for s in syms:
        if not 0 <= s < sigma:
            raise ValueError(f"symbol {s} out of range for sigma={sigma}")
    return syms


def render_symbols(symbols: Iterable[int], sigma: int) -> str:
    """Digit text of a symbol sequence (ints, not an array); ACGT is input only."""
    check_digit_text(sigma)
    return bytes(symbols).translate(_DIGIT_BYTES).decode()


def kmer_encode(s: str | Sequence[int], sigma: int) -> int:
    """The integer code of a symbol string, first symbol most significant."""
    syms = parse_symbols(s, sigma)
    if not syms:
        raise ValueError("cannot encode an empty string")
    check_alphabet(sigma)
    code = 0
    for v in syms:
        code = code * sigma + v
    return code


def kmer_decode(code: int, sigma: int, w: int) -> str:
    """Digit text of the w-mer with this code."""
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    check_alphabet(sigma)
    if not 0 <= code < sigma**w:
        raise ValueError(f"code {code} out of range for sigma={sigma}, w={w}")
    syms = []
    for _ in range(w):
        code, r = divmod(code, sigma)
        syms.append(r)
    return render_symbols(reversed(syms), sigma)


def rotation_code(code: int, sigma: int, w: int) -> int:
    """Cyclic left rotation of a code: the successor inside its conjugacy class."""
    n = sigma**w
    return (code * sigma + code // (n // sigma)) % n


def canonical_rotation_code(code: int, sigma: int, w: int) -> int:
    """Lexicographically least rotation (the conjugacy class representative)."""
    best = code
    c = code
    for _ in range(w - 1):
        c = rotation_code(c, sigma, w)
        if c < best:
            best = c
    return best


def conjugacy_class(code: int, sigma: int, w: int) -> list[int]:
    """Codes of the distinct rotations of a w-mer, in rotation order from the
    canonical representative.  The class size equals the shortest period."""
    start = canonical_rotation_code(code, sigma, w)
    out = [start]
    c = rotation_code(start, sigma, w)
    while c != start:
        out.append(c)
        c = rotation_code(c, sigma, w)
    return out


def necklace_count(sigma: int, w: int) -> int:
    """Number of conjugacy classes of w-mers: (1/w) * sum over d|w of phi(d) sigma^(w/d)."""
    if sigma < 2 or w < 1:
        raise ValueError("need sigma >= 2 and w >= 1")
    total = 0
    for d in range(1, w + 1):
        if w % d == 0:
            total += _totient(d) * sigma ** (w // d)
    assert total % w == 0
    return total // w


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _fkm(sigma: int, n: int, lyndon: bool) -> Iterator[tuple[tuple[int, ...], int]]:
    """FKM generation in lexicographic order.

    Yields (word, period): necklace representatives of length n when
    lyndon=False, Lyndon words of length dividing n when lyndon=True.
    Steps through the prenecklaces a, p the length of a's longest Lyndon
    prefix (Duval 1983): raise the last symbol below sigma - 1 and repeat
    the prefix up to it.  a is a necklace exactly when p divides n.
    """
    a = [0] * n
    p = 1
    top = sigma - 1
    while True:
        if n % p == 0:
            yield (tuple(a[:p]) if lyndon else tuple(a)), p
        i = n - 1
        while i >= 0 and a[i] == top:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        p = i + 1
        a = (a[:p] * (n // p + 1))[:n]


def necklaces(sigma: int, w: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All conjugacy class representatives as (symbols, class size), lexicographic."""
    return _fkm(sigma, w, lyndon=False)


def debruijn_sequence(
    sigma: int, n: int, cyclic: bool = False, budget: int = DEFAULT_NODE_BUDGET
) -> str:
    """Lexicographically least de Bruijn sequence of order n (Lyndon-word concatenation).

    Linear form has length sigma**n + n - 1 and contains every n-mer exactly
    once; the cyclic form has length sigma**n.
    """
    check_alphabet(sigma)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_budget(sigma**n + n - 1, budget, "de Bruijn sequence")
    parts: list[int] = []
    for word, _ in _fkm(sigma, n, lyndon=True):
        parts.extend(word)
    if not cyclic:
        parts.extend(parts[: n - 1])
    return render_symbols(parts, sigma)
