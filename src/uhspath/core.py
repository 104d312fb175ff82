"""Alphabet and w-mer primitives on the implicit de Bruijn graph.

w-mers are packed as integers in base sigma with the first symbol as the
most significant digit, so walking an edge of the de Bruijn graph is a
single multiply-add: the edge from x that appends symbol a ends at code
(x * sigma + a) mod sigma**w.  The graph itself is never materialized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

ACGT = "ACGT"
_DIGITS = "0123456789"
#: bytes.translate tables from digit and ACGT text, encoded as ASCII with "?" for
#: any other character, to symbol values; every other byte reads 255, no symbol.
DIGIT_VALUES, ACGT_VALUES = (
    bytes(s.index(chr(b)) if chr(b) in s else 255 for b in range(256)) for s in (_DIGITS, ACGT)
)
#: str.translate table from symbol code points (chr(v), the FKM words) to digits.
DIGIT_TEXT = str.maketrans({chr(v): d for v, d in enumerate(_DIGITS)})
# base**exp is not built past this many bits (see check_budget)
_POWER_BITS = 1 << 20

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


def check_budget(
    base: int, exp: int, budget: int = DEFAULT_NODE_BUDGET, what: str = "operation"
) -> int:
    """base**exp, the size of a stage, once it fits the budget.  When its lower
    bound 2^(exp * floor(log2 base)) already has more than _POWER_BITS bits and
    passes the budget, the check fails without building base**exp."""
    low = exp * (base.bit_length() - 1)
    if low > max(_POWER_BITS, budget.bit_length()):
        raise BudgetError(f"{what} needs at least 2^{low} states, budget is {_count(budget)}")
    n = base**exp
    if n > budget:
        raise BudgetError(f"{what} needs {_count(n)} states, budget is {_count(budget)}")
    return n


def check_alphabet(sigma: int) -> None:
    if sigma < 2:
        raise ValueError(f"alphabet size must be >= 2, got {sigma}")


def check_digit_text(sigma: int) -> None:
    if sigma > 10:
        raise ValueError("digit text form only supports sigma <= 10")


def parse_symbols(text: str | Sequence[int], sigma: int) -> tuple[int, ...]:
    """Turn a digit string (or an ACGT string when sigma=4) into symbol values.

    Every character is read through one byte table, ASCII digits or ACGT
    letters; any other character, non-ASCII digits among them, is no symbol.
    """
    if isinstance(text, str):
        check_digit_text(sigma)  # one character per symbol; ACGT is sigma = 4
        acgt = sigma == 4 and text != "" and text[0] in ACGT
        values = text.encode("ascii", "replace").translate(ACGT_VALUES if acgt else DIGIT_VALUES)
        if not values.translate(None, bytes(range(sigma))):
            return tuple(values)
        if acgt:
            bad = next(c for c in text if c not in ACGT)
            raise ValueError(f"invalid ACGT symbol {bad!r}")
        if 255 in values:
            raise ValueError(f"invalid symbol in {text!r}")
        syms = tuple(values)
    else:
        syms = tuple(int(s) for s in text)
    for s in syms:
        if not 0 <= s < sigma:
            raise ValueError(f"symbol {s} out of range for sigma={sigma}")
    return syms


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


def rotation_code(code: int, sigma: int, w: int) -> int:
    """Cyclic left rotation of a code: the successor inside its conjugacy class."""
    n = sigma**w
    return (code * sigma + code // (n // sigma)) % n


def necklace_count(sigma: int, w: int) -> int:
    """Number of conjugacy classes of w-mers: (1/w) * sum over d|w of phi(d) sigma^(w/d),
    the divisors taken in pairs (d, w/d) with d <= sqrt(w)."""
    if sigma < 2 or w < 1:
        raise ValueError("need sigma >= 2 and w >= 1")
    total = 0
    d = 1
    while d * d <= w:
        if w % d == 0:
            total += _totient(d) * sigma ** (w // d)
            if d * d < w:
                total += _totient(w // d) * sigma**d
        d += 1
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


def _fkm(sigma: int, n: int, lyndon: bool) -> Iterator[tuple[str, int]]:
    """FKM generation in lexicographic order (Ruskey, Savage and Wang 1992).

    Yields (word, period), the word a str of symbol code points chr(v):
    necklace representatives of length n when lyndon=False, Lyndon words of
    length dividing n when lyndon=True.  Steps through the prenecklaces a,
    p the length of a's longest Lyndon prefix (Duval 1983): raise the last
    symbol below sigma - 1 and repeat the prefix up to it.  a is a necklace
    exactly when p divides n.  Raising the last symbol gives p = n, so a
    prenecklace's run of last-symbol raises comes out in one step.
    """
    top = chr(sigma - 1)
    a, p = chr(0) * n, 1
    while True:
        if n % p == 0:
            yield (a[:p] if lyndon else a), p
        head = a[:-1]
        for v in range(ord(a[-1]) + 1, sigma):
            yield head + chr(v), n
        stem = head.rstrip(top)  # a is now head + top
        if not stem:
            return
        p = len(stem)
        a = ((stem[:-1] + chr(ord(stem[-1]) + 1)) * (n // p + 1))[:n]


def necklaces(sigma: int, w: int) -> Iterator[tuple[str, int]]:
    """All conjugacy class representatives as (word, class size), lexicographic;
    the word is a str of symbol code points chr(v) (`DIGIT_TEXT` renders it)."""
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
    words = check_budget(sigma, n, budget, "de Bruijn sequence")
    check_budget(words + n - 1, 1, budget, "de Bruijn sequence")
    check_digit_text(sigma)
    seq = "".join(word for word, _ in _fkm(sigma, n, lyndon=True))
    if not cyclic:
        seq += seq[: n - 1]
    return seq.translate(DIGIT_TEXT)
