"""Membership sets over all sigma^w w-mers, with exact serialization."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .core import (
    ACGT_VALUES,
    DEFAULT_NODE_BUDGET,
    DIGIT_VALUES,
    check_alphabet,
    check_budget,
    check_digit_text,
    kmer_encode,
)

if TYPE_CHECKING:  # the module loads fractions only where a Fraction is built
    from fractions import Fraction

_BINARY_MAGIC = b"UHS1"


def digit_rows(codes, sigma: int, w: int) -> np.ndarray:
    """The w symbols of each code, first symbol first, as an (n, w) array of
    the least unsigned dtype that holds sigma - 1 (uint8 up to sigma = 256),
    filled a digit column at a time."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty((codes.size, w), dtype=np.min_scalar_type(sigma - 1))
    for j in range(w):
        rows[:, j] = codes // sigma ** (w - 1 - j) % sigma
    return rows


def digit_lines(rows: np.ndarray) -> bytes:
    """The digit text of (n, w) uint8 symbol rows below 10, a newline-ended line per row."""
    lines = np.full((len(rows), rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(rows, ord("0"), out=lines[:, :-1])
    return lines.tobytes()


def encode_lines(lines: Iterable[str], sigma: int, w: int) -> np.ndarray:
    """int64 codes of the non-blank lines of a text file, in order.

    Each line is stripped and read as `kmer_encode` reads it, through the
    same byte table: ACGT when sigma = 4 and its first character is an ACGT
    letter, digits otherwise.  All lines are encoded together; the first line
    that is not w symbols goes through `kmer_encode` only to raise its error,
    or the wrong-length error when its symbols are good.
    """
    texts = [t for t in map(str.strip, lines) if t]
    codes = np.zeros(len(texts), dtype=np.int64)
    ok = (np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) == w) & (2 <= sigma <= 10)
    if ok.any():
        chars = "".join(t for t, good in zip(texts, ok) if good).encode("ascii", "replace")
        vals = np.frombuffer(chars.translate(DIGIT_VALUES), dtype=np.uint8).reshape(-1, w)
        if sigma == 4:
            acgt = np.frombuffer(chars.translate(ACGT_VALUES), dtype=np.uint8).reshape(-1, w)
            vals = np.where(acgt[:, :1] < sigma, acgt, vals)  # lines that start with a letter
        good = np.zeros(len(vals), dtype=np.int64)
        for j in range(w):
            good *= sigma
            good += vals[:, j]
        codes[ok] = good
        ok[ok] = (vals < sigma).all(axis=1)
    if not ok.all():
        text = texts[int(np.argmin(ok))]  # the first line that is not w symbols
        kmer_encode(text, sigma)  # a bad symbol or alphabet raises here
        raise ValueError(f"k-mer {text!r} has wrong length, expected {w}")
    return codes


def _ascii_int(text: str) -> int:
    """An ASCII decimal integer, with an optional leading "-": int() would also
    read "+", "_" and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def read_header(line: str, kind: str, error: str) -> tuple[int, int]:
    """(sigma, w) of a text header `kind sigma=S w=W`, both checked;
    ValueError(error) when the line has another form."""
    fields = line.split()
    if len(fields) != 3 or fields[0] != kind:
        raise ValueError(error)
    try:
        sigma = _ascii_int(fields[1].removeprefix("sigma="))
        w = _ascii_int(fields[2].removeprefix("w="))
    except ValueError:
        raise ValueError(error) from None
    check_alphabet(sigma)
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    return sigma, w


class KmerSet:
    """Immutable membership bitmap over all sigma^w w-mer codes.

    The set keeps the mask it is given, uncopied, and marks it read-only.
    """

    __slots__ = ("sigma", "w", "mask", "_cardinality")

    def __init__(self, sigma: int, w: int, mask: np.ndarray):
        check_alphabet(sigma)
        if w < 1:
            raise ValueError(f"w must be >= 1, got {w}")
        n = sigma**w
        if mask.shape != (n,) or mask.dtype != np.bool_:
            raise ValueError(f"mask must be a bool array of length sigma**w = {n}")
        self.sigma = sigma
        self.w = w
        mask.flags.writeable = False
        self.mask = mask
        self._cardinality = int(np.count_nonzero(mask))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_codes(
        cls, sigma: int, w: int, codes: Iterable[int], budget: int = DEFAULT_NODE_BUDGET
    ) -> "KmerSet":
        n = check_budget(sigma, w, budget, "KmerSet")
        mask = np.zeros(n, dtype=bool)
        idx = np.fromiter((int(c) for c in codes), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("code out of range")
            mask[idx] = True
        return cls(sigma, w, mask)

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.sigma**self.w

    @property
    def cardinality(self) -> int:
        return self._cardinality

    def relative_size(self) -> Fraction:
        """Exact |A| / sigma^w."""
        from fractions import Fraction

        return Fraction(self.cardinality, self.n)

    def contains_code(self, code: int) -> bool:
        return bool(self.mask[code])

    def codes(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KmerSet):
            return NotImplemented
        return (
            self.sigma == other.sigma
            and self.w == other.w
            and bool(np.array_equal(self.mask, other.mask))
        )

    def __repr__(self) -> str:
        return f"KmerSet(sigma={self.sigma}, w={self.w}, cardinality={self.cardinality})"

    # -- serialization ----------------------------------------------------

    def save_text(self, path: str) -> None:
        """One digit line per member, in code order, from its `digit_rows` in
        blocks of about 4 MiB of text; nothing is written for sigma > 10."""
        check_digit_text(self.sigma)
        codes, step = self.codes(), max(1, (1 << 22) // (self.w + 1))
        with open(path, "wb") as fh:
            fh.write(f"uhs sigma={self.sigma} w={self.w}\n".encode())
            for i in range(0, len(codes), step):
                fh.write(digit_lines(digit_rows(codes[i : i + step], self.sigma, self.w)))

    @classmethod
    def load_text(cls, path: str, budget: int = DEFAULT_NODE_BUDGET) -> "KmerSet":
        with open(path) as fh:
            sigma, w = read_header(fh.readline(), "uhs", f"bad set file header in {path}")
            mask = np.zeros(check_budget(sigma, w, budget, "KmerSet"), dtype=bool)
            mask[encode_lines(fh.read().split("\n"), sigma, w)] = True
        return cls(sigma, w, mask)

    @classmethod
    def load(cls, path: str, budget: int = DEFAULT_NODE_BUDGET) -> "KmerSet":
        """Read a set file in either format, told apart by the binary magic."""
        with open(path, "rb") as fh:
            binary = fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
        return (cls.load_binary if binary else cls.load_text)(path, budget=budget)

    def save_binary(self, path: str) -> None:
        if self.sigma > 255:
            raise ValueError("binary format stores sigma as one byte")
        packed = np.packbits(self.mask, bitorder="little")
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(bytes([self.sigma]))
            fh.write(self.w.to_bytes(4, "little"))
            fh.write(packed.tobytes())

    @classmethod
    def load_binary(cls, path: str, budget: int = DEFAULT_NODE_BUDGET) -> "KmerSet":
        with open(path, "rb") as fh:
            header = fh.read(9)  # magic, sigma as one byte, w as four little-endian bytes
            if header[:4] != _BINARY_MAGIC:
                raise ValueError(f"bad magic bytes in {path}")
            if len(header) != 9:
                raise ValueError(f"truncated set file {path}")
            sigma = header[4]
            w = int.from_bytes(header[5:], "little")
            n = check_budget(sigma, w, budget, "KmerSet")
            size = (n + 7) // 8
            raw = fh.read(size + 1)  # a byte past the mask is refused
            if len(raw) < size:
                raise ValueError(f"truncated set file {path}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            if len(raw) > size or bits[n:].any():
                raise ValueError(f"bytes or bits past the mask in set file {path}")
        return cls(sigma, w, bits[:n].view(bool))
