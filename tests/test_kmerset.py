import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import hits, kmer_decode, kmer_sets, per_line_load_text, symbols
from uhspath.core import BudgetError, kmer_encode
from uhspath.kmerset import KmerSet, digit_lines, digit_rows, encode_lines
from uhspath.mykkeltveit import build_mykkeltveit_set


def random_set(rng, sigma, w, p=0.3):
    return KmerSet(sigma, w, rng.random(sigma**w) < p)


def outcome(load, path):
    """The loaded set, or the type and text of the error it raised."""
    try:
        return load(path)
    except Exception as e:  # compared by type and message
        return type(e), str(e)


class TestBasics:
    def test_constructors_agree(self):
        a = KmerSet.from_codes(2, 3, [0, 5, 7])
        b = KmerSet.from_codes(2, 3, encode_lines(["000", "101", "111"], 2, 3))
        c = KmerSet(2, 3, np.isin(np.arange(8), [0, 5, 7]))
        assert a == b == c and a.cardinality == 3

    def test_relative_size(self):
        s = KmerSet.from_codes(2, 2, encode_lines(["00", "10", "11"], 2, 2))
        assert s.relative_size() == Fraction(3, 4)
        assert KmerSet(2, 5, np.zeros(32, dtype=bool)).relative_size() == 0

    def test_contains(self):
        s = KmerSet.from_codes(2, 2, encode_lines(["10"], 2, 2))
        assert s.contains_code(kmer_encode("10", 2))
        assert not s.contains_code(kmer_encode("01", 2))
        assert s.codes().tolist() == [2]

    def test_immutability(self):
        s = KmerSet(2, 3, np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            s.mask[0] = True

    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            KmerSet.from_codes(2, 3, [8])

    @pytest.mark.parametrize("text", ["01", "0110"])
    def test_texts_of_another_w_rejected(self, text):
        # never read as the code of some 3-mer ({001} or {110})
        with pytest.raises(ValueError, match=f"^k-mer '{text}' has wrong length, expected 3$"):
            encode_lines(["000", text], 2, 3)


class TestSerialization:
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 2**30))
    def test_roundtrips(self, sigma, w, seed):
        import tempfile, os

        rng = np.random.default_rng(seed)
        s = random_set(rng, sigma, w)
        with tempfile.TemporaryDirectory() as d:
            t, b = os.path.join(d, "s.txt"), os.path.join(d, "s.bin")
            s.save_text(t)
            s.save_binary(b)
            assert KmerSet.load_text(t) == s
            assert KmerSet.load_binary(b) == s

    def test_text_header(self, tmp_path):
        s = KmerSet.from_codes(2, 3, [0b010])
        p = tmp_path / "s.txt"
        s.save_text(str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "uhs sigma=2 w=3"
        assert lines[1:] == ["010"]

    @given(data=st.data())
    def test_text_bytes_are_decoded_members(self, data):
        # the bulk writer against one kmer_decode per member
        import tempfile, os

        sigma = data.draw(st.integers(2, 10))
        s = data.draw(kmer_sets(sigma, max_nodes=1 << 10))
        expect = f"uhs sigma={sigma} w={s.w}\n" + "".join(
            kmer_decode(int(c), sigma, s.w) + "\n" for c in s.codes()
        )
        with tempfile.TemporaryDirectory() as d:
            t = os.path.join(d, "s.txt")
            s.save_text(t)
            with open(t, "rb") as fh:
                assert fh.read() == expect.encode()

    @pytest.mark.parametrize("sigma,dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_digit_rows_are_symbols(self, sigma, dtype):
        # past 256 symbols the rows widen, as the Mykkeltveit build needs at w = 2
        codes = [0, 1, sigma - 1, sigma**2 + 3, sigma**3 - 1]
        rows = digit_rows(codes, sigma, 3)
        assert rows.dtype == dtype
        assert [tuple(r) for r in rows.tolist()] == [symbols(c, sigma, 3) for c in codes]

    def test_text_spans_blocks(self, tmp_path):
        # about 700,000 lines of 7 bytes: save_text renders two 4 MiB blocks
        s = random_set(np.random.default_rng(5), 10, 6, p=0.7)
        p = tmp_path / "s.txt"
        s.save_text(str(p))
        assert p.stat().st_size == len("uhs sigma=10 w=6\n") + 7 * s.cardinality > 1 << 22
        assert KmerSet.load_text(str(p)) == s

    @given(st.integers(0, 6), st.integers(1, 12), st.data())
    def test_digit_lines_equals_str_join(self, n, w, data):
        # the one digit-row renderer against one str() per symbol, n = 0 included
        row = st.lists(st.integers(0, 9), min_size=w, max_size=w)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        expect = "".join("".join(map(str, row)) + "\n" for row in rows)
        assert digit_lines(np.array(rows, dtype=np.uint8).reshape(n, w)) == expect.encode()

    def test_text_save_beyond_ten_symbols_writes_nothing(self, tmp_path):
        p = tmp_path / "s.txt"
        for mask in (np.zeros(11, dtype=bool), np.ones(11, dtype=bool)):
            with pytest.raises(ValueError, match="digit text form only supports sigma <= 10"):
                KmerSet(11, 1, mask).save_text(str(p))
            assert not p.exists()

    def test_binary_layout(self, tmp_path):
        s = KmerSet.from_codes(2, 3, [0, 7])
        p = tmp_path / "s.bin"
        s.save_binary(str(p))
        raw = p.read_bytes()
        assert raw[:4] == b"UHS1"
        assert raw[4] == 2
        assert int.from_bytes(raw[5:9], "little") == 3
        assert raw[9] == 0b10000001  # bit i = membership of code i, LSB first

    def test_load_tells_formats_apart(self, tmp_path, monkeypatch):
        s = KmerSet.from_codes(2, 4, [0b0110, 0b1111])
        t, b = str(tmp_path / "s.txt"), str(tmp_path / "s.bin")
        s.save_text(t)
        s.save_binary(b)
        calls = []
        for name in ("load_text", "load_binary"):
            real = getattr(KmerSet, name).__func__

            def counting(cls, path, budget, _real=real, _name=name):
                calls.append(_name)
                return _real(cls, path, budget=budget)

            monkeypatch.setattr(KmerSet, name, classmethod(counting))
        assert KmerSet.load(t) == s and KmerSet.load(b) == s
        assert calls == ["load_text", "load_binary"]
        with pytest.raises(BudgetError):
            KmerSet.load(b, budget=15)

    def test_bad_files(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("nope\n")
        with pytest.raises(ValueError):
            KmerSet.load_text(str(p))
        p.write_bytes(b"XXXX\x02\x03\x00\x00\x00")
        with pytest.raises(ValueError):
            KmerSet.load_binary(str(p))
        for header in ("uhs sigma=x w=3", "uhs sigma=2 w=", "uhs w=3 sigma=2"):
            p.write_text(header + "\n000\n")
            with pytest.raises(ValueError, match=f"^bad set file header in {p}$"):
                KmerSet.load_text(str(p))
        for raw in (b"UHS1", b"UHS1\x02\x03\x00"):  # shorter than the 9-byte header
            p.write_bytes(raw)
            with pytest.raises(ValueError, match=f"^truncated set file {p}$"):
                KmerSet.load_binary(str(p))

    def test_bad_alphabet_or_width_in_header(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("uhs sigma=0 w=3\n")
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 0"):
            KmerSet.load_text(str(p))
        p.write_text("uhs sigma=-2 w=3\n")
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got -2"):
            KmerSet.load_text(str(p))
        for w in (0, -1):  # sigma**-1 is no array length
            p.write_text(f"uhs sigma=2 w={w}\n0\n")
            with pytest.raises(ValueError, match=f"^w must be >= 1, got {w}$"):
                KmerSet.load_text(str(p))
        # binary header: magic, sigma as one byte, w as four little-endian bytes
        p.write_bytes(b"UHS1\x01\x05\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            KmerSet.load_binary(str(p))
        p.write_bytes(b"UHS1\x02\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="w must be >= 1, got 0"):
            KmerSet.load_binary(str(p))


class TestVectorisedParse:
    """load_text encodes its lines in bulk; the per-line reader is the oracle."""

    def test_load_text_bytes_per_symbol(self, tmp_path):
        # the Mykkeltveit set at sigma = 2, w = 20: 52,488 lines of 20 symbols,
        # read through byte tables into uint8 symbols (9.2 B/symbol measured;
        # 17.2 when each symbol was looked up as an int64)
        kset = build_mykkeltveit_set(2, 20)
        path = str(tmp_path / "m20.txt")
        kset.save_text(path)
        tracemalloc.start()
        try:
            loaded = KmerSet.load_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == kset
        assert peak <= 12 * kset.cardinality * kset.w

    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_equals_per_line_oracle(self, tmp_path, sigma):
        rng = np.random.default_rng(40 + sigma)
        pads = ["", " ", "\t", "  \t ", "\r"]
        for trial in range(30):
            w = int(rng.integers(1, 7))
            s = random_set(rng, sigma, w, p=float(rng.random()))
            lines = []
            for c in s.codes():
                text = kmer_decode(int(c), sigma, w)
                if sigma == 4 and rng.random() < 0.5:
                    text = "".join("ACGT"[int(d)] for d in text)
                lines.append(rng.choice(pads) + text + rng.choice(pads))
                if rng.random() < 0.2:
                    lines.append(rng.choice(pads))  # blank line
            p = tmp_path / f"s{trial}.txt"
            p.write_text(f"uhs sigma={sigma} w={w}\n" + "\n".join(lines) + "\n" * int(rng.integers(0, 3)))
            got = KmerSet.load_text(str(p))
            assert got == per_line_load_text(str(p)) == s

    @pytest.mark.parametrize(
        "sigma,w,body",
        [
            (2, 3, ["010", "01", "111"]),  # wrong length
            (2, 3, ["010", "0110"]),  # wrong length, longer
            (3, 2, ["01", "13", "2"]),  # symbol out of range before a wrong length
            (2, 2, ["01", "0x"]),  # not a digit
            (4, 3, ["ACG", "ACX"]),  # bad ACGT symbol
            (4, 3, ["ACG", "A1G"]),  # digit inside an ACGT line
            (4, 3, ["012", "0C1"]),  # letter inside a digit line
            (4, 3, ["ACG", "AC"]),  # short ACGT line
            (2, 2, ["01", "\u0661\u0660"]),  # non-ASCII digits, which int() reads
            (2, 2, ["01", "1\u00e9"]),  # non-ASCII letter
            (12, 1, ["1"]),  # digit text needs sigma <= 10
            (1, 2, ["00"]),  # one-letter alphabet
            (2, 0, ["0"]),  # no line has length 0
            (2, 3, []),  # empty file body
            (2, 3, ["", "   "]),  # only blank lines
        ],
    )
    def test_error_text_parity(self, tmp_path, sigma, w, body):
        p = tmp_path / "bad.txt"
        p.write_text(f"uhs sigma={sigma} w={w}\n" + "\n".join(body) + "\n")
        assert outcome(KmerSet.load_text, str(p)) == outcome(per_line_load_text, str(p))

    @pytest.mark.parametrize("sigma", [2, 4, 10])
    def test_control_characters_are_no_symbols(self, tmp_path, sigma):
        # chr(0) to chr(9) read 255 in the byte tables, not symbols 0 to 9
        p = tmp_path / "bad.txt"
        for c in map(chr, range(10)):
            p.write_text(f"uhs sigma={sigma} w=2\n01\n1{c}\n")
            got = outcome(KmerSet.load_text, str(p))
            assert got == outcome(per_line_load_text, str(p)) and got[0] is ValueError

    def test_error_names_the_first_bad_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("uhs sigma=2 w=3\n010\n 01 \n2222\n")
        with pytest.raises(ValueError, match=r"^k-mer '01' has wrong length, expected 3$"):
            KmerSet.load_text(str(p))
        p.write_text("uhs sigma=4 w=3\nACG\nAXG\n01\n")
        with pytest.raises(ValueError, match=r"^invalid ACGT symbol 'X'$"):
            KmerSet.load_text(str(p))
        p.write_text("uhs sigma=3 w=2\n01\n13\n")
        with pytest.raises(ValueError, match=r"^symbol 3 out of range for sigma=3$"):
            KmerSet.load_text(str(p))

    def test_encode_lines_equals_kmer_encode(self):
        rng = np.random.default_rng(44)
        for sigma in (2, 3, 4, 7, 10):
            for w in (1, 4, 9):
                codes = rng.integers(0, sigma**w, size=50)
                texts = [kmer_decode(int(c), sigma, w) for c in codes]
                assert encode_lines(texts, sigma, w).tolist() == [kmer_encode(t, sigma) for t in texts]


class TestHits:
    def test_hits_matches_substring_scan(self):
        rng = np.random.default_rng(1)
        s = random_set(rng, 2, 3)
        texts = {kmer_decode(int(c), 2, 3) for c in s.codes()}
        for _ in range(200):
            string = "".join(rng.choice(["0", "1"], size=rng.integers(3, 20)))
            expect = any(string[i : i + 3] in texts for i in range(len(string) - 2))
            assert hits(s, string) == expect

    def test_too_short(self):
        with pytest.raises(ValueError):
            hits(KmerSet(2, 4, np.zeros(16, dtype=bool)), "011")
