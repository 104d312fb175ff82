import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import hits, per_line_load_text
from uhspath.core import BudgetError, kmer_decode, kmer_encode
from uhspath.kmerset import KmerSet, encode_lines


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
        b = KmerSet.from_texts(2, 3, ["000", "101", "111"])
        assert a == b and a.cardinality == 3

    def test_relative_size(self):
        s = KmerSet.from_texts(2, 2, ["00", "10", "11"])
        assert s.relative_size() == Fraction(3, 4)
        assert KmerSet.empty(2, 5).relative_size() == 0

    def test_contains(self):
        s = KmerSet.from_texts(2, 2, ["10"])
        assert kmer_encode("10", 2) in s
        assert kmer_encode("01", 2) not in s
        with pytest.raises(ValueError):
            kmer_encode("101", 2) in s

    def test_immutability(self):
        s = KmerSet.empty(2, 3)
        with pytest.raises(ValueError):
            s.mask[0] = True

    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            KmerSet.from_codes(2, 3, [8])

    @pytest.mark.parametrize("text", ["01", "0110"])
    def test_texts_of_another_w_rejected(self, text):
        # once read as the code of a 3-mer: {001} and {110}
        named = re.escape(f"k-mer Kmer(code={int(text, 2)}, sigma=2, w={len(text)})")
        with pytest.raises(ValueError, match=named):
            KmerSet.from_texts(2, 3, ["000", text])

    def test_kmers_of_another_sigma_rejected(self):
        with pytest.raises(ValueError, match="does not match sigma=2 w=3"):
            KmerSet.from_kmers([kmer_encode("012", 3)], 2, 3)
        assert KmerSet.from_kmers([kmer_encode("011", 2)], 2, 3) == KmerSet.from_codes(2, 3, [3])

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="cannot encode an empty string"):
            KmerSet.from_texts(2, 3, [""])


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
        s = KmerSet.from_texts(2, 3, ["010"])
        p = tmp_path / "s.txt"
        s.save_text(str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "uhs sigma=2 w=3"
        assert lines[1:] == ["010"]

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
        s = KmerSet.from_texts(2, 4, ["0110", "1111"])
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

    def test_bad_alphabet_or_width_in_header(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("uhs sigma=0 w=3\n")
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 0"):
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

    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_equals_per_line_oracle(self, tmp_path, sigma):
        rng = np.random.default_rng(40 + sigma)
        pads = ["", " ", "\t", "  \t ", "\r"]
        for trial in range(30):
            w = int(rng.integers(1, 7))
            s = random_set(rng, sigma, w, p=float(rng.random()))
            lines = []
            for km in s.kmers():
                text = km.text(acgt=sigma == 4 and bool(rng.random() < 0.5))
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
                assert encode_lines(texts, sigma, w).tolist() == [kmer_encode(t, sigma).code for t in texts]


class TestHits:
    def test_hits_matches_substring_scan(self):
        rng = np.random.default_rng(1)
        s = random_set(rng, 2, 3)
        texts = {k.text() for k in s.kmers()}
        for _ in range(200):
            string = "".join(rng.choice(["0", "1"], size=rng.integers(3, 20)))
            expect = any(string[i : i + 3] in texts for i in range(len(string) - 2))
            assert hits(s, string) == expect

    def test_too_short(self):
        with pytest.raises(ValueError):
            hits(KmerSet.empty(2, 4), "011")
