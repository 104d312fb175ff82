
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import kmer_decode, orbit_count, pure_rotation, recursive_fkm, successor, symbols
from uhspath.core import (
    BudgetError,
    _fkm,
    _totient,
    canonical_rotation_code,
    check_alphabet,
    check_budget,
    conjugacy_class,
    debruijn_sequence,
    kmer_encode,
    necklace_count,
    necklaces,
    parse_symbols,
)
from uhspath.kmerset import digit_lines


def outcome(fn, *args):
    """fn's value, or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def per_symbol(text, sigma):
    """parse_symbols of digit text, one int() per character, as its outcome."""
    try:
        syms = tuple(int(c) for c in text)
    except ValueError:
        return ValueError, f"invalid symbol in {text!r}"
    bad = [s for s in syms if s >= sigma]
    return (ValueError, f"symbol {bad[0]} out of range for sigma={sigma}") if bad else syms


class TestEncoding:
    def test_encode_decode_examples(self):
        assert kmer_encode("ACGT", 4) == 0 * 64 + 1 * 16 + 2 * 4 + 3
        assert kmer_decode(27, 4, 4) == "0123"
        assert kmer_decode(kmer_encode("ACGT", 4), 4, 4) == "0123"  # ACGT is read, digits are written
        with pytest.raises(ValueError, match="cannot encode an empty string"):
            kmer_encode("", 2)

    def test_acgt_parsing(self):
        assert parse_symbols("ACGT", 4) == (0, 1, 2, 3)
        assert parse_symbols("0123", 4) == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            parse_symbols("ACGU", 4)

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError):
            parse_symbols("012", 2)
        with pytest.raises(ValueError, match="code 4 out of range for sigma=2, w=2"):
            kmer_decode(4, 2, 2)
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            kmer_decode(0, 1, 2)
        with pytest.raises(ValueError, match="w must be >= 1, got 0"):
            kmer_decode(0, 2, 0)

    def test_encode_error_order(self):
        # symbol errors, then the empty string, then the alphabet
        with pytest.raises(ValueError, match="symbol 1 out of range for sigma=1"):
            kmer_encode([1], 1)
        with pytest.raises(ValueError, match="cannot encode an empty string"):
            kmer_encode("", 1)
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            kmer_encode("0", 1)

    @pytest.mark.parametrize(
        "text,sigma,message",
        [
            ("ACGU", 4, "invalid ACGT symbol 'U'"),
            ("AC-GT", 4, "invalid ACGT symbol '-'"),
            ("A0", 4, "invalid ACGT symbol '0'"),
            ("01x2", 4, "invalid symbol in '01x2'"),
            ("0A", 4, "invalid symbol in '0A'"),
            ("0 1", 2, "invalid symbol in '0 1'"),
            ("0120", 2, "symbol 2 out of range for sigma=2"),
            ("0190", 4, "symbol 9 out of range for sigma=4"),
            ("012", 11, "digit text form only supports sigma <= 10"),
            ("01", 0, "symbol 0 out of range for sigma=0"),
            ("01", -1, "symbol 0 out of range for sigma=-1"),
        ],
    )
    def test_parse_errors_name_the_first_bad_symbol(self, text, sigma, message):
        with pytest.raises(ValueError) as err:
            parse_symbols(text, sigma)
        assert str(err.value) == message

    @given(st.data())
    def test_bulk_parse_equals_per_symbol(self, data):
        # the byte-table conversion against one int() per digit, on text that
        # may hold control characters, which a partial table would read as
        # the symbols chr(0) to chr(9), and non-ASCII digits, which int() reads
        others = st.sampled_from([chr(i) for i in range(10)] + ["\u0661", "\u0966", "\uff19", "\u00e9"])

        def word(symbols, first=st.just("")):
            # all symbols (the bulk path), or symbols and others mixed
            chars = symbols if data.draw(st.booleans()) else st.one_of(symbols, others)
            return data.draw(first) + "".join(data.draw(st.lists(chars, max_size=40)))

        sigma = data.draw(st.integers(2, 10))
        text = word(st.sampled_from("0123456789"[:sigma]))
        assert outcome(parse_symbols, text, sigma) == per_symbol(text, sigma)
        acgt = word(st.sampled_from("ACGT"), first=st.sampled_from("ACGT"))
        bad = [c for c in acgt if c not in "ACGT"]
        if bad:
            expect = ValueError, f"invalid ACGT symbol {bad[0]!r}"
        else:
            expect = tuple(map("ACGT".index, acgt))
        assert outcome(parse_symbols, acgt, 4) == expect

    def test_parse_other_unicode_digits(self):
        # non-ASCII decimal digits still read as their values, as int() reads them
        assert parse_symbols("0\u0661", 2) == (0, 1)

    def test_alphabet(self):
        # ACGT is read, and written back as digits
        assert digit_lines(np.array([parse_symbols("GATTACA", 4)], dtype=np.uint8)) == b"2033010\n"
        with pytest.raises(ValueError):
            check_alphabet(1)

    @given(st.integers(2, 6), st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_roundtrip(self, sigma, syms):
        syms = [s % sigma for s in syms]
        code = kmer_encode(syms, sigma)
        assert list(symbols(code, sigma, len(syms))) == syms
        assert kmer_encode(kmer_decode(code, sigma, len(syms)), sigma) == code


class TestGraphMoves:
    def test_successor_drops_first_symbol(self):
        x = kmer_encode("0110", 2)
        assert kmer_decode(successor(x, 2, 4, 1), 2, 4) == "1101"
        assert kmer_decode(successor(x, 2, 4, 0), 2, 4) == "1100"

    def test_pure_rotation_stays_in_class(self):
        x = kmer_encode("0110", 2)
        r = pure_rotation(x, 2, 4)
        assert kmer_decode(r, 2, 4) == "1100"
        assert canonical_rotation_code(r, 2, 4) == canonical_rotation_code(x, 2, 4)

    def test_conjugacy_class_size_is_period(self):
        assert len(conjugacy_class(kmer_encode("0101", 2), 2, 4)) == 2
        assert len(conjugacy_class(kmer_encode("0000", 2), 2, 4)) == 1
        assert len(conjugacy_class(kmer_encode("0011", 2), 2, 4)) == 4

    def test_class_rotation_order(self):
        cls = conjugacy_class(kmer_encode("110", 2), 2, 3)
        assert [kmer_decode(c, 2, 3) for c in cls] == ["011", "110", "101"]


class TestNecklaces:
    @pytest.mark.parametrize(
        "sigma,w,count", [(2, 5, 8), (2, 6, 14), (4, 2, 10), (2, 2, 3), (3, 3, 11)]
    )
    def test_known_counts(self, sigma, w, count):
        assert necklace_count(sigma, w) == count

    @pytest.mark.parametrize("sigma,w", [(2, w) for w in range(1, 11)] + [(3, 5), (4, 4)])
    def test_formula_matches_brute_orbits(self, sigma, w):
        assert necklace_count(sigma, w) == orbit_count(sigma, w)

    def test_fkm_matches_canonical_reps(self):
        for sigma, w in [(2, 6), (3, 4)]:
            reps = {kmer_encode(list(map(ord, word)), sigma) for word, _ in necklaces(sigma, w)}
            assert reps == {canonical_rotation_code(c, sigma, w) for c in range(sigma**w)}

    def test_enumerate_classes_partitions(self):
        # the necklaces' conjugacy classes, as the MDS census builds them
        classes = [
            conjugacy_class(kmer_encode(list(map(ord, word)), 2), 2, 6) for word, _ in necklaces(2, 6)
        ]
        all_codes = sorted(c for members in classes for c in members)
        assert all_codes == list(range(64))
        assert [size for _, size in necklaces(2, 6)] == [len(m) for m in classes]

    @pytest.mark.parametrize("lyndon", [False, True])
    @pytest.mark.parametrize("sigma", [2, 3, 4, 5, 7, 10, 11, 12])
    def test_fkm_matches_recursive(self, sigma, lyndon):
        # words are str of code points chr(v), so every sigma works; sigma <= 5
        # runs every n, the larger alphabets stop past 2^16 words
        for n in range(1, 9):
            if sigma > 5 and sigma**n > 1 << 16:
                break
            got = [(tuple(map(ord, word)), p) for word, p in _fkm(sigma, n, lyndon)]
            assert got == list(recursive_fkm(sigma, n, lyndon)), n

    @pytest.mark.parametrize("sigma", [2, 3, 10])
    def test_count_over_divisor_pairs(self, sigma):
        # the pairs (d, w/d), d <= sqrt(w), against the sum over every d <= w
        for w in list(range(1, 200)) + [360, 997, 1024, 2310]:
            every = sum(_totient(d) * sigma ** (w // d) for d in range(1, w + 1) if w % d == 0)
            assert necklace_count(sigma, w) == every // w


class TestCheckBudget:
    def test_returns_the_power(self):
        assert check_budget(3, 4, budget=81) == 81
        assert check_budget(12, 1, budget=12) == 12
        assert check_budget(10**30, 0) == 1

    def test_message_names_the_size(self):
        with pytest.raises(BudgetError, match=r"^fsm matrix needs 82 states, budget is 81$"):
            check_budget(82, 1, budget=81, what="fsm matrix")
        with pytest.raises(BudgetError, match=r"^x needs 1099511627776 states, budget is 268435456$"):
            check_budget(2, 40, what="x")

    def test_lower_bound_past_the_cap(self):
        # 8^(2^20 + 1) = 2^3145731 is past the 2^20-bit cap: refused unbuilt
        with pytest.raises(BudgetError, match=r"^x needs at least 2\^3145731 states, budget is 1$"):
            check_budget(8, (1 << 20) + 1, budget=1, what="x")


class TestDeBruijnSequence:
    def test_order_2(self):
        assert debruijn_sequence(2, 2) == "00110"

    @pytest.mark.parametrize("sigma,n", [(2, 3), (2, 6), (3, 3), (4, 3)])
    def test_every_nmer_once(self, sigma, n):
        s = debruijn_sequence(sigma, n)
        assert len(s) == sigma**n + n - 1
        windows = {s[i : i + n] for i in range(sigma**n)}
        assert len(windows) == sigma**n

    def test_cyclic_form(self):
        s = debruijn_sequence(2, 4, cyclic=True)
        assert len(s) == 16
        doubled = s + s[:3]
        assert len({doubled[i : i + 4] for i in range(16)}) == 16

    def test_lexicographically_least(self):
        # brute force: the cyclic form must be minimal among all de Bruijn cycles'
        # rotations; check a necessary condition instead of full enumeration
        s = debruijn_sequence(2, 3, cyclic=True)
        assert s == min(s[i:] + s[:i] for i in range(len(s)))
        assert s.startswith("000")

    def test_budget(self):
        with pytest.raises(BudgetError):
            debruijn_sequence(2, 30, budget=1 << 20)

    def test_budget_names_the_sequence_length(self):
        # the gate names a sigma^n past the budget; below it, all sigma^n + n - 1 symbols count
        with pytest.raises(BudgetError, match=r"^de Bruijn sequence needs 19 states, budget is 18$"):
            debruijn_sequence(2, 4, budget=18)
        with pytest.raises(BudgetError, match=r"^de Bruijn sequence needs 16 states, budget is 15$"):
            debruijn_sequence(2, 4, budget=15)
        assert len(debruijn_sequence(2, 4, budget=19)) == 19

    @pytest.mark.parametrize("n", [0, -2])
    def test_order_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            debruijn_sequence(2, n)
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            debruijn_sequence(3, n, cyclic=True)
