import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import (
    compatible_rank,
    estimate,
    kmer_decode,
    picks,
    select,
    selected_mask,
    selection_schemes,
    symbol_lists,
)
from uhspath import schemes
from uhspath.core import BudgetError, debruijn_sequence, parse_symbols
from uhspath.forbidden import build_forbidden_set
from uhspath.kmerset import KmerSet
from uhspath.paths import longest_remaining_path
from uhspath.schemes import (
    EXPECTED_ESTIMATE,
    EXPECTED_EXACT,
    MINIMIZER,
    TABLE,
    SelectionScheme,
    build_compatible_minimizer,
    digit_slice,
    estimate_density,
    expected_density,
    is_forward,
    load_minimizer_order,
    load_scheme_table,
    minimizer_scheme,
    particular_density,
    scheme_values,
    table_scheme,
    _codes,
    _leftmost_min,
    _string_selected,
)

WORKED_SEQ = "CACTGCTGTACCTCTTCT"


def save_scheme_table(scheme, path):
    """Write a scheme as a table file: a header, then each window and its pick."""
    fv = scheme_values(scheme)
    ws = scheme.window_symbols
    with open(path, "w") as fh:
        fh.write(f"scheme sigma={scheme.sigma} w={ws}\n")
        for code, p in enumerate(fv):
            fh.write(f"{kmer_decode(code, scheme.sigma, ws)} {int(p)}\n")


def save_minimizer_order(scheme, path):
    """Write a minimizer's k-mers in rank order, one per line."""
    with open(path, "w") as fh:
        for code in np.argsort(scheme.rank, kind="stable"):
            fh.write(kmer_decode(int(code), scheme.sigma, scheme.k) + "\n")


class TestSelect:
    def test_worked_example_windows(self):
        sch = minimizer_scheme(4, 3, 5)
        assert select(sch, "CACTGCT") == 1  # minimum 3-mer ACT
        assert select(sch, "TGCTGTA") == 2  # minimum 3-mer CTG, leftmost
        assert select(sch, [0, 0, 0, 0, 0, 0, 0]) == 0

    def test_constant_table(self):
        t = table_scheme(2, 3, [0] * 8)
        assert select(t, "101") == 0

    def test_window_length_checked(self):
        with pytest.raises(ValueError):
            select(minimizer_scheme(4, 3, 5), "ACGT")

    def test_leftmost_tie_break(self):
        sch = minimizer_scheme(2, 1, 3)
        assert select(sch, "000") == 0
        assert select(sch, "101") == 1


class TestParticularDensity:
    def test_worked_example_positions(self):
        sch = minimizer_scheme(4, 3, 5)
        res = particular_density(sch, WORKED_SEQ)
        assert res.density == Fraction(6, 16)
        selected = _string_selected(sch, parse_symbols(WORKED_SEQ, 4), False)
        positions = set(np.flatnonzero(selected).tolist())
        assert positions == {1, 2, 5, 9, 10, 11}

    def test_constant_scheme_density_one(self):
        t = table_scheme(2, 4, [0] * 16)
        assert particular_density(t, "010011010").density == 1

    def test_one_mer_minimizer_cyclic(self):
        sch = minimizer_scheme(2, 1, 2)
        res = particular_density(sch, "00010111", cyclic=True)
        assert res.density == Fraction(6, 8)

    def test_too_short(self):
        with pytest.raises(ValueError):
            particular_density(minimizer_scheme(2, 3, 4), "00100")

    @given(data=st.data())
    def test_matches_straight_line_reimplementation(self, data):
        sigma = data.draw(st.integers(2, 3))
        sch = data.draw(selection_schemes(sigma))
        s = data.draw(symbol_lists(sigma, sch.window_symbols, max_extra=20))
        res = particular_density(sch, s, cyclic=True)
        assert res.density == Fraction(len(set(picks(sch, s, cyclic=True))), len(s))


@st.composite
def fixed_span_schemes(draw):
    """Minimizers with k = span and tables with span-symbol windows, for spans
    that are not powers of two: their codes take doubling plus a Horner tail."""
    span = draw(st.sampled_from([1, 3, 5, 7, 17]))
    sigma = 2 if span > 7 else 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["order", "lexicographic", "table"]))
    if kind == "order":
        return minimizer_scheme(sigma, span, draw(st.integers(1, 5)), rng.permutation(sigma**span))
    if kind == "lexicographic":
        return minimizer_scheme(sigma, span, 1)
    return table_scheme(sigma, span, rng.integers(0, span, size=sigma**span))


class TestSelectionKernel:
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @given(data=st.data())
    def test_equals_rolling_oracle(self, chunk, data):
        # the kernel's mask against select on every window; pieces of 1 and 7
        # symbols put seams everywhere
        sch = data.draw(st.one_of(st.integers(2, 4).flatmap(selection_schemes), fixed_span_schemes()))
        cyclic = data.draw(st.booleans())
        syms = data.draw(symbol_lists(sch.sigma, sch.window_symbols))
        with mock.patch.object(schemes, "_CHUNK", chunk or schemes._CHUNK):
            got = _string_selected(sch, syms, cyclic)
        assert got.tolist() == selected_mask(sch, syms, cyclic).tolist()

    @pytest.mark.parametrize(
        "sigma,span", [(2, 30), (2, 31), (2, 32), (3, 19), (3, 20), (10, 9), (10, 10), (4, 13)]
    )
    def test_codes_both_sides_of_int32(self, sigma, span):
        # _selected builds codes in int32 while sigma^span < 2^31, else in int64
        dtype = np.int32 if sigma**span < 1 << 31 else np.int64
        rng = np.random.default_rng(sigma * 100 + span)
        buf = rng.integers(0, sigma, size=span + 50).astype(dtype)
        buf[:span] = sigma - 1  # the largest code, sigma^span - 1, comes first
        got = _codes(buf, sigma, span)
        s = buf.tolist()
        want = [sum(v * sigma ** (span - 1 - j) for j, v in enumerate(s[i : i + span])) for i in range(51)]
        assert got.dtype == dtype
        assert got.tolist() == want and want[0] == sigma**span - 1

    def test_non_forward_tables_covered(self):
        # the examples the kernel property draws reach tables that are not forward
        drawn = []

        @given(st.integers(2, 4).flatmap(selection_schemes))
        def record(sch):
            drawn.append(sch.kind == TABLE and not is_forward(sch))

        record()
        assert sum(drawn) >= 5

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_estimate_selected_equals_oracle(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(schemes, "_CHUNK", chunk)
        rng = np.random.default_rng(21)
        cases = [
            table_scheme(3, 3, rng.integers(0, 3, size=27)),
            minimizer_scheme(4, 3, 5, rng.permutation(64)),
        ]
        for seed, sch in enumerate(cases):
            assert estimate_density(sch, sample_symbols=4000, seed=seed) == estimate(sch, 4000, seed)


class TestLeftmostMin:
    @pytest.mark.parametrize("w", [1, 2, 3, 5, 12, 16, 31])
    @pytest.mark.parametrize("distinct", [2, 5, 1 << 20])
    def test_equals_argmin_oracle(self, w, distinct):
        # few distinct ranks put ties in most windows; the leftmost must win
        rng = np.random.default_rng(w * 100 + distinct % 97)
        for m in (w, w + 1, w + 37, 3000):
            rank = rng.integers(0, distinct, size=m)
            expect = sliding_window_view(rank, w).argmin(axis=1)
            got = _leftmost_min(rank, w)
            assert got.tolist() == (np.arange(m - w + 1) + expect).tolist()


class TestStreamingDraw:
    """The sample is drawn and consumed piece by piece; one whole draw is the oracle."""

    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_estimate_equals_single_draw(self, monkeypatch, sigma):
        # pieces of 16 symbols, half the minimizer's window
        chunk = 16
        monkeypatch.setattr(schemes, "_CHUNK", chunk)
        rng = np.random.default_rng(50 + sigma)
        cases = [
            minimizer_scheme(sigma, 3, 30, rng.permutation(sigma**3)),  # a window of 32 symbols
            table_scheme(sigma, 3, rng.integers(0, 3, size=sigma**3)),
        ]
        for sch in cases:
            ws = sch.window_symbols
            for size in (max(ws, schemes._BATCHES), 5 * chunk - 1, 5 * chunk + ws, 9 * chunk + 7):
                seed = int(rng.integers(1 << 31))
                assert estimate_density(sch, sample_symbols=size, seed=seed) == estimate(sch, size, seed)

    @pytest.mark.parametrize("sigma", [2, 5, 7])
    def test_chunked_draw_replays_one_draw(self, sigma):
        # the property the piecewise draw rests on, with uneven pieces
        whole = np.random.default_rng(sigma).integers(0, sigma, size=100_000, dtype=np.int64)
        rng = np.random.default_rng(sigma)
        sizes = [1000, 777, 1, 50_000, 13]
        parts, done = [], 0
        while done < whole.size:
            n = min(sizes[len(parts) % len(sizes)], whole.size - done)
            parts.append(rng.integers(0, sigma, size=n, dtype=np.int64))
            done += n
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("cyclic", [True, False])
    def test_particular_across_chunk_boundary(self, monkeypatch, cyclic):
        monkeypatch.setattr(schemes, "_CHUNK", 64)
        rng = np.random.default_rng(52)
        syms = rng.integers(0, 4, size=64 + 5).tolist()
        for sch in (
            minimizer_scheme(4, 4, 9, rng.permutation(4**4)),
            table_scheme(4, 4, rng.integers(0, 4, size=4**4)),
        ):
            expect = int(np.count_nonzero(selected_mask(sch, syms, cyclic)))
            assert particular_density(sch, syms, cyclic=cyclic).selected == expect

    def test_bytes_per_sample_symbol(self):
        # the mask of selected positions is the only per-symbol array: about 1 B
        sch = minimizer_scheme(2, 6, 12)

        def peak(n):
            tracemalloc.start()
            try:
                estimate_density(sch, sample_symbols=n, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        low, high = peak(2 * 10**6), peak(8 * 10**6)
        assert (high - low) / (6 * 10**6) <= 2


class TestDigitSlice:
    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_equals_code_arithmetic(self, sigma):
        rng = np.random.default_rng(sigma)
        for digits in (1, 2, 3):
            values = rng.integers(-5, 50, size=sigma**digits).astype(np.int16)
            for total in range(digits, digits + 4):
                codes = np.arange(sigma**total)
                for lead in range(total - digits + 1):
                    want = values[(codes // sigma ** (total - lead - digits)) % sigma**digits]
                    got = digit_slice(values, sigma, lead, total)
                    assert got.dtype == values.dtype
                    assert np.array_equal(got, want)


def window_texts(sigma, symbols):
    return (kmer_decode(c, sigma, symbols) for c in range(sigma**symbols))


class TestAgainstSelect:
    @pytest.mark.parametrize("sigma", [2, 3, 4])
    @given(data=st.data())
    def test_scheme_values(self, sigma, data):
        sch = data.draw(selection_schemes(sigma, lambda k, w: k + w - 1, 1 << 10))
        expect = [select(sch, t) for t in window_texts(sigma, sch.window_symbols)]
        values = scheme_values(sch)
        assert values.tolist() == expect
        assert values.dtype == np.int16  # tables store their picks as int16 too

    @pytest.mark.parametrize("sigma", [2, 3, 4])
    @given(data=st.data())
    def test_is_forward(self, sigma, data):
        # forward: in every two consecutive windows the pick never moves back
        sch = data.draw(selection_schemes(sigma, lambda k, w: k + w, 1 << 10))
        texts = window_texts(sigma, sch.window_symbols + 1)
        assert is_forward(sch) == all(1 + select(sch, t[1:]) >= select(sch, t[:-1]) for t in texts)


class TestIsForward:
    def test_minimizers_are_forward(self):
        assert is_forward(minimizer_scheme(2, 2, 3))
        # the check reads sigma^(window + 1) = 8 strings here
        assert is_forward(minimizer_scheme(2, 1, 2), budget=8)
        with pytest.raises(BudgetError, match="^forwardness check needs 8 states, budget is 7$"):
            is_forward(minimizer_scheme(2, 1, 2), budget=7)
        rng = np.random.default_rng(1)
        for _ in range(10):
            sch = minimizer_scheme(2, 2, 3, rng.permutation(4))
            assert is_forward(sch)

    def test_constant_is_forward(self):
        assert is_forward(table_scheme(2, 3, [0] * 8))

    def test_known_violation(self):
        table = [0] * 8
        table[0] = 2  # f(000)=2
        table[1] = 0  # f(001)=0: on "0001", selection jumps back by 2
        assert not is_forward(table_scheme(2, 3, table))


class TestExpectedDensity:
    def test_constant_scheme(self):
        assert expected_density(table_scheme(2, 3, [0] * 8)).density == 1

    def test_one_mer_minimizer(self):
        res = expected_density(minimizer_scheme(2, 1, 2))
        assert res.mode == EXPECTED_EXACT
        assert res.density == Fraction(3, 4)
        # past 2^20 context codes (here w + k = 21) the density is sampled,
        # by default over 10^7 symbols from seed 0, as the CLI samples
        big = minimizer_scheme(2, 1, 20)
        res = expected_density(big)
        assert res.mode == EXPECTED_ESTIMATE and res.windows == 10**7
        assert res == estimate_density(big)

    def test_exact_equals_particular_on_debruijn(self):
        # oracle: walk the cyclic de Bruijn sequence of the context order
        rng = np.random.default_rng(2)
        for sigma in (2, 3, 4):
            cases = []
            for _ in range(10):
                w = int(rng.integers(2, 5 if sigma == 2 else 4))
                cases.append((table_scheme(sigma, w, rng.integers(0, w, size=sigma**w)), 2 * w - 1))
            for _ in range(10):
                k = int(rng.integers(1, 4))
                w = int(rng.integers(2, 5))
                cases.append((minimizer_scheme(sigma, k, w, rng.permutation(sigma**k)), w + k))
            for sch, order in cases:
                res = expected_density(sch)
                assert res.mode == EXPECTED_EXACT
                seq = debruijn_sequence(sigma, order, cyclic=True)
                walk = particular_density(sch, seq, cyclic=True)
                assert (res.selected, res.windows) == (walk.selected, walk.windows)
                assert res.density == walk.density

    def test_density_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = int(rng.integers(2, 5))
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            d = expected_density(sch).density
            assert Fraction(1, w) <= d <= 1

    def test_forward_context_sufficiency(self):
        # for forward schemes the order-(w+1) density equals the order-(2w-1) one
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(200):
            w = 3
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            if not is_forward(sch):
                continue
            found += 1
            d1 = particular_density(sch, debruijn_sequence(2, w + 1, cyclic=True), cyclic=True)
            d2 = particular_density(sch, debruijn_sequence(2, 2 * w - 1, cyclic=True), cyclic=True)
            assert d1.density == d2.density
        assert found > 10

    def test_estimate_reproducible_and_close(self):
        sch = minimizer_scheme(2, 3, 4)
        a = estimate_density(sch, sample_symbols=200_000, seed=9)
        b = estimate_density(sch, sample_symbols=200_000, seed=9)
        assert a == b
        assert a.mode == EXPECTED_ESTIMATE
        exact = expected_density(sch)
        assert abs(float(a.density) - float(exact.density)) <= 5 * a.stderr

    def test_estimate_matches_python_scan(self):
        sch = minimizer_scheme(2, 2, 3)
        assert estimate_density(sch, sample_symbols=3000, seed=13) == estimate(sch, 3000, 13)


def compatible_forbidden_12():
    F = build_forbidden_set(2, 12)
    return build_compatible_minimizer(F, longest_remaining_path(F).longest_vertices + 1)


class TestEstimateErrorBars:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: minimizer_scheme(4, 3, 5),
            lambda: minimizer_scheme(2, 6, 12),
            compatible_forbidden_12,
        ],
        ids=["s4k3w5", "s2k6w12", "compatible_f12"],
    )
    def test_seed_sweep(self, make):
        # the reported standard error matches the spread of the estimate over
        # seeds, and covers the exact density (the forward context set's
        # relative size) as a 32-batch t interval does: |z| < 2.04, the t
        # quantile for 31 degrees of freedom, in about 95% of the seeds
        from uhspath.contexts import build_context_set_forward

        sch = make()
        runs = [estimate_density(sch, sample_symbols=20_000, seed=seed) for seed in range(200)]
        reported = np.mean([r.stderr for r in runs])
        empirical = np.std([float(r.density) for r in runs], ddof=1)
        assert 0.75 <= reported / empirical <= 1.25
        exact = float(build_context_set_forward(sch).relative_size())
        z = np.array([(float(r.density) - exact) / r.stderr for r in runs])
        assert 0.92 <= np.mean(np.abs(z) < 2.04) <= 0.99

    @pytest.mark.parametrize("sample", [-1, 0, 2, 5])
    def test_shorter_than_window(self, sample):
        sch = minimizer_scheme(2, 3, 4)  # a window spans 6 symbols
        with pytest.raises(ValueError, match="shorter than a window"):
            estimate_density(sch, sample_symbols=sample)

    def test_too_short_for_batches(self):
        with pytest.raises(ValueError, match="batches"):
            estimate_density(minimizer_scheme(2, 3, 4), sample_symbols=31)
        assert estimate_density(minimizer_scheme(2, 3, 4), sample_symbols=32).stderr >= 0


class TestCompatibleMinimizer:
    def test_members_rank_first(self):
        U = KmerSet.from_codes(2, 2, [0b00])
        sch = build_compatible_minimizer(U, 3)
        assert sch.kind == "COMPATIBLE"
        assert select(sch, "1001") == 1  # leftmost 00
        assert select(sch, "0100") == 2
        # U is checked as a hitting set when its sigma^k codes fit the budget
        assert build_compatible_minimizer(U, 3, budget=4).guarantee is False

    def test_full_set_degenerates_to_lexicographic(self):
        U = KmerSet(2, 2, np.ones(4, dtype=bool))
        sch = build_compatible_minimizer(U, 3)
        lex = minimizer_scheme(2, 2, 3)
        assert np.array_equal(scheme_values(sch), scheme_values(lex))
        # lexicographic 1-mers over 257 symbols, whose rank 256 needs 9 bits:
        # a window picks its second symbol where that is less
        lex257, symbols = minimizer_scheme(257, 1, 2), np.arange(257)
        assert scheme_values(lex257).tolist() == np.greater.outer(symbols, symbols).ravel().tolist()
        assert _string_selected(lex257, [256, 0, 256], False).tolist() == [False, True, False]

    def test_density_bounded_by_relative_size_when_guaranteed(self):
        from uhspath.mykkeltveit import build_mykkeltveit_set
        from uhspath.paths import longest_remaining_path

        for w in (3, 4, 5):
            U = build_mykkeltveit_set(2, w)
            l = longest_remaining_path(U).longest_vertices
            sch = build_compatible_minimizer(U, l + 1)
            assert sch.guarantee is True
            d = expected_density(sch).density
            assert d <= U.relative_size()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_compatible_minimizer(KmerSet(2, 2, np.zeros(4, dtype=bool)), 3)

    @given(data=st.data())
    def test_rank_equals_argsort_oracle(self, data):
        sigma, k = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=sigma**k, max_size=sigma**k)))
        assume(mask.any())
        sch = build_compatible_minimizer(KmerSet(sigma, k, mask), 2, budget=0)
        assert np.array_equal(sch.rank, compatible_rank(mask))


class TestSchemeValidation:
    @pytest.mark.parametrize(
        "sigma,w,k",
        [(1, 3, 1), (0, 3, 1), (2, 0, 1), (2, -1, 2), (2, 3, 0), (2, 3, -1)],
    )
    def test_constructor_rejects(self, sigma, w, k):
        with pytest.raises(ValueError):
            SelectionScheme(sigma, w, MINIMIZER, k=k, rank=np.arange(4))

    def test_builders_reject(self):
        with pytest.raises(ValueError, match="got w=0 k=2"):
            minimizer_scheme(2, 2, 0)
        with pytest.raises(ValueError, match="got w=3 k=-1"):
            minimizer_scheme(2, -1, 3)
        with pytest.raises(ValueError, match="alphabet size"):
            table_scheme(1, 2, [0])
        with pytest.raises(ValueError, match=r"table values must lie in \[0, w-1\]"):
            table_scheme(2, 2, [0, 2, 0, 1])

    @pytest.mark.parametrize("bad", [-1, 8, 3], ids=["negative", "too-large", "repeated"])
    def test_rank_must_be_a_permutation(self, bad):
        rank = np.arange(8)
        rank[5] = bad
        with pytest.raises(ValueError, match="rank must be a permutation defining a total order"):
            minimizer_scheme(2, 3, 4, rank)

    def test_rank_check_bytes_per_kmer(self):
        # one bool per k-mer marks the ranks seen; sorting Python lists took 80 B
        rank = np.random.default_rng(2).permutation(2**16)
        tracemalloc.start()
        try:
            minimizer_scheme(2, 16, 5, rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**16


class TestFiles:
    def test_scheme_table_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        sch = table_scheme(2, 3, rng.integers(0, 3, size=8))
        p = str(tmp_path / "scheme.txt")
        save_scheme_table(sch, p)
        back = load_scheme_table(p)
        assert np.array_equal(back.table, sch.table)
        header = open(p).readline().strip()
        assert header == "scheme sigma=2 w=3"

    def test_minimizer_order_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        sch = minimizer_scheme(2, 3, 4, rng.permutation(8))
        p = str(tmp_path / "order.txt")
        save_minimizer_order(sch, p)
        back = load_minimizer_order(p, 2, 4)
        assert np.array_equal(back.rank, sch.rank)
        assert back.kind == MINIMIZER

    def test_mixed_lengths_rejected(self, tmp_path):
        p = tmp_path / "order.txt"
        p.write_text("00\n01\n1\n11\n")
        with pytest.raises(ValueError, match=r"^k-mer '1' has wrong length, expected 2$"):
            load_minimizer_order(str(p), 2, 3)
        p.write_text("scheme sigma=2 w=2\n00 0\n01 1\n100 0\n11 1\n")
        with pytest.raises(ValueError, match=r"^k-mer '100' has wrong length, expected 2$"):
            load_scheme_table(str(p))

    def test_acgt_order_file(self, tmp_path):
        rng = np.random.default_rng(7)
        sch = minimizer_scheme(4, 3, 5, rng.permutation(64))
        p = tmp_path / "order.txt"
        order = np.argsort(sch.rank, kind="stable")
        p.write_text("".join(f" {kmer_decode(int(c), 4, 3).translate(str.maketrans('0123', 'ACGT'))}\n\n" for c in order))
        assert np.array_equal(load_minimizer_order(str(p), 4, 5).rank, sch.rank)

    def test_minimizer_values_match_table_dump(self, tmp_path):
        # dumping a minimizer as a dense table keeps its behavior
        sch = minimizer_scheme(2, 2, 3)
        p = str(tmp_path / "t.txt")
        save_scheme_table(sch, p)
        back = load_scheme_table(p)
        assert np.array_equal(back.table, scheme_values(sch))
