import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import charged_contexts, kmer_decode, select, selection_schemes
from uhspath.contexts import (
    build_context_set_forward,
    build_context_set_local,
    forward_context_symbols,
    local_context_symbols,
)
from uhspath.paths import is_uhs, longest_remaining_path
from uhspath.schemes import (
    TABLE,
    expected_density,
    is_forward,
    minimizer_scheme,
    scheme_values,
    table_scheme,
)


def traced_bytes_per_code(build, scheme, order):
    """tracemalloc peak of build(scheme) over the sigma^order context codes."""
    tracemalloc.start()
    try:
        build(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / scheme.sigma**order


class TestAgainstCharged:
    @pytest.mark.parametrize("sigma", [2, 3, 4])
    @given(data=st.data())
    def test_masks_equal(self, sigma, data):
        # each context set, and its size, against the charged windows of the
        # cyclic de Bruijn sequence of its order
        sch = data.draw(selection_schemes(sigma, lambda k, w: 2 * w + k - 2, 1 << 10))
        cs = build_context_set_local(sch)
        mask, charged = charged_contexts(sch, local_context_symbols(sch))
        assert cs.mask.tolist() == mask.tolist()
        assert cs.cardinality == charged
        if sch.kind != TABLE or is_forward(sch):
            cs = build_context_set_forward(sch)
            mask, charged = charged_contexts(sch, forward_context_symbols(sch))
            assert cs.mask.tolist() == mask.tolist()
            assert cs.cardinality == charged


class TestBytesPerCode:
    # W = 19 symbols; the code-array builders took 37-41 B per context code
    def test_local(self):
        rng = np.random.default_rng(3)
        table = table_scheme(2, 10, rng.integers(0, 10, size=2**10))
        mini = minimizer_scheme(2, 5, 8)
        for sch in (table, mini):
            assert local_context_symbols(sch) == 19
            assert traced_bytes_per_code(build_context_set_local, sch, 19) <= 8

    def test_forward(self):
        rng = np.random.default_rng(4)
        mini = minimizer_scheme(2, 5, 14, rng.permutation(32))
        table = table_scheme(2, 18, scheme_values(mini))
        for sch in (table, mini):
            assert forward_context_symbols(sch) == 19
            assert traced_bytes_per_code(build_context_set_forward, sch, 19) <= 8


class TestLocal:
    def test_one_mer_minimizer_example(self):
        cs = build_context_set_local(minimizer_scheme(2, 1, 2))
        texts = {kmer_decode(int(c), 2, 3) for c in cs.codes()}
        assert texts == {"000", "001", "010", "011", "110", "111"}
        assert cs.relative_size() == Fraction(3, 4)

    @pytest.mark.parametrize("w", [2, 3])
    def test_matches_brute_predicate(self, w):
        rng = np.random.default_rng(w)
        for _ in range(20):
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            mask, _ = charged_contexts(sch, local_context_symbols(sch))
            assert np.array_equal(build_context_set_local(sch).mask, mask)

    def test_relative_size_is_expected_density(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            w = int(rng.integers(2, 5))
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            cs = build_context_set_local(sch)
            assert cs.relative_size() == expected_density(sch).density

    def test_minimizer_contexts(self):
        sch = minimizer_scheme(2, 2, 3)
        cs = build_context_set_local(sch)
        assert cs.w == local_context_symbols(sch) == 2 * 3 + 2 - 2
        assert cs.relative_size() == expected_density(sch).density


class TestForward:
    def test_one_mer_minimizer_coincides_with_local(self):
        sch = minimizer_scheme(2, 1, 2)
        fwd = build_context_set_forward(sch)
        loc = build_context_set_local(sch)
        assert fwd == loc

    def test_rejects_non_forward(self):
        table = [0] * 8
        table[0] = 2
        with pytest.raises(ValueError):
            build_context_set_forward(table_scheme(2, 3, table))

    def test_relative_size_is_expected_density(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            w = int(rng.integers(2, 4))
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            if not is_forward(sch):
                continue
            checked += 1
            cs = build_context_set_forward(sch)
            assert cs.w == forward_context_symbols(sch)
            assert cs.relative_size() == expected_density(sch).density
        assert checked > 20


class TestContextsAreHittingSets:
    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_local_contexts_are_uhs(self, w):
        rng = np.random.default_rng(w * 13)
        schemes = []
        if w == 2:
            codes = np.arange(w ** (2**w))
            for c in codes:  # all 16 tables at w=2
                table = [(c // w**i) % w for i in range(2**w)]
                schemes.append(table_scheme(2, w, table))
        else:
            for _ in range(60):
                schemes.append(table_scheme(2, w, rng.integers(0, w, size=2**w)))
        for sch in schemes:
            cs = build_context_set_local(sch)
            report = longest_remaining_path(cs)
            assert report.kind == "ACYCLIC"
            assert report.longest_vertices <= w - 1
            assert is_uhs(cs, w)

    @pytest.mark.parametrize("w", [2, 3])
    def test_forward_contexts_are_uhs(self, w):
        # exhaustive over all forward tables
        total = w ** (2**w)
        for c in range(total):
            table = [(c // w**i) % w for i in range(2**w)]
            sch = table_scheme(2, w, table)
            if not is_forward(sch):
                continue
            cs = build_context_set_forward(sch)
            assert is_uhs(cs, w)

    def test_minimal_index_argument(self):
        # every context outside C_f has an earlier window selecting the same
        # position as the last window
        rng = np.random.default_rng(99)
        for _ in range(10):
            w = 3
            sch = table_scheme(2, w, rng.integers(0, w, size=2**w))
            cs = build_context_set_local(sch)
            W = local_context_symbols(sch)
            for code in range(2**W):
                syms = [(code // 2 ** (W - 1 - i)) % 2 for i in range(W)]
                last = (w - 1) + select(sch, syms[w - 1 :])
                earlier = [i + select(sch, syms[i : i + w]) for i in range(w - 1)]
                if cs.contains_code(code):
                    assert last not in earlier
                else:
                    assert last in earlier
