import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    class_pick,
    class_walk_mask,
    code_ring,
    digit_loop_build,
    embedding,
    kmer_decode,
    part_sign,
    pure_rotation,
    raw_embedding,
    successor,
    symbols,
    widths,
)
from uhspath import exactsign, mykkeltveit
from uhspath.core import (
    BudgetError,
    canonical_rotation_code,
    kmer_encode,
    necklace_count,
)
from uhspath.exactsign import NEG, POS, ZERO
from uhspath.mykkeltveit import (
    _member,
    _quadruples,
    _run_ring,
    build_long_path,
    build_mykkeltveit_set,
)
from uhspath.paths import is_decycling, longest_remaining_path

# the widths up to which the class walk checks every code, per sigma
CLASS_WALK_WMAX = {2: 14, 3: 8, 4: 7, 5: 4, 6: 4}


def weight(x, sigma, w):
    """Digit sum W(x), between 0 and (sigma-1) * w."""
    return sum(symbols(x, sigma, w))


def weight_in_embedding(x, sigma, w):
    """Q(x) = P(x) - W(x); rotations spin Q around (-W, 0) instead of the origin."""
    return complex(embedding(x, sigma, w)) - weight(x, sigma, w)


def rotation_identity_check(x, sigma, w, a, eps=1e-9):
    """|P(S_a(x)) - (r^-1 P(x) + (a - x_0))| <= eps."""
    r_inv = cmath.exp(-2j * math.pi / w)
    lhs = complex(embedding(successor(x, sigma, w, a), sigma, w))
    x0 = x // sigma ** (w - 1)
    rhs = r_inv * complex(embedding(x, sigma, w)) + (a - x0)
    return abs(lhs - rhs) <= eps


def class_walk_member(x, sigma, w):
    """Membership decided from x's conjugacy class alone."""
    return class_pick(canonical_rotation_code(x, sigma, w), sigma, w) == x


def ring_program(w):
    return [w - 1], list(_quadruples(w))


class TestEmbedding:
    def test_point_examples(self):
        for w in (2, 3, 5, 8):
            z = embedding(kmer_encode("0" * w, 2), 2, w)
            assert complex(z) == 0 and z.im_sign == ZERO
            o = embedding(kmer_encode("1" * w, 2), 2, w)
            assert abs(complex(o)) < 1e-12 and o.im_sign == ZERO
        # "10" at w=2: 1 * zeta^1 = -1
        assert complex(embedding(kmer_encode("10", 2), 2, 2)) == pytest.approx(-1)

    def test_weight(self):
        assert weight(kmer_encode("1011", 2), 2, 4) == 3
        assert weight(kmer_encode("0321", 4), 4, 4) == 6

    def test_weight_in_embedding(self):
        # all-ones: P = 0, W = w, so Q = -w
        for w in (4, 7):
            q = weight_in_embedding(kmer_encode("1" * w, 2), 2, w)
            assert q == pytest.approx(-w)

    def test_rotation_spins_q_around_minus_weight(self):
        # a pure rotation keeps W and rotates Q + W around the origin
        rng = np.random.default_rng(0)
        for _ in range(30):
            w = int(rng.integers(3, 12))
            x = int(rng.integers(0, 2**w))
            x0 = x // 2 ** (w - 1)
            y = successor(x, 2, w, x0)  # pure rotation
            r_inv = cmath.exp(-2j * math.pi / w)
            lhs = weight_in_embedding(y, 2, w) + weight(y, 2, w)
            rhs = r_inv * (weight_in_embedding(x, 2, w) + weight(x, 2, w))
            assert abs(lhs - rhs) < 1e-9

    def test_rotation_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = int(rng.integers(2, 65))
            sigma = int(rng.integers(2, 5))
            x = kmer_encode(rng.integers(0, sigma, size=w).tolist(), sigma)
            a = int(rng.integers(0, sigma))
            assert rotation_identity_check(x, sigma, w, a)


class TestKeepRule:
    def test_positive_im_never_kept(self):
        # build_long_path relies on this: Im P(x) > 0 alone keeps x out of the set
        for im_rot in (NEG, ZERO, POS):
            assert not _member(POS, im_rot), im_rot

    @given(data=st.data())
    def test_real_p_has_rotation_of_opposite_sign(self, data):
        # the lemma behind the rule: where Im P(x) is 0, P(R(x)) = r^-1 P(x)
        # puts sign Re P(x) = -sign Im P(R(x)), both 0 together, for w >= 3;
        # decided by the oracle, which shares no code with exactsign
        sigma, w = data.draw(st.integers(2, 6)), data.draw(st.integers(3, 16))
        word = data.draw(st.lists(st.integers(0, sigma - 1), min_size=w, max_size=w))
        symmetric = data.draw(st.booleans())
        if symmetric:  # x_i = x_(w-2-i) pairs r^(i+1) with its conjugate: Im P = 0
            word = [word[min(i, w - 2 - i)] for i in range(w - 1)] + word[-1:]
        p, rot = raw_embedding(word, w), word[1:] + word[:1]
        im = part_sign(word, "im", p.imag)
        assert im == ZERO or not symmetric
        if im == ZERO:
            q = raw_embedding(rot, w)
            assert part_sign(word, "re", p.real) == -part_sign(rot, "im", q.imag)


class TestSetConstruction:
    def test_w2_explicit(self):
        m = build_mykkeltveit_set(2, 2)
        assert {kmer_decode(int(c), 2, 2) for c in m.codes()} == {"00", "10", "11"}

    @pytest.mark.parametrize("sigma", [2, 3, 10, 300])
    def test_w2_is_x1_at_most_x0(self, sigma):
        # P(x) = x_1 - x_0 at w = 2: the paper's Re P(x) < 0, and the
        # one-word classes x_0 = x_1 at the origin
        x0, x1 = np.divmod(np.arange(sigma**2), sigma)
        m = build_mykkeltveit_set(sigma, 2)
        assert m.mask.dtype == bool and np.array_equal(m.mask, x1 <= x0)
        assert m.cardinality == necklace_count(sigma, 2)

    @pytest.mark.parametrize("block", [None, 7])
    def test_one_decision_per_code(self, monkeypatch, block):
        # every code's sign is decided by exactsign.signs, once: the doubles
        # handed over cover all sigma^w codes exactly once, and each is Im P
        # of the code its digit row spells
        sigma, w = 3, 9
        if block:
            monkeypatch.setattr(mykkeltveit, "_BLOCK", block)
        calls = []
        real = exactsign.signs

        def recording(approx, sigma_, w_, rows):
            codes = [kmer_encode(r, sigma) for r in rows(np.arange(len(approx))).tolist()]
            calls.append((approx.copy(), codes))
            return real(approx, sigma_, w_, rows)

        monkeypatch.setattr(exactsign, "signs", recording)
        build_mykkeltveit_set(sigma, w)
        codes = [c for _, cs in calls for c in cs]
        assert sorted(codes) == list(range(sigma**w))
        approx = np.concatenate([a for a, _ in calls])
        exact = [raw_embedding(symbols(c, sigma, w), w).imag for c in codes]
        assert np.allclose(approx, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma,wmax", [(2, 14), (3, 8), (4, 7)])
    def test_one_member_per_class(self, sigma, wmax):
        for w in range(2, wmax + 1):
            m = build_mykkeltveit_set(sigma, w)
            assert m.cardinality == necklace_count(sigma, w)
            classes = {canonical_rotation_code(int(c), sigma, w) for c in m.codes()}
            assert len(classes) == m.cardinality

    @pytest.mark.parametrize("sigma,wmax", [(2, 12), (4, 6)])
    def test_decycling(self, sigma, wmax):
        for w in range(2, wmax + 1):
            assert is_decycling(build_mykkeltveit_set(sigma, w))

    def test_w20_cardinality(self):
        m = build_mykkeltveit_set(2, 20)
        assert m.cardinality == necklace_count(2, 20) == 52488

    def test_members_sit_just_below_axis(self):
        m = build_mykkeltveit_set(2, 9)
        for c in m.codes():
            k = int(c)
            s = embedding(k, 2, 9).im_sign
            if s == ZERO:
                pt = embedding(k, 2, 9)
                # on the negative real axis, or an origin class representative
                assert pt.re < 1e-9
            else:
                assert s == NEG
                assert embedding(pure_rotation(k, 2, 9), 2, 9).im_sign == POS

    def test_complement_antisymmetry(self):
        # flipping 0<->1 negates the embedding at sigma=2 ... P(xbar) = S - P(x)
        # with S = sum of all roots of unity = 0, so P(xbar) = -P(x)
        rng = np.random.default_rng(2)
        for _ in range(40):
            w = int(rng.integers(2, 16))
            code = int(rng.integers(0, 2**w))
            xbar = 2**w - 1 - code
            assert abs(complex(embedding(code, 2, w)) + complex(embedding(xbar, 2, w))) < 1e-9


class TestAgainstClassWalk:
    @pytest.mark.parametrize("sigma,wmax", CLASS_WALK_WMAX.items())
    def test_every_code(self, sigma, wmax):
        for w in range(2, wmax + 1):
            assert np.array_equal(build_mykkeltveit_set(sigma, w).mask, class_walk_mask(sigma, w)), w

    @given(data=st.data())
    def test_any_alphabet(self, data):
        # the bulk mask against the class walk, for alphabets up to ten symbols
        sigma = data.draw(st.integers(2, 10))
        w = data.draw(widths(sigma, 1 << 12, low=2))
        assert np.array_equal(build_mykkeltveit_set(sigma, w).mask, class_walk_mask(sigma, w))

    @pytest.mark.parametrize("block", [1, 3, 7])
    @given(data=st.data())
    def test_blocks(self, block, data):
        # blocks of 1 to 7 codes cut every hi row and leading-symbol range
        sigma = data.draw(st.integers(2, 6))
        w = data.draw(widths(sigma, 1 << 10, low=2))
        with mock.patch.object(mykkeltveit, "_BLOCK", block):
            mask = build_mykkeltveit_set(sigma, w).mask
        assert np.array_equal(mask, class_walk_mask(sigma, w))

    @pytest.mark.parametrize("w", [40, 41])
    def test_long_path_vertices(self, w):
        for v in build_long_path(2, w).vertices.tolist():
            assert class_walk_member(kmer_encode(v, 2), 2, w) is False


class TestOraclesIndependent:
    def test_no_exactsign_in_oracles(self, monkeypatch):
        # the oracles decide their signs with the cyclotomic zero test and
        # mpmath, so they check the build with code it does not share
        def fail(*args):
            raise AssertionError("oracle called exactsign.signs")

        monkeypatch.setattr(exactsign, "signs", fail)
        assert class_walk_mask(3, 6).sum() == necklace_count(3, 6)
        assert digit_loop_build(2, 12).sum() == necklace_count(2, 12)
        assert embedding(kmer_encode("0101", 2), 2, 4).im_sign == ZERO


class TestAgainstDigitLoop:
    # the second oracle, for the widths past the class walk's
    @pytest.mark.parametrize(
        "sigma,wmax", [(2, 20), (3, 12), (4, 9), (5, 7), (6, 6)]
    )
    def test_masks_equal(self, sigma, wmax):
        for w in range(CLASS_WALK_WMAX[sigma] + 1, wmax + 1):
            m = build_mykkeltveit_set(sigma, w)
            assert np.array_equal(m.mask, digit_loop_build(sigma, w)), (sigma, w)

    @pytest.mark.parametrize("sigma,w", [(2, 16), (3, 10)])
    def test_blocks(self, monkeypatch, sigma, w):
        monkeypatch.setattr(mykkeltveit, "_BLOCK", 7)
        assert np.array_equal(build_mykkeltveit_set(sigma, w).mask, digit_loop_build(sigma, w))


class TestOneWayCrossing:
    @pytest.mark.parametrize("sigma,w", [(2, 8), (2, 12), (2, 16), (3, 6)])
    def test_im_never_recovers(self, sigma, w):
        m = build_mykkeltveit_set(sigma, w)
        rng = np.random.default_rng(w * sigma)
        walks = 0
        while walks < 40:
            code = int(rng.integers(0, sigma**w))
            if m.contains_code(code):
                continue
            walks += 1
            seen_nonpos = False
            x = code
            for _ in range(3 * w):
                s = embedding(x, sigma, w).im_sign
                if seen_nonpos:
                    assert s != POS
                if s != POS:
                    seen_nonpos = True
                nxt = [a for a in range(sigma) if not m.contains_code(successor(x, sigma, w, a))]
                if not nxt:
                    break
                x = successor(x, sigma, w, int(rng.choice(nxt)))


class TestLongPath:
    @pytest.mark.parametrize("w,quads", [(16, 2), (24, 3), (32, 4), (40, 5)])
    def test_even_construction(self, w, quads):
        lp = build_long_path(2, w)
        assert len(lp.quadruples) == quads
        assert len(lp.vertices) == (w + 1) * quads
        assert len(lp.vertices) >= w * w // 8
        assert min(p.imag for p in lp.embeddings) > 0

    @pytest.mark.parametrize("w", [21, 25, 31])
    def test_odd_construction(self, w):
        lp = build_long_path(2, w)
        assert len(lp.vertices) > w
        assert min(p.imag for p in lp.embeddings) > 0

    def test_vertices_distinct_and_outside_set(self):
        lp = build_long_path(2, 16)
        codes = [kmer_encode(v, 2) for v in lp.vertices]
        assert len(set(codes)) == len(codes)
        m = build_mykkeltveit_set(2, 16)
        assert not any(m.contains_code(c) for c in codes)

    def test_edges_follow_graph(self):
        lp = build_long_path(2, 24)
        n = 2**24
        codes = [kmer_encode(v, 2) for v in lp.vertices]
        for a, b in zip(codes, codes[1:]):
            assert b in ((a * 2) % n, (a * 2 + 1) % n)

    @pytest.mark.parametrize("sigma", [2, 3])
    @pytest.mark.parametrize("w", [16, 24, 25, 31, 40, 100, 101])
    def test_walk_windows_equal_code_ring(self, sigma, w):
        zero_tags, quads = ring_program(w)
        walk = _run_ring(w, zero_tags, quads)
        rows = [list(symbols(c, sigma, w)) for c in code_ring(sigma, w, zero_tags, quads)]
        assert walk.dtype == np.uint8
        assert np.lib.stride_tricks.sliding_window_view(walk, w).tolist() == rows
        if sigma == 2 or w == 24:
            assert build_long_path(sigma, w).vertices.tolist() == rows

    @pytest.mark.parametrize("sigma", [2, 3])
    @pytest.mark.parametrize("w", [16, 25, 100, 101])
    def test_embeddings_bit_equal_oracle(self, sigma, w):
        # one root per window column, added where the symbol is nonzero: the
        # same doubles as one cmath.exp per symbol, signed zeros included
        lp = build_long_path(sigma, w)
        for v, p in zip(lp.vertices.tolist(), lp.embeddings.tolist()):
            q = raw_embedding(v, w)
            assert (p.real.hex(), p.imag.hex()) == (q.real.hex(), q.imag.hex())

    def test_one_walk_array(self):
        # the vertices are the overlapping windows of one uint8 walk
        lp = build_long_path(2, 100)
        assert lp.vertices.dtype == np.uint8 and lp.vertices.shape == (1313, 100)
        assert lp.vertices.strides == (1, 1)
        assert lp.embeddings.dtype == np.complex128 and lp.embeddings.shape == (1313,)

    @pytest.mark.parametrize("w", [401, 1001])
    def test_bytes_per_vertex(self, w):
        # about 60 B a vertex when measured at both widths: the walk, its
        # doubles and their sort (562 and 1173 B, growing as w, when every
        # vertex was a str)
        tracemalloc.start()
        try:
            n = len(build_long_path(2, w).vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 66 * n

    def test_revisit_across_a_tie_group(self):
        # three tied doubles whose first and last rows are equal, and which
        # sort in place: comparing neighbours alone would miss the revisit
        rows = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        ps = np.zeros(3, dtype=np.complex128)
        assert np.argsort(ps).tolist() == [0, 1, 2]
        assert mykkeltveit._revisits(rows, ps)
        assert not mykkeltveit._revisits(rows[:2], ps[:2])
        assert not mykkeltveit._revisits(rows, np.array([0, 1, 2], dtype=np.complex128))

    def test_one_signs_call_no_embedding(self, monkeypatch):
        calls = []
        real = exactsign.signs

        def counting(approx, sigma, w, rows):
            calls.append((np.shape(approx), sigma, w, rows(np.arange(len(approx))).tolist()))
            return real(approx, sigma, w, rows)

        monkeypatch.setattr(exactsign, "signs", counting)
        lp = build_long_path(2, 100)
        assert len(lp.vertices) == 1313
        assert calls == [((1313,), 2, 100, lp.vertices.tolist())]
        assert min(p.imag for p in lp.embeddings) > 0

    def test_budget_checked_before_walk(self, monkeypatch):
        monkeypatch.setattr(mykkeltveit, "_run_ring", lambda *a: pytest.fail("walk built"))
        with pytest.raises(BudgetError, match="long path needs 313 states, budget is 312"):
            build_long_path(2, 101, budget=312)

    def test_budget_counts_steps_as_quadruples_come(self, monkeypatch):
        # the steps counted as each quadruple is made add up to the sum over
        # the whole program's tags, for every w from 16 to 400
        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        monkeypatch.setattr(mykkeltveit, "_run_ring", walk)
        for w in range(16, 401):
            try:
                _, quads = ring_program(w)
            except ValueError:
                continue
            tags = [t for quad in quads for t in quad]
            steps = sum(((t - p - 1) % w or w) + 1 for p, t in zip([0, *tags], tags))
            with pytest.raises(BudgetError, match=f"^long path needs {1 + steps} states, budget is {steps}$"):
                build_long_path(2, w, budget=steps)
            with pytest.raises(Walked):
                build_long_path(2, w, budget=1 + steps)

    def test_budget_counts_every_vertex(self):
        assert len(build_long_path(2, 101, budget=313).vertices) == 313
        assert len(build_long_path(2, 100, budget=1313).vertices) == 1313

    def test_small_w_rejected(self):
        with pytest.raises(ValueError):
            build_long_path(2, 8)
        with pytest.raises(ValueError):
            build_long_path(2, 19)  # odd quadruple range is empty

    def test_path_shorter_than_longest_remaining(self):
        m = build_mykkeltveit_set(2, 16)
        lp = build_long_path(2, 16)
        report = longest_remaining_path(m)
        assert report.kind == "ACYCLIC"
        assert report.longest_vertices >= len(lp.vertices)
