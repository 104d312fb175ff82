import pytest

from oracles import canonical_rotation_code
from uhspath.core import necklace_count
from uhspath.kmerset import KmerSet
from uhspath.mds import enumerate_mds
from uhspath.mykkeltveit import build_mykkeltveit_set
from uhspath.paths import is_decycling


class TestCounts:
    @pytest.mark.parametrize("w,count", [(2, 2), (3, 4), (4, 30), (5, 28)])
    def test_default_tier(self, w, count):
        census = enumerate_mds(2, w)
        assert census.mds_count == count
        assert census.nodes_explored > 0


class TestEmittedSets:
    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_every_set_is_a_valid_mds(self, w):
        census = enumerate_mds(2, w, emit_sets=True)
        assert len(census.sets) == census.mds_count
        assert len(set(census.sets)) == census.mds_count
        for codes in census.sets:
            assert len(codes) == necklace_count(2, w)
            classes = {canonical_rotation_code(c, 2, w) for c in codes}
            assert len(classes) == len(codes)  # one member per class
            assert is_decycling(KmerSet.from_codes(2, w, codes))

    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    def test_mykkeltveit_among_them(self, w):
        census = enumerate_mds(2, w, emit_sets=True)
        m = tuple(sorted(build_mykkeltveit_set(2, w).codes().tolist()))
        assert m in set(census.sets)


class TestLimits:
    def test_sigma_cap(self):
        with pytest.raises(ValueError):
            enumerate_mds(3, 3)

    def test_w_cap(self):
        with pytest.raises(ValueError):
            enumerate_mds(2, 8)
        with pytest.raises(ValueError):
            enumerate_mds(2, 1)


class TestOptInTiers:
    def test_w6(self, mds_w6):
        assert mds_w6.mds_count == 68288

    def test_w7(self, mds_w7):
        assert mds_w7.mds_count == 18432
