"""The semigroup tree: cheap children against from_gaps, counts and oracles."""

import hashlib

import pytest

from nsg import NumericalSemigroup
from nsg.enumeration import (
    children,
    enumerate_by_frobenius,
    enumerate_by_genus,
    gap_subset_oracle,
    walk_genus_tree,
)

from expected import FROBENIUS_FAMILIES, SEMIGROUPS_PER_GENUS


def _digest(family) -> tuple[int, str]:
    generators = sorted(S.generators for S in family)
    return len(generators), hashlib.sha256(repr(generators).encode()).hexdigest()[:16]


class TestRemoveGenerator:
    @pytest.mark.parametrize(
        "genus_max", [11, pytest.param(14, marks=pytest.mark.stretch)]
    )
    def test_every_slot_matches_from_gaps(self, genus_max):
        checked = 0
        for S, _ in walk_genus_tree(genus_max):
            for g in S.generators:
                if g <= S.frobenius:
                    continue
                child = S.remove_generator(g)
                oracle = NumericalSemigroup.from_gaps(S.gaps + (g,))
                for slot in NumericalSemigroup.__slots__:
                    assert getattr(child, slot) == getattr(oracle, slot), (S, g, slot)
                checked += 1
        assert checked == sum(SEMIGROUPS_PER_GENUS[1 : genus_max + 2])

    def test_child_is_immutable(self, s357):
        child = s357.remove_generator(5)
        assert child.generators == (3, 7, 8)
        assert (child.frobenius, child.gaps, child.genus) == (5, (1, 2, 4, 5), 4)
        with pytest.raises(AttributeError):
            child.frobenius = 1

    @pytest.mark.parametrize("g", [3, 4, 1, -1])
    def test_not_above_frobenius_rejected(self, s357, g):
        # 3 is a generator below F = 4, which is itself a gap, as is 1
        with pytest.raises(ValueError):
            s357.remove_generator(g)

    @pytest.mark.parametrize("g", [6, 8, 9, 10, 100])
    def test_non_generator_rejected(self, s357, g):
        with pytest.raises(ValueError):
            s357.remove_generator(g)

    def test_root(self, naturals):
        assert naturals.remove_generator(1).generators == (2, 3)


class TestChildren:
    def test_limit_filters_the_full_list(self):
        for S, _ in walk_genus_tree(8):
            full = children(S)
            for limit in range(S.frobenius - 1, S.frobenius + S.multiplicity + 2):
                assert children(S, limit) == [(g, c) for g, c in full if g <= limit]

    def test_ascending_in_the_removed_generator(self, s357, s469):
        assert [g for g, _ in children(s357)] == [5, 7]
        assert [g for g, _ in children(s357, 6)] == [5]
        assert children(s357, 4) == []
        assert children(s469) == []  # every generator lies below F = 11


class TestCounts:
    def test_genus_counts_match_a007323(self):
        counts = [0] * 13
        for S in enumerate_by_genus(12):
            counts[S.genus] += 1
        assert tuple(counts) == SEMIGROUPS_PER_GENUS[:13]

    @pytest.mark.parametrize(
        "frobenius",
        list(range(1, 22)) + [pytest.param(23, marks=pytest.mark.stretch)],
    )
    def test_frobenius_families_frozen(self, frobenius):
        family = list(enumerate_by_frobenius(frobenius))
        assert all(S.frobenius == frobenius for S in family)
        assert _digest(family) == FROBENIUS_FAMILIES[frobenius]


class TestGapSubsetOracle:
    def test_genus(self):
        assert set(enumerate_by_genus(6)) == set(gap_subset_oracle(g_max=6))

    @pytest.mark.parametrize("frobenius", range(1, 10))
    def test_frobenius(self, frobenius):
        family = list(enumerate_by_frobenius(frobenius))
        assert len(set(family)) == len(family)
        assert set(family) == set(gap_subset_oracle(frobenius=frobenius))
