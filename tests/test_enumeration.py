"""The semigroup tree: cheap children against from_gaps, counts and oracles."""

import hashlib
from itertools import combinations, islice

import pytest

from nsg import NumericalSemigroup
from nsg.enumeration import (
    children,
    enumerate_by_frobenius,
    enumerate_by_genus,
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


class TestGenusCap:
    def test_fractional_cap_stops(self):
        # a cap of 2.5 admits genus <= 2; islice keeps a walk that never stops finite
        assert [S.genus for S, _ in islice(walk_genus_tree(2.5), 10)] == [0, 1, 2, 2]


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


def gap_subset_oracle(
    g_max: int | None = None, frobenius: int | None = None
) -> list[NumericalSemigroup]:
    """Brute-force enumeration over candidate gap sets, for cross-validation.

    Tries every subset of the feasible gap window and keeps those whose
    complement is additively closed. Exponential; only usable for small
    bounds, which is exactly its role as an independent oracle.
    """
    assert (g_max is None) != (frobenius is None), "pass exactly one of g_max, frobenius"
    out = []
    if g_max is not None:
        window = 2 * g_max - 1  # the largest gap of a genus-g semigroup is < 2g
        out.append(NumericalSemigroup(1))
        for size in range(1, g_max + 1):
            for gaps in combinations(range(1, window + 1), size):
                candidate = _try_from_gaps(gaps)
                if candidate is not None:
                    out.append(candidate)
    else:
        for size in range(frobenius):
            for rest in combinations(range(1, frobenius), size):
                candidate = _try_from_gaps(rest + (frobenius,))
                if candidate is not None:
                    out.append(candidate)
    return out


def _try_from_gaps(gaps) -> NumericalSemigroup | None:
    try:
        return NumericalSemigroup.from_gaps(gaps)
    except ValueError:
        return None


class TestGapSubsetOracle:
    def test_genus(self):
        assert set(enumerate_by_genus(6)) == set(gap_subset_oracle(g_max=6))

    @pytest.mark.parametrize("frobenius", range(1, 10))
    def test_frobenius(self, frobenius):
        family = list(enumerate_by_frobenius(frobenius))
        assert len(set(family)) == len(family)
        assert set(family) == set(gap_subset_oracle(frobenius=frobenius))
