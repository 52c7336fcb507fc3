"""The semigroup tree: cheap children against a closure oracle, counts and oracles."""

import hashlib
import re
from itertools import combinations, islice

import pytest

from nsg import NumericalSemigroup, enumeration, semigroup
from nsg.enumeration import (
    children,
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_by_genus,
)

from expected import (
    CI_FAMILIES,
    FROBENIUS_FAMILIES,
    FROBENIUS_WALK_BUILT,
    FROBENIUS_WALK_CLOSURES,
    FROBENIUS_WALK_ORDER,
    GENUS_WALK_CLOSURES,
    GENUS_WALK_ORDER,
    SEMIGROUPS_PER_GENUS,
)
from oracles import semigroup_from_gaps


def _hex16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _digest(family) -> tuple[int, str]:
    generators = sorted(S.generators for S in family)
    return len(generators), _hex16(generators)


def _entry(S, live=0) -> tuple:
    """S as the walk holds it: generators, Frobenius number, genus, membership and live masks."""
    return S.generators, S.frobenius, S.genus, S._mask, live


def _gaps(entry) -> tuple[int, ...]:
    """The gap tuple of an entry's node, by a sieve on its generators."""
    return NumericalSemigroup(entry[0]).gaps


class TestRemoveGenerator:
    @pytest.mark.parametrize(
        "genus_max", [11, pytest.param(14, marks=pytest.mark.stretch)]
    )
    def test_every_slot_matches_from_gaps(self, genus_max):
        checked = 0
        for S in enumerate_by_genus(genus_max):
            for g in S.generators:
                if g <= S.frobenius:
                    continue
                child = S.remove_generator(g)
                oracle = semigroup_from_gaps(S.gaps + (g,))
                for slot in NumericalSemigroup.__slots__:
                    assert getattr(child, slot) == getattr(oracle, slot), (S, g, slot)
                checked += 1
        assert checked == sum(SEMIGROUPS_PER_GENUS[1 : genus_max + 2])

    def test_every_child_of_the_frobenius_walk_matches_from_gaps(self):
        # children(entry, 19) lists every child that a walk to any F <= 19 lists,
        # up to embedding dimension 20 (the genus walk above stops at 12)
        checked = max_dimension = 0
        stack = [(_entry(NumericalSemigroup(1)), ())]
        while stack:
            entry, gaps = stack.pop()
            generators, frobenius = entry[:2]
            removed = [g for g in generators if frobenius < g <= 19]
            for g, child in zip(removed, children(entry, 19), strict=True):
                oracle = semigroup_from_gaps(gaps + (g,))
                # each field is the slot the walk builds the node with
                fields = dict(zip(("generators", "frobenius", "genus", "_mask"), child))
                fields["multiplicity"] = child[0][0]
                for slot in NumericalSemigroup.__slots__:
                    assert fields[slot] == getattr(oracle, slot), (generators, g, slot)
                # the splice: the parent's generators without g, then the new ones,
                # each above every generator of the parent
                kept = tuple(a for a in generators if a != g)
                assert child[0][: len(kept)] == kept, (generators, g)
                assert all(n > generators[-1] for n in child[0][len(kept) :]), (generators, g)
                checked += 1
                max_dimension = max(max_dimension, len(child[0]))
                stack.append((child, gaps + (g,)))
        assert checked == sum(FROBENIUS_FAMILIES[f][0] for f in range(1, 20))
        assert max_dimension == 20  # <20, 21, ..., 39>

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

    @pytest.mark.parametrize("raw, g", [((1,), True), ((2, 3), 3.0)])
    def test_non_int_rejected(self, raw, g):
        # True passed as 1, building <2, 3> with Frobenius number True; 3.0 reached a shift
        with pytest.raises(ValueError, match=re.escape(f"generator must be an int, got {g!r}")):
            NumericalSemigroup(*raw).remove_generator(g)


class TestChildren:
    def test_limit_filters_the_full_list(self):
        # every cap from 0 to past the largest generator, on every node of genus <= 9
        for S in enumerate_by_genus(9):
            full = children(_entry(S))
            for limit in range(S.frobenius + S.generators[-1] + 1):
                assert children(_entry(S), limit) == [kid for kid in full if kid[1] <= limit]

    def test_ascending_in_the_removed_generator(self, s357, s469):
        assert [kid[1] for kid in children(_entry(s357))] == [5, 7]
        assert [kid[1] for kid in children(_entry(s357), 6)] == [5]
        assert children(_entry(s357), 4) == []
        assert children(_entry(s469)) == []  # every generator lies below F = 11


def _monoid_mask(generators, bound: int) -> int:
    """Bit n set iff 0 <= n <= bound lies in the monoid the generators span, by a sieve."""
    member = [True] + [False] * bound
    for n in range(1, bound + 1):
        member[n] = any(a <= n and member[n - a] for a in generators)
    return sum(1 << n for n, m in enumerate(member) if m)


class TestLiveNodes:
    @pytest.mark.parametrize(
        "frobenius",
        list(range(1, 24)) + [pytest.param(f, marks=pytest.mark.stretch) for f in (24, 25)],
    )
    def test_walk_builds_exactly_the_prefixes_of_the_family(self, monkeypatch, frobenius):
        # a node has a descendant at F iff its gap tuple prefixes the gap tuple
        # of a semigroup with Frobenius number F: no dead node listed, none missed
        built, original = [], enumeration.children

        def counted(entry, limit=None):
            kids = original(entry, limit)
            built.extend(map(_gaps, kids))
            return kids

        monkeypatch.setattr(enumeration, "children", counted)
        family = [S.gaps for S in enumerate_by_frobenius(frobenius)]
        prefixes = {gaps[:i] for gaps in family for i in range(1, len(gaps) + 1)}
        assert len(built) == len(set(built))
        assert set(built) == prefixes
        if frobenius in FROBENIUS_WALK_BUILT:
            assert len(built) == FROBENIUS_WALK_BUILT[frobenius]

    @pytest.mark.parametrize("frobenius", [16, 17])
    def test_each_mask_is_the_monoid_below_the_removed_generator(self, frobenius):
        checked = 0
        stack = [_entry(NumericalSemigroup(1), 1)]
        while stack:
            for child in children(stack.pop(), frobenius):
                below = [a for a in child[0] if a < child[1]]
                assert child[4] == _monoid_mask(below, frobenius), child
                stack.append(child)
                checked += 1
        assert checked == len(
            {S.gaps[:i] for S in enumerate_by_frobenius(frobenius) for i in range(1, S.genus + 1)}
        )

    @pytest.mark.parametrize("frobenius", [16, 17])
    def test_mask_cuts_the_capped_list_at_the_first_dead_generator(self, frobenius):
        # on every node of the walk: the live children are the capped ones
        # up to the first g whose monoid below it reaches the target
        stack = [_entry(NumericalSemigroup(1), 1)]
        while stack:
            entry = stack.pop()
            capped = [kid[:4] for kid in children(entry[:4] + (0,), frobenius)]
            dead = [
                kid for kid in capped
                if _monoid_mask([a for a in entry[0] if a < kid[1]], frobenius) >> frobenius & 1
            ]
            live = children(entry, frobenius)
            cut = capped.index(dead[0]) if dead else len(capped)
            assert [kid[:4] for kid in live] == capped[:cut], entry
            stack.extend(live)

    @pytest.mark.parametrize(
        "walk, limit, closures",
        [(enumerate_by_frobenius, *item) for item in FROBENIUS_WALK_CLOSURES.items()]
        + [(enumerate_by_genus, *item) for item in GENUS_WALK_CLOSURES.items()],
    )
    def test_closures_frozen(self, monkeypatch, walk, limit, closures):
        # a mask is closed only for a later sibling, and mask 0 never
        closed, original = [], enumeration.close_under

        def counted(mask, g, cap):
            closed.append(g)
            return original(mask, g, cap)

        monkeypatch.setattr(enumeration, "close_under", counted)
        for _ in walk(limit):
            pass
        assert len(closed) == closures

    def test_without_a_target_the_mask_is_passed_through(self):
        # live mask 0 prunes nothing and closes to 0: each child carries it, capped or not
        for S in enumerate_by_genus(9):
            for limit in (None, S.frobenius + S.multiplicity):
                kids = children(_entry(S, 0), limit)
                cap = S.generators[-1] if limit is None else limit
                assert [kid[1] for kid in kids] == [
                    g for g in S.generators if S.frobenius < g <= cap
                ]
                assert all(kid[4] == 0 for kid in kids)

    @pytest.mark.parametrize("frobenius", sorted(FROBENIUS_WALK_BUILT))
    def test_walk_builds_one_semigroup_per_member(self, monkeypatch, frobenius):
        # children lists every live node's entry; only the members become objects.
        # Every construction fills its slots through _set_slots, under either name.
        entries, objects = [], []
        listed, fill = enumeration.children, semigroup._set_slots

        def counted(entry, limit=None):
            kids = listed(entry, limit)
            entries.extend(kids)
            return kids

        def filled(S, generators, *slots):
            objects.append(generators)
            return fill(S, generators, *slots)

        monkeypatch.setattr(enumeration, "children", counted)
        for module in (semigroup, enumeration):
            monkeypatch.setattr(module, "_set_slots", filled)
        family = [S.generators for S in enumerate_by_frobenius(frobenius)]
        assert objects == family and len(family) == FROBENIUS_FAMILIES[frobenius][0]
        assert len(entries) == FROBENIUS_WALK_BUILT[frobenius]


class TestGenusCap:
    def test_fractional_cap_stops(self):
        # a cap of 2.5 admits genus <= 2; islice keeps a walk that never stops finite
        assert [S.genus for S in islice(enumerate_by_genus(2.5), 10)] == [0, 1, 2, 2]


class TestResume:
    @pytest.mark.parametrize("g_max", [-1, 0, 1, 3, 4, 10])
    @pytest.mark.parametrize(
        "path",
        [(1, 1), (1, 2, 2), (5,), (1, 9), (0,), (-1,), (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 14, 99)],
    )
    def test_path_naming_no_node_rejected_at_the_call(self, g_max, path):
        # below, at and beyond the cap alike: (1, 1) once resumed as (1,)
        with pytest.raises(ValueError, match="not a minimal generator above"):
            enumerate_by_genus(g_max, resume=path)

    @pytest.mark.parametrize("g_max", [3, 5])
    def test_every_node_resumes_to_its_suffix(self, g_max):
        # nodes beyond the cap too: their suffix is the rest of the walk
        walk = [S.gaps for S in enumerate_by_genus(g_max)]
        for path in [S.gaps for S in enumerate_by_genus(g_max + 2)]:
            suffix = [S.gaps for S in enumerate_by_genus(g_max, resume=path)]
            assert suffix == [gaps for gaps in walk if gaps > path], path

    def test_resume_builds_no_earlier_subtree(self, monkeypatch):
        built, original = [], enumeration.children

        def counted(entry, *args):
            kids = original(entry, *args)
            built.extend(kid[0] for kid in kids)
            return kids

        monkeypatch.setattr(enumeration, "children", counted)
        path = (1, 2, 3, 4, 5, 7)
        walk = enumerate_by_genus(6, resume=path)
        # at the call: the children of the path's nodes, nothing more
        ancestors = [NumericalSemigroup.from_gaps(path[:i]) for i in range(len(path))]
        descent = len(built)
        assert descent == sum(len(original(_entry(S))) for S in ancestors)
        # after it: only what the walk yields
        suffix = [S.generators for S in walk]
        assert len(built) > descent and set(built[descent:]) <= set(suffix)


class TestFrobeniusResume:
    @pytest.mark.parametrize("frobenius", range(1, 16))
    def test_every_member_resumes_to_its_suffix(self, frobenius):
        walk = [S.gaps for S in enumerate_by_frobenius(frobenius)]
        for i, path in enumerate(walk):
            suffix = [S.gaps for S in enumerate_by_frobenius(frobenius, resume=path)]
            assert suffix == walk[i + 1:], path

    def test_resume_builds_no_node_before_the_token(self, monkeypatch):
        built, original = [], enumeration.children

        def counted(entry, limit=None):
            kids = original(entry, limit)
            built.extend(map(_gaps, kids))
            return kids

        monkeypatch.setattr(enumeration, "children", counted)
        path = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 21)
        walk = enumerate_by_frobenius(21, resume=path)
        # at the call: the live children of the path's nodes, nothing more
        descent = len(built)
        assert set(built) >= {path[:i] for i in range(1, len(path) + 1)}
        assert all(gaps[:-1] == path[: len(gaps) - 1] for gaps in built)
        # after it: only nodes after the token in walk order, the suffix among them
        suffix = [S.gaps for S in walk]
        assert len(suffix) == 828 and all(gaps > path for gaps in built[descent:])
        assert set(suffix) <= set(built) and len(built) == len(set(built))

    @pytest.mark.parametrize(
        "path, message",
        [
            # <3, 4, 5> minus 5 is <3, 4>: a tree node, but none of its descendants has F = 7
            ((1, 2, 5), r"the node \(1, 2, 5\) has no descendant at F = 7"),
            ((1, 2, 3, 4, 9), "has no descendant at F = 7"),  # 9 > F: capped
            ((1, 2, 3, 4, 5, 6, 7, 8), "has no descendant at F = 7"),  # past a node at F
            ((2,), "2 is not a minimal generator above the Frobenius number -1"),
            ((1, 2, 6), "6 is not a minimal generator above the Frobenius number 2"),
        ],
    )
    def test_path_naming_no_live_node_rejected_at_the_call(self, path, message):
        with pytest.raises(ValueError, match=message):
            enumerate_by_frobenius(7, resume=path)


class TestCounts:
    def test_genus_counts_match_a007323(self):
        counts = [0] * 13
        for S in enumerate_by_genus(12):
            counts[S.genus] += 1
        assert tuple(counts) == SEMIGROUPS_PER_GENUS[:13]

    @pytest.mark.parametrize(
        "frobenius",
        list(range(1, 24)) + [pytest.param(f, marks=pytest.mark.stretch) for f in (24, 25)],
    )
    def test_frobenius_families_frozen(self, frobenius):
        family = list(enumerate_by_frobenius(frobenius))
        assert all(S.frobenius == frobenius for S in family)
        assert _digest(family) == FROBENIUS_FAMILIES[frobenius]

    def test_genus_walk_order_frozen(self):
        order = [S.generators for S in enumerate_by_genus(10)]
        assert (len(order), _hex16(order)) == GENUS_WALK_ORDER

    def test_walk_order_is_ascending_gap_tuples(self):
        # a node's path is its gap tuple, as each step removes the new
        # Frobenius number, and preorder with children ascending is
        # lexicographic order of the paths
        walk = [S.gaps for S in enumerate_by_genus(10)]
        assert walk == sorted(walk)
        for frobenius in range(1, 16):
            walk = [S.gaps for S in enumerate_by_frobenius(frobenius)]
            assert walk == sorted(walk)

    @pytest.mark.parametrize("frobenius", range(1, 22))
    def test_frobenius_walk_order_frozen(self, frobenius):
        # the sorted digests above cannot see the order the walk yields in
        order = [S.generators for S in enumerate_by_frobenius(frobenius)]
        assert _hex16(order) == FROBENIUS_WALK_ORDER[frobenius]


class TestTargets:
    @pytest.mark.parametrize("target", [2.5, 7.0, True, "7", None])
    def test_non_int_frobenius_rejected_at_the_call(self, target):
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_by_frobenius(target)

    @pytest.mark.parametrize("target", [0, -1])
    def test_frobenius_below_one_rejected_at_the_call(self, target):
        with pytest.raises(ValueError, match=">= 1"):
            enumerate_by_frobenius(target)

    @pytest.mark.parametrize("target", [7.0, 2.5, True, False, "7"])
    def test_non_int_ci_target_rejected(self, target):
        ci_with_frobenius(7)
        ci_with_frobenius(1)
        # 7.0 == 7 and True == 1, so an untyped cache would answer these
        with pytest.raises(ValueError, match="must be an int"):
            ci_with_frobenius(target)

    def test_int_targets_still_answer(self):
        assert [S.generators for S in ci_with_frobenius(1)] == [(2, 3)]
        assert ci_with_frobenius(-1) == (NumericalSemigroup(1),)
        assert ci_with_frobenius(8) == ()


class TestGluedFamilies:
    @pytest.mark.parametrize(
        "frobenius",
        list(range(1, 152, 2)) + [pytest.param(f, marks=pytest.mark.stretch) for f in (201, 301)],
    )
    def test_families_frozen(self, frobenius):
        family = ci_with_frobenius(frobenius)
        assert all(S.frobenius == frobenius for S in family)
        assert _digest(family) == CI_FAMILIES[frobenius]

    @pytest.mark.parametrize(
        "frobenius, built", [(151, 1586), pytest.param(301, 15233, marks=pytest.mark.stretch)]
    )
    def test_each_complete_intersection_is_built_once(self, monkeypatch, frobenius, built):
        cached = enumeration.ci_with_frobenius
        targets = {frobenius}
        constructions = 0
        init = NumericalSemigroup.__init__

        def recorded(target):
            targets.add(target)
            return cached(target)

        def counted(S, *raw):
            nonlocal constructions
            constructions += 1
            init(S, *raw)

        cached.cache_clear()
        monkeypatch.setattr(enumeration, "ci_with_frobenius", recorded)
        monkeypatch.setattr(NumericalSemigroup, "__init__", counted)
        cached(frobenius)
        monkeypatch.undo()
        # one construction per semigroup the cache holds, over targets that
        # are -1 or odd, as the cache's maxsize comment counts them
        assert all(target == -1 or target % 2 for target in targets)
        assert cached.cache_info().currsize == len(targets)
        assert constructions == sum(len(cached(target)) for target in targets) == built


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
        return semigroup_from_gaps(gaps)
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
