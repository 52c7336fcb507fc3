import hashlib
import json
from collections import Counter
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from nsg import (
    NumericalSemigroup,
    betti_elements,
    ci_with_frobenius,
    classify,
    denumerant_series,
    enumerate_by_frobenius,
    enumerate_by_genus,
    exponent_sequence,
    exponent_support,
    leq,
    verify_theorems,
)
from nsg.bettiposet import OrderedSubset, SemigroupAnalysis
from nsg.witt import ExponentSequence

from expected import ORDER_DIGEST_FROBENIUS_21, ORDER_DIGEST_GENUS_10
from oracles import elements_up_to, hilbert_prefix, restricted_factorizations


def analysis_at(S, bound):
    """The analysis of S read at a truncation longer than the default one."""
    analysis = SemigroupAnalysis(S)
    analysis.bound = bound  # before the first read, as every prefix is cut at it
    return analysis


def down_set(subset, x):
    """The principal down-set of x within an ordered subset, by definition."""
    assert x in subset
    return OrderedSubset(subset.S, [y for y in subset if subset.leq(y, x)])


def definition_minimals(subset):
    S = subset.S
    return tuple(x for x in subset if not any(y != x and leq(S, y, x) for y in subset))


def definition_totally_ordered(S, elements):
    return all(leq(S, a, b) or leq(S, b, a) for a, b in combinations(elements, 2))


def definition_u_set(subset):
    S = subset.S
    return tuple(
        x for x in subset if definition_totally_ordered(S, [y for y in subset if leq(S, y, x)])
    )


def definition_covers(subset):
    """Transitive reduction: a < b with nothing strictly between, O(n^3)."""
    S, elements = subset.S, subset.elements
    return tuple(sorted(
        (a, b)
        for a in elements
        for b in elements
        if a != b
        and leq(S, a, b)
        and not any(c not in (a, b) and leq(S, a, c) and leq(S, c, b) for c in elements)
    ))


def definition_is_forest(subset):
    lower_cover_counts = Counter(b for _, b in definition_covers(subset))
    return all(n <= 1 for n in lower_cover_counts.values())


def assert_matches_definitions(subset):
    S, elements = subset.S, subset.elements
    for a in elements:
        for b in elements:
            assert subset.leq(a, b) == leq(S, a, b), (S, a, b)
    assert subset.minimals() == definition_minimals(subset), S
    assert subset.is_totally_ordered() == definition_totally_ordered(S, elements), S
    assert tuple(subset.u_set()) == definition_u_set(subset), S
    diagram = subset.hasse()
    assert diagram.elements == elements
    assert diagram.covers == definition_covers(subset), S
    assert diagram.is_forest == definition_is_forest(subset), S


def residual_coefficients(S, chain, bound):
    """Membership series times ``(1 - x^b)^(-e_b)`` for each b of a chain.

    e_b is the number of R-classes of b minus one. The chain must hold Betti
    elements with a chain down-set, in ascending order; the empty chain
    leaves the membership indicator.
    """
    catalog = betti_elements(S)
    u_elements = set(OrderedSubset(S, catalog).u_set())
    assert all(b in u_elements for b in chain), chain
    assert all(leq(S, a, b) for a, b in zip(chain, chain[1:])), chain
    coefficients = [1 if s in S else 0 for s in range(bound + 1)]
    for b in chain:
        exponent = catalog[b].nc - 1
        convolved = [0] * (bound + 1)
        for j in range(0, bound // b + 1):
            weight = comb(exponent + j - 1, j)
            if weight == 0:
                continue
            shift = j * b
            for s in range(shift, bound + 1):
                if coefficients[s - shift]:
                    convolved[s] += weight * coefficients[s - shift]
        coefficients = convolved
    return coefficients


class TestOrder:
    def test_examples(self, glued):
        assert leq(glued, 24, 36)
        assert not leq(glued, 36, 50)
        assert not leq(glued, 50, 36)
        assert leq(glued, 36, 36)

    def test_reflexive_antisymmetric_transitive(self, five_gen):
        elements = elements_up_to(five_gen, 60)
        subset = OrderedSubset(five_gen, elements)
        for a in elements:
            assert subset.leq(a, a)
        for a in elements:
            for b in elements:
                if a != b and subset.leq(a, b):
                    assert not subset.leq(b, a)
        for a in elements[:20]:
            for b in elements[:20]:
                for c in elements[:20]:
                    if subset.leq(a, b) and subset.leq(b, c):
                        assert subset.leq(a, c)

    def test_leq_with_a_non_element_is_false(self):
        # 30 - 12 = 18 is a member, but only elements are ordered
        subset = OrderedSubset(NumericalSemigroup(4, 6, 9), [12, 18])
        assert leq(subset.S, 12, 30)
        assert not subset.leq(12, 30)
        assert not subset.leq(30, 12)
        # so is 12 - (-6), and a negative a is no element either
        assert leq(subset.S, -6, 12)
        assert not subset.leq(-6, 12)
        assert not subset.leq(-1, 12)


class TestDefinitions:
    def test_analysis_orders_up_to_genus_9(self):
        for S in enumerate_by_genus(9):
            analysis = SemigroupAnalysis(S)
            assert_matches_definitions(analysis.betti_order)
            assert_matches_definitions(analysis.support_order)

    @pytest.mark.parametrize(
        "family, sides",
        [
            (lambda: (S for F in range(1, 82, 2) for S in ci_with_frobenius(F)), {-1, 1}),
            pytest.param(lambda: enumerate_by_genus(12), {1}, marks=pytest.mark.stretch),
            pytest.param(lambda: enumerate_by_frobenius(21), {1}, marks=pytest.mark.stretch),
        ],
        ids=["ci-up-to-81", "genus-12", "frobenius-21"],
    )
    def test_analysis_orders_of_families(self, family, sides):
        # each order reads S's window over 0..its largest element, which is
        # S's mask shifted down when that top is below F and up when above
        seen = set()
        for S in family():
            analysis = SemigroupAnalysis(S)
            for subset in (analysis.betti_order, analysis.support_order):
                assert_matches_definitions(subset)
                if subset.elements:
                    top = subset.elements[-1]
                    seen.add((top > S.frobenius) - (top < S.frobenius))
        assert seen == sides

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(2, 30), min_size=1, max_size=5),
        st.integers(0, 2**81 - 1),
    )
    def test_random_member_subsets(self, generators, mask):
        assume(gcd(*generators) == 1)
        S = NumericalSemigroup(generators)
        members = [m for m in elements_up_to(S, 80) if mask >> m & 1]
        assert_matches_definitions(OrderedSubset(S, members))


class TestDownSet:
    def test_example(self, five_gen):
        betti = OrderedSubset(five_gen, betti_elements(five_gen))
        assert tuple(down_set(betti, 57)) == (30, 32, 57)
        assert tuple(down_set(betti, 48)) == (32, 48)
        assert tuple(down_set(betti, 30)) == (30,)


class TestUSet:
    def test_example(self, five_gen):
        betti = OrderedSubset(five_gen, betti_elements(five_gen))
        assert tuple(betti.u_set()) == (30, 32, 34, 35, 36, 48)

    def test_chain_is_fixed(self, s469):
        betti = OrderedSubset(s469, betti_elements(s469))
        assert tuple(betti.u_set()) == tuple(betti)

    def test_support_prefix(self, s357):
        support = analysis_at(s357, 30).support
        subset = OrderedSubset(s357, [d for d in support.members if d <= 30])
        assert tuple(subset.u_set()) == (10, 12, 14)

    def test_minimals_preserved(self, five_gen, s357):
        for S in (five_gen, s357):
            betti = OrderedSubset(S, betti_elements(S))
            assert betti.minimals() == OrderedSubset(S, betti.u_set()).minimals()

    def test_totally_ordered_iff_u_is(self):
        for S in enumerate_by_genus(7):
            betti = OrderedSubset(S, betti_elements(S))
            u_set = OrderedSubset(S, betti.u_set())
            assert betti.is_totally_ordered() == u_set.is_totally_ordered()

    def test_matches_down_set_definition(self):
        # the definition, one down-set subset per element, as the oracle
        for S in enumerate_by_genus(9):
            analysis = SemigroupAnalysis(S)
            for subset in (analysis.betti_order, analysis.support_order):
                expected = [x for x in subset if down_set(subset, x).is_totally_ordered()]
                assert list(subset.u_set()) == expected, S


class TestHasse:
    def test_glued_covers(self, glued):
        diagram = OrderedSubset(glued, betti_elements(glued)).hasse()
        assert diagram.covers == ((24, 36), (24, 50))
        assert diagram.is_forest

    def test_five_gen_covers(self, five_gen):
        diagram = OrderedSubset(five_gen, betti_elements(five_gen)).hasse()
        assert diagram.covers == ((30, 57), (32, 48), (32, 57))
        assert not diagram.is_forest

    def test_full_top_down_set_is_not_enough(self):
        # 7 lies above both 3 and 4, which are incomparable
        subset = OrderedSubset(NumericalSemigroup(3, 4), [3, 4, 7])
        assert not subset.is_totally_ordered()
        assert subset.u_set() == (3, 4)
        diagram = subset.hasse()
        assert diagram.covers == ((3, 7), (4, 7))
        assert not diagram.is_forest
        assert_matches_definitions(subset)

    def test_singleton(self):
        S = NumericalSemigroup(3, 5)
        diagram = OrderedSubset(S, betti_elements(S)).hasse()
        assert diagram.covers == ()
        assert diagram.is_forest

    def test_forest_iff_all_downsets_chains(self):
        for S in enumerate_by_genus(7):
            betti = OrderedSubset(S, betti_elements(S))
            assert betti.hasse().is_forest == (
                tuple(betti.u_set()) == tuple(betti)
            )

    def test_dot(self, glued):
        dot = OrderedSubset(glued, betti_elements(glued)).hasse().to_dot()
        assert '"24" -> "36";' in dot
        assert '"24" -> "50";' in dot
        assert dot.startswith("digraph hasse {")


class TestExponentSupport:
    def test_prefix_of_unbounded_support(self, s357):
        support = analysis_at(s357, 30).support
        assert support.members[:5] == (10, 12, 14, 17, 19)
        assert not support.exact

    def test_exact_for_finite_support(self, glued):
        support = exponent_support(glued)
        assert support.members == (24, 36, 50)
        assert support.exact

    def test_trivial(self, naturals):
        support = exponent_support(naturals)
        assert support.members == () and support.exact

    def test_members_in_semigroup_with_two_factorizations(self, five_gen):
        support = exponent_support(five_gen)
        for d in support.members:
            if d <= five_gen.default_bound:
                assert d in five_gen
                assert denumerant_series(five_gen, d)[d] >= 2


class TestResidualCoefficients:
    def test_counted_example(self, s456):
        assert residual_coefficients(s456, (10,), 25)[20] == 3

    def test_empty_chain_is_indicator(self, s456):
        assert residual_coefficients(s456, (), 30) == hilbert_prefix(s456, 30)

    def test_restricted_count_bridge(self, s469, five_gen):
        # coefficients equal restricted-factorization counts whenever the
        # chain is a full down-set and a single minimal element sits below s
        cases = [(s469, (12, 18)), (five_gen, (32, 48))]
        for S, chain in cases:
            catalog = betti_elements(S)
            minimals = OrderedSubset(S, catalog).minimals()
            bound = S.frobenius + 2 * S.generators[-1]
            series = residual_coefficients(S, chain, bound)
            b1 = chain[0]
            for s in range(bound + 1):
                if s not in S:
                    continue
                below = [m for m in minimals if leq(S, m, s)]
                if below != [b1]:
                    continue
                assert series[s] == len(
                    restricted_factorizations(S, s, set(chain))
                ), (S, s)


class TestClassify:
    def test_469(self, s469):
        flags = classify(s469)
        assert flags.betti_sorted
        assert not flags.betti_divisible
        assert not flags.unique_betti
        assert flags.betti_forest and flags.e_forest

    def test_23(self):
        flags = classify(NumericalSemigroup(2, 3))
        assert flags.betti_sorted and flags.betti_divisible and flags.unique_betti

    def test_five_gen(self, five_gen):
        flags = classify(five_gen)
        assert not flags.betti_sorted
        assert not flags.betti_divisible
        assert not flags.unique_betti
        assert not flags.betti_forest
        assert flags.e_forest is False

    def test_undecided_prefix_reports_none(self):
        # truncated support with no violation: forest-ness stays undecided
        S = NumericalSemigroup(5, 6, 7)
        support = exponent_support(S)
        assert support.members == (12, 20, 21)
        assert not support.exact
        assert OrderedSubset(S, support.members).hasse().is_forest
        assert classify(S).e_forest is None
        # None is not a hidden True: a longer prefix shows a violation
        longer = analysis_at(S, 2 * S.default_bound).support
        assert longer.members[:8] == (12, 20, 21, 26, 27, 32, 33, 38)
        assert not OrderedSubset(S, longer.members).hasse().is_forest

    def test_visible_violation_reports_false(self, s357):
        # 17 - 10, 17 - 12 and 17 - 14 are members, so 17 has three lower
        # covers; they all lie below 17, so a prefix holding 17 holds them all
        support = exponent_support(s357)
        assert support.members == (10, 12, 14, 17, 19)
        assert not support.exact
        covers = OrderedSubset(s357, support.members).hasse().covers
        assert [c for c in covers if c[1] == 17] == [(10, 17), (12, 17), (14, 17)]
        assert classify(s357).e_forest is False
        longer = analysis_at(s357, 2 * s357.default_bound).support
        covers = OrderedSubset(s357, longer.members).hasse().covers
        assert [c for c in covers if c[1] == 17] == [(10, 17), (12, 17), (14, 17)]

    def test_e_forest_three_valued_contract(self):
        for S in enumerate_by_genus(6):
            e_forest = classify(S).e_forest
            support = exponent_support(S)
            if e_forest is True:
                assert support.exact, S
            elif e_forest is None:
                assert not support.exact, S
                assert OrderedSubset(S, support.members).hasse().is_forest, S
            else:
                assert e_forest is False, S
                longer = analysis_at(S, 2 * S.default_bound).support
                assert not OrderedSubset(S, longer.members).hasse().is_forest, S

    def test_divisible_example(self):
        flags = classify(NumericalSemigroup(4, 6, 9))
        assert not flags.betti_divisible
        flags = classify(NumericalSemigroup(2, 3))
        assert flags.betti_divisible

    def test_sorted_iff_support_sorted_on_finite_support(self):
        for S in enumerate_by_genus(7):
            flags = classify(S)  # internal asserts cross-check the claim
            support = exponent_support(S)
            if support.exact:
                subset = OrderedSubset(S, support.members)
                assert flags.betti_sorted == subset.is_totally_ordered()


def test_an_analysis_field_is_computed_once_and_kept_on_the_instance(s469, catalog_builds):
    analysis = SemigroupAnalysis(s469)
    assert analysis.betti is analysis.betti
    assert catalog_builds[s469.generators] == 1
    assert analysis.__dict__["betti"] is analysis.betti
    assert SemigroupAnalysis.sequence.__doc__.startswith("e_1..e_bound")


class TestVerifyTheorems:
    """The four witness methods, read in order through :func:`verify_theorems`."""

    def test_examples_pass(self, s357, five_gen, naturals):
        for S in (s357, five_gen, naturals):
            witnesses = verify_theorems(S)
            assert witnesses == (None,) * 4, witnesses

    def test_exponent_values_check(self, s357):
        sequence = exponent_sequence(s357)
        assert SemigroupAnalysis(s357).exponent_values_witness() is None
        assert sequence[10] == sequence[12] == sequence[14] == 1

    def test_vacuous_on_the_trivial_semigroup_without_a_sweep(self, naturals):
        # e_1 = 0 on <1>, so the values check would fail there if it read the sweep
        analysis = SemigroupAnalysis(naturals)
        assert analysis.exponent_values_witness() is None
        assert analysis.minimal_betti_witness() is analysis.chain_betti_witness() is None
        assert analysis.support_below_witness() is None
        assert "sweep" not in analysis.__dict__ and "betti" not in analysis.__dict__

    def test_small_family_sweep(self):
        for S in enumerate_by_genus(8):
            assert verify_theorems(S) == (None,) * 4, S

    @pytest.mark.parametrize("extra", [0, 7])
    def test_reports_pinned(self, extra):
        # every witness None above the default bound too, where the prefix support grows
        for S in enumerate_by_genus(8):
            a = analysis_at(S, S.default_bound + extra)
            witnesses = (a.exponent_values_witness(), a.minimal_betti_witness(),
                         a.chain_betti_witness(), a.support_below_witness())
            assert witnesses == (None,) * 4, S

    @pytest.mark.parametrize(
        "generators, edits, expected",
        [
            (
                (3, 5, 7),
                {4: 2},
                [
                    "gap 4 has e = 2",
                    "minimals differ: (10, 12, 14) vs (4,)",
                    "chain parts differ: (10, 12, 14) vs (4, 10, 12, 14)",
                    None,
                ],
            ),
            (
                (3, 5, 7),
                {10: 0},
                [
                    None,
                    "minimals differ: (10, 12, 14) vs (12, 14)",
                    "chain parts differ: (10, 12, 14) vs (12, 14)",
                    "10 has 2 factorizations but no support index below",
                ],
            ),
            (
                (4, 6, 9),  # cyclotomic: the support is read off the full exponents
                {12: 5},
                [
                    None,
                    "at 12: e = 5, denumerant - 1 = 1, isolated - 1 = 1",
                    "at 12: e = 5, classes - 1 = 1",
                    None,
                ],
            ),
        ],
    )
    def test_witnesses(self, generators, edits, expected):
        """Each check names what it found on an analysis with a doctored sequence."""
        analysis = SemigroupAnalysis(NumericalSemigroup(generators))
        entries = list(analysis.sequence)
        for j, e in edits.items():
            entries[j - 1] = e
        analysis.__dict__["sequence"] = ExponentSequence(tuple(entries), analysis.bound)
        witnesses = [
            analysis.exponent_values_witness(),
            analysis.minimal_betti_witness(),
            analysis.chain_betti_witness(),
            analysis.support_below_witness(),
        ]
        assert witnesses == expected

    def test_exact_support_is_read_past_the_bound(self):
        """A member of an exact support past the default bound still counts."""
        analysis = SemigroupAnalysis(NumericalSemigroup(3, 5))
        assert analysis.bound == 18
        analysis.__dict__["full_exponents"] = {1: 1, 3: -1, 5: -1, 15: 1, 30: 1}
        assert analysis.chain_betti_witness() == "chain parts differ: (15,) vs (15, 30)"

    def test_minimal_support_indices_reach_what_the_prefix_reaches(self):
        # the fourth check scans only the minimal support indices
        for S in enumerate_by_genus(8):
            support = SemigroupAnalysis(S).support_order
            minimals = support.minimals()
            for s in range(S.default_bound + 1):
                assert any(leq(S, d, s) for d in support) == any(
                    leq(S, m, s) for m in minimals
                ), (S, s)


def order_digest(family) -> str:
    """sha256 of every classification and cover set of a family, in order."""
    records = []
    for S in family:
        analysis = SemigroupAnalysis(S)
        records.append([
            S.generators,
            analysis.classification.to_json_dict(),
            analysis.betti_order.hasse().covers,
            analysis.support_order.hasse().covers,
        ])
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


class TestFamilyPins:
    def test_genus_10(self):
        assert order_digest(enumerate_by_genus(10)) == ORDER_DIGEST_GENUS_10

    @pytest.mark.stretch
    def test_frobenius_21(self):
        assert order_digest(enumerate_by_frobenius(21)) == ORDER_DIGEST_FROBENIUS_21
