from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from nsg import (
    NotAMemberError,
    ci_with_frobenius,
    NumericalSemigroup,
    betti_elements,
    denumerant_series,
    enumerate_by_frobenius,
    enumerate_by_genus,
    factorization_graph,
    factorizations,
    presentation_size,
)
from nsg.bettiposet import OrderedSubset
from nsg.factorization import _components

from oracles import minimal_presentation, mul_one_minus_xk_pow, restricted_factorizations


def value_of(S, vector):
    return sum(e * g for e, g in zip(vector, S.generators))


class TestFactorizations:
    def test_examples(self, s456):
        assert factorizations(s456, 10) == [(1, 0, 1), (0, 2, 0)]
        assert factorizations(s456, 12) == [(3, 0, 0), (0, 0, 2)]
        assert factorizations(NumericalSemigroup(2, 3), 1) == []

    def test_zero_and_generators(self, s456):
        assert factorizations(s456, 0) == [(0, 0, 0)]
        assert factorizations(s456, 5) == [(0, 1, 0)]
        assert factorizations(s456, -2) == []

    def test_descending_order_and_values(self, five_gen):
        for s in (30, 48, 57, 70):
            vectors = factorizations(five_gen, s)
            assert vectors == sorted(vectors, reverse=True)
            assert all(value_of(five_gen, v) == s for v in vectors)

    def test_denumerant(self, s456, s357):
        assert denumerant_series(s456, 10)[10] == 2
        assert denumerant_series(s357, 6)[6] == 1
        assert denumerant_series(s357, 0)[0] == 1
        assert denumerant_series(s357, 1)[1] == 0

    def test_series_matches_enumeration(self, five_gen):
        bound = 60
        series = denumerant_series(five_gen, bound)
        for s in range(bound + 1):
            assert series[s] == len(factorizations(five_gen, s))

    def test_series_matches_product_expansion(self, s469):
        bound = s469.default_bound - 1
        series = denumerant_series(s469, bound)
        product = [1] + [0] * bound
        for g in s469.generators:
            product = mul_one_minus_xk_pow(product, g, -1, bound)
        assert product == series


class TestGraph:
    def test_disconnected_example(self, s469):
        graph = factorization_graph(s469, 18)
        assert graph.vertices == ((3, 1, 0), (0, 3, 0), (0, 0, 2))
        assert graph.r_classes == ((0, 1), (2,))
        assert graph.n_classes == 2

    def test_two_singletons(self, s357):
        graph = factorization_graph(s357, 10)
        assert graph.n_classes == 2
        assert all(len(c) == 1 for c in graph.r_classes)

    def test_generator_is_connected(self, s357):
        for g in s357.generators:
            graph = factorization_graph(s357, g)
            assert graph.n_classes == 1
            assert graph.vertices == (tuple(1 if x == g else 0 for x in s357.generators),)

    def test_non_member_raises(self, s357):
        with pytest.raises(NotAMemberError):
            factorization_graph(s357, 4)


class TestBettiCatalog:
    def test_357(self, s357):
        catalog = betti_elements(s357)
        assert sorted(catalog) == [10, 12, 14]
        assert all(data.nc == 2 and data.isolated_count == 2 for data in catalog.values())

    def test_five_generators(self, five_gen):
        assert sorted(betti_elements(five_gen)) == [30, 32, 34, 35, 36, 48, 57]

    def test_two_generators(self):
        for a, b in ((2, 3), (3, 5), (4, 9)):
            assert sorted(betti_elements(NumericalSemigroup(a, b))) == [a * b]

    def test_trivial_has_none(self, naturals):
        assert betti_elements(naturals) == {}

    def test_keys_within_window(self, five_gen):
        catalog = betti_elements(five_gen)
        for b in catalog:
            assert 2 * five_gen.multiplicity <= b <= five_gen.default_bound - 1

    def test_connected_above_bound(self, s357, s456):
        # the search bound is conservative: a window above it stays connected
        for S in (s357, s456):
            bound = S.default_bound - 1
            for s in range(bound + 1, bound + S.generators[-1] + 1):
                assert factorization_graph(S, s).n_classes == 1


def definition_classes(S, s):
    """The oracle: the R-classes of s by their definition.

    Factorizations are joined when their supports meet; the result lists
    vertex indices per class, classes ordered by their smallest index.
    """
    classes = []  # (indices, union of supports)
    for index, vector in enumerate(factorizations(S, s)):
        indices, support = [index], {i for i, e in enumerate(vector) if e}
        for other in [c for c in classes if c[1] & support]:
            classes.remove(other)
            indices += other[0]
            support |= other[1]
        classes.append((indices, support))
    return tuple(sorted(tuple(sorted(indices)) for indices, _ in classes))


def assert_matches_definition(S):
    """Every graph's classes and the whole Betti catalog against the definition."""
    catalog = {}
    for s in range(S.default_bound):
        if s not in S:
            continue
        classes = definition_classes(S, s)
        assert factorization_graph(S, s).r_classes == classes, (S.generators, s)
        if len(classes) >= 2:
            catalog[s] = (len(classes), sum(1 for c in classes if len(c) == 1))
    nabla = {b: (data.nc, data.isolated_count) for b, data in betti_elements(S).items()}
    assert nabla == catalog, S.generators


class TestCatalogMatchesGraphs:
    """The ∇_s classes, of the Betti catalog and of the graphs, against the definition."""

    @pytest.mark.parametrize(
        "genus_max", [10, pytest.param(12, marks=pytest.mark.stretch)]
    )
    def test_by_genus(self, genus_max):
        for S in enumerate_by_genus(genus_max):
            assert_matches_definition(S)

    @pytest.mark.stretch
    def test_by_frobenius_up_to_21(self):
        for frobenius in range(1, 22):
            for S in enumerate_by_frobenius(frobenius):
                assert_matches_definition(S)

    @pytest.mark.parametrize(
        "frobenius", [range(1, 42, 2), pytest.param(range(81, 82), marks=pytest.mark.stretch)],
        ids=["up-to-41", "81"],
    )
    def test_glued_complete_intersections(self, frobenius):
        for F in frobenius:
            for S in ci_with_frobenius(F):
                assert_matches_definition(S)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    def test_random_generating_sets(self, values):
        assume(gcd(*values) == 1)
        assert_matches_definition(NumericalSemigroup(values))


class TestCatalogShortcuts:
    """The facts :func:`betti_elements` scans by, held to the graphs of every element."""

    def test_betti_elements_are_apery_plus_generator(self):
        # s is Betti => s - n_i in Ap(S, m) for some generator n_i other than m
        for S in enumerate_by_genus(10):
            apery = set(S.apery_set(S.multiplicity))
            for s in range(S.default_bound):
                if s in S and factorization_graph(S, s).n_classes >= 2:
                    assert any(s - g in apery for g in S.generators[1:]), (S.generators, s)

    def test_singleton_component_restricted_denumerant_is_1(self):
        # the factorizations of s over {n_i} alone, for {n_i} a component of ∇_s
        for S in enumerate_by_genus(8):
            bound = S.default_bound - 1
            window, vertices = S.window(bound), sum(1 << g for g in S.generators)
            for s in range(bound + 1):
                vectors = factorizations(S, s)
                for part in _components(window >> (bound - s), vertices):
                    if part & (part - 1) == 0:  # one vertex
                        i = S.generators.index(part.bit_length() - 1)
                        over_part = [v for v in vectors if sum(v) == v[i]]
                        assert len(over_part) == 1, (S.generators, s)

    @pytest.mark.parametrize(
        "family",
        [
            lambda: enumerate_by_genus(9),
            lambda: (S for F in range(1, 42, 2) for S in ci_with_frobenius(F)),
        ],
        ids=["genus-9", "ci-up-to-41"],
    )
    def test_unique_factorization_iff_above_no_betti(self, family):
        # x has one factorization iff x in S and x - b not in S for every Betti b
        for S in family():
            catalog = betti_elements(S)
            counts = denumerant_series(S, S.default_bound)
            for x, count in enumerate(counts):
                above_none = x in S and not any(x - b in S for b in catalog)
                assert (count == 1) == above_none, (S.generators, x)

    def test_isolated_class_iff_each_vertex_leaves_one_factorization(self):
        # R_C is a singleton iff s - c has one factorization for every c in C
        for S in enumerate_by_genus(8):
            bound = S.default_bound - 1
            window, vertices = S.window(bound), sum(1 << g for g in S.generators)
            counts = denumerant_series(S, bound)
            for s in range(bound + 1):
                vectors = factorizations(S, s)
                for mask in _components(window >> (bound - s), vertices):
                    part = [c for c in S.generators if mask >> c & 1]
                    indices = [S.generators.index(c) for c in part]
                    in_class = [v for v in vectors if any(v[i] for i in indices)]
                    unique_below = all(counts[s - c] == 1 for c in part)
                    assert (len(in_class) == 1) == unique_below, (S.generators, s)


class TestIsolated:
    def test_all_isolated_at_minimal(self, s456):
        assert factorization_graph(s456, 10).isolated() == factorizations(s456, 10)

    def test_57_has_isolated(self, five_gen):
        assert factorization_graph(five_gen, 57).isolated() == [(0, 0, 0, 0, 3)]

    def test_generator_trivially_isolated(self, s357):
        assert factorization_graph(s357, 3).isolated() == [(1, 0, 0)]

    def test_minimality_characterization(self, five_gen):
        # a factorization is non-isolated iff it strictly dominates an
        # isolated factorization of some Betti element
        catalog = betti_elements(five_gen)
        pool = [
            x
            for b in catalog
            for x in factorization_graph(five_gen, b).isolated()
        ]
        for s in range(70):
            if s not in five_gen:
                continue
            graph = factorization_graph(five_gen, s)
            isolated = set(graph.isolated())
            for z in graph.vertices:
                dominates = any(
                    all(a >= b for a, b in zip(z, x)) and z != x for x in pool
                )
                assert (z not in isolated) == dominates

    def test_betti_minimal_equivalence(self, five_gen, s456):
        # minimal Betti elements = elements with >= 2 factorizations, all isolated
        for S in (five_gen, s456):
            catalog = betti_elements(S)
            minimals = set(OrderedSubset(S, catalog).minimals())
            for b, data in catalog.items():
                all_isolated = data.isolated_count == data.nc == denumerant_series(S, b)[b]
                assert (b in minimals) == all_isolated

    def test_chain_nonminimal_has_one_big_class(self, five_gen, s469):
        # elements of the chain-downset part that are not minimal have exactly
        # one non-singleton class
        for S in (five_gen, s469):
            catalog = betti_elements(S)
            subset = OrderedSubset(S, catalog)
            minimals = set(subset.minimals())
            for b in subset.u_set():
                if b in minimals:
                    continue
                graph = factorization_graph(S, b)
                assert sum(1 for c in graph.r_classes if len(c) > 1) == 1
                assert graph.n_classes - 1 == len(graph.isolated())

    def test_disjoint_supports_down_the_order(self, five_gen):
        catalog = betti_elements(five_gen)
        for b1 in catalog:
            for b2 in catalog:
                if b1 == b2 or (b2 - b1) not in five_gen:
                    continue
                for x in factorizations(five_gen, b1):
                    for y in factorization_graph(five_gen, b2).isolated():
                        assert not any(p and q for p, q in zip(x, y))


def presentation_length(S):
    """Number of pairs in the oracle's minimal presentation of S."""
    return sum(len(chains) for chains in minimal_presentation(S).values())


class TestMinimalPresentation:
    def test_sizes(self, s357, s469):
        assert presentation_length(s357) == 3
        assert presentation_length(s469) == 2

    def test_two_generator_pair(self):
        S = NumericalSemigroup(3, 5)
        assert minimal_presentation(S) == {15: (((5, 0), (0, 3)),)}

    def test_pairs_factor_the_same_element(self, five_gen):
        for b, chains in minimal_presentation(five_gen).items():
            for x, y in chains:
                assert value_of(five_gen, x) == value_of(five_gen, y) == b

    def test_size_formula(self, five_gen):
        catalog = betti_elements(five_gen)
        assert presentation_length(five_gen) == sum(
            data.nc - 1 for data in catalog.values()
        ) == presentation_size(five_gen)


class TestRestrictedFactorizations:
    def test_everything_example(self, s456):
        assert restricted_factorizations(s456, 72, {10, 12}) == factorizations(s456, 72)

    def test_counted_example(self, s456):
        result = restricted_factorizations(s456, 20, {10})
        assert result == [(2, 0, 2), (1, 2, 1), (0, 4, 0)]
        assert len(result) == comb(3, 2)

    def test_empty_restriction(self, s456, s357):
        assert restricted_factorizations(s456, 10, set()) == []
        assert restricted_factorizations(s357, 6, set()) == factorizations(s357, 6)

    def test_binomial_count_at_betti_minimal(self, s456, s357):
        for S, b in ((s456, 10), (s456, 12), (s357, 10)):
            data = betti_elements(S)[b]
            apery = set(S.apery_set(b))
            counts = denumerant_series(S, S.default_bound - 1)
            for s in range(S.default_bound):
                if s not in S:
                    continue
                q, w = 0, s
                while w not in apery:
                    w -= b
                    q += 1
                expected = comb(data.isolated_count + q - 1, q) if counts[w] == 1 else 0
                assert len(restricted_factorizations(S, s, {b})) == expected

    def test_union_recurrence_inequality(self, s456):
        # adding one Betti element to the restriction obeys the convolution bound
        i12 = betti_elements(s456)[12].isolated_count
        for s in range(0, 50):
            if s not in s456:
                continue
            lhs = len(restricted_factorizations(s456, s, {10, 12}))
            rhs = 0
            j = 0
            while s - j * 12 >= 0:
                if (s - j * 12) in s456:
                    rhs += len(restricted_factorizations(s456, s - j * 12, {10})) * comb(
                        i12 + j - 1, j
                    )
                j += 1
            assert lhs <= rhs

    def test_chain_recurrence_equality(self, five_gen):
        # restriction along a chain down-set: the convolution bound is exact
        u = 48
        chain = {32, 48}
        i_u = betti_elements(five_gen)[u].isolated_count
        for s in range(0, 75):
            if s not in five_gen:
                continue
            lhs = len(restricted_factorizations(five_gen, s, chain))
            rhs = 0
            j = 0
            while s - j * u >= 0:
                if (s - j * u) in five_gen:
                    rhs += len(
                        restricted_factorizations(five_gen, s - j * u, {32})
                    ) * comb(i_u + j - 1, j)
                j += 1
            assert lhs == rhs


class TestUniqueFactorizationIdentity:
    def test_apery_intersection(self, s357, s456, five_gen):
        # elements with a unique factorization = intersection of the Apery
        # sets over Betti elements = same over minimal Betti elements only
        for S in (s357, s456, five_gen):
            catalog = betti_elements(S)
            top = S.frobenius + max(catalog)
            counts = denumerant_series(S, top)
            unique = {m for m in range(top + 1) if counts[m] == 1}
            over_all = set.intersection(*(set(S.apery_set(b)) for b in catalog))
            minimals = OrderedSubset(S, catalog).minimals()
            over_minimals = set.intersection(*(set(S.apery_set(b)) for b in minimals))
            assert unique == over_all == over_minimals


class TestSmallFamilySweep:
    def test_graph_partition_invariants(self):
        for S in enumerate_by_genus(6):
            catalog = betti_elements(S)
            for b, data in catalog.items():
                graph = factorization_graph(S, b)
                indices = sorted(i for cls in graph.r_classes for i in cls)
                assert indices == list(range(len(graph.vertices)))
                assert data.nc >= 2
