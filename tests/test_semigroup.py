import copy
import pickle
import re
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from nsg import (
    EmptyGeneratorsError,
    NonCoprimeGeneratorsError,
    NotAMemberError,
    NumericalSemigroup,
    ci_with_frobenius,
    enumerate_by_frobenius,
    enumerate_by_genus,
)
from nsg.semigroup import close_under

from expected import FROBENIUS_FAMILIES, POLYNOMIAL_3_5_7, POLYNOMIAL_4_6_9
from oracles import (
    elements_up_to,
    hilbert_prefix,
    is_self_reciprocal,
    monoid_by_reachability,
    mul_one_minus_xk_pow,
    semigroup_from_gaps,
    semigroup_polynomial,
)


class TestConstruction:
    def test_minimalizes_generators(self):
        S = NumericalSemigroup(6, 4, 9, 10, 13)
        assert S.generators == (4, 6, 9)

    def test_basic_invariants(self, s469):
        assert s469.frobenius == 11
        assert s469.genus == 6
        assert s469.multiplicity == 4
        assert s469.gaps == (1, 2, 3, 5, 7, 11)

    def test_trivial_semigroup(self, naturals):
        assert naturals.generators == (1,)
        assert naturals.frobenius == -1
        assert naturals.genus == 0
        assert naturals.gaps == ()
        assert naturals.is_trivial

    def test_trivial_with_redundant_generators(self):
        assert NumericalSemigroup(1, 5).generators == (1,)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    def test_minimal_generators_match_the_split_definition(self, values):
        assume(gcd(*values) == 1)
        S = NumericalSemigroup(values)
        # n is redundant iff it is a sum of two non-zero members
        expected = sorted(
            n
            for n in set(values)
            if not any(a in S and n - a in S for a in range(1, n // 2 + 1))
        )
        assert S.generators == tuple(expected)

    def test_empty_raises(self):
        with pytest.raises(EmptyGeneratorsError):
            NumericalSemigroup([])

    def test_non_coprime_raises(self):
        with pytest.raises(NonCoprimeGeneratorsError):
            NumericalSemigroup(2, 4)

    @pytest.mark.parametrize("lone", [2.0, None])
    def test_lone_non_int_non_iterable_raises(self, lone):
        with pytest.raises(ValueError, match=rf"^generators must be ints, got {lone!r}$"):
            NumericalSemigroup(lone)

    def test_any_iterable_of_ints(self):
        for generators in ([3, 5], (3, 5), (g for g in (3, 5))):
            assert NumericalSemigroup(generators).generators == (3, 5)

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError, match="generators must be positive, got 0"):
            NumericalSemigroup(0, 3)

    @pytest.mark.parametrize("raw", [(True, 2), (3, True), ([True, 5],), (1, True), (2, 3, True)])
    def test_bool_generator_raises(self, raw):
        # True == 1 would otherwise build <1> with generators (True,); a set
        # would merge True into an earlier 1, so each value is tested first
        with pytest.raises(ValueError, match="generators must be ints, got True"):
            NumericalSemigroup(*raw)

    @pytest.mark.parametrize("raw", [(2.0, 3), ("3", 5), ([3, 5.0],), (3, 4, None)])
    def test_non_int_generator_raises(self, raw):
        # a float, str or None would otherwise reach gcd or the sort, a bare TypeError
        bad = next(v for v in (raw[0] if len(raw) == 1 else raw) if type(v) is not int)
        with pytest.raises(ValueError, match=re.escape(f"generators must be ints, got {bad!r}")):
            NumericalSemigroup(*raw)

    def test_parse(self):
        assert NumericalSemigroup.parse("4,6,9").generators == (4, 6, 9)
        with pytest.raises(ValueError):
            NumericalSemigroup.parse("4,x")

    def test_equality_and_hash(self):
        assert NumericalSemigroup(4, 6, 9, 10) == NumericalSemigroup(4, 6, 9)
        assert len({NumericalSemigroup(2, 3), NumericalSemigroup(3, 2)}) == 1

    def test_immutable(self, s469):
        with pytest.raises(AttributeError):
            s469.frobenius = 0

    def test_large_two_generator_frobenius(self):
        # Frobenius far beyond the initial sieve block exercises the doubling
        S = NumericalSemigroup(50, 51)
        assert S.frobenius == 50 * 51 - 50 - 51

    def test_from_gaps_roundtrip(self, s469):
        assert NumericalSemigroup.from_gaps(s469.gaps) == s469
        assert NumericalSemigroup.from_gaps(()) == NumericalSemigroup(1)

    def test_from_gaps_reads_a_repeated_gap_once(self, s469):
        assert NumericalSemigroup.from_gaps([11, 1, 2, 1, 5, 3, 7, 11]) == s469

    def test_from_gaps_rejects_unclosed_complement(self):
        with pytest.raises(ValueError):
            NumericalSemigroup.from_gaps({3})  # 1 + 2 = 3 would leave S

    @pytest.mark.parametrize("gaps", [[True], [2, True], [1, True], [True, 1], [2.0]])
    def test_from_gaps_rejects_a_non_int_gap(self, gaps):
        # True == 1 would otherwise be the gap 1, and the Frobenius number a bool
        bad = next(g for g in gaps if type(g) is not int)
        with pytest.raises(ValueError, match=f"gaps must be ints, got {bad!r}"):
            NumericalSemigroup.from_gaps(gaps)


def _built_or_refused(build, gaps):
    """Every slot of ``build(gaps)``, or the text of the ValueError it raises."""
    try:
        S = build(gaps)
    except ValueError as exc:
        return str(exc)
    return tuple(getattr(S, slot) for slot in NumericalSemigroup.__slots__)


@pytest.mark.parametrize("top", [12, pytest.param(16, marks=pytest.mark.stretch)])
def test_from_gaps_walks_to_what_closure_builds(top):
    """Every gap set with max <= top: the path walk against the closure oracle.

    Same slots, or the same error text, which names the least split of the
    first gap the complement does not close.
    """
    refused = 0
    for size in range(1, top + 1):
        for gaps in combinations(range(1, top + 1), size):
            walked = _built_or_refused(NumericalSemigroup.from_gaps, gaps)
            assert walked == _built_or_refused(semigroup_from_gaps, gaps), gaps
            refused += isinstance(walked, str)
    # the sets built are the gap sets of the semigroups with 1 <= F <= top
    assert 2**top - 1 - refused == sum(FROBENIUS_FAMILIES[f][0] for f in range(1, top + 1))


def assert_built_as_reachability_finds(values) -> None:
    S = NumericalSemigroup(values)
    table, frobenius, generators = monoid_by_reachability(values)
    assert (S.frobenius, S.generators) == (frobenius, generators), values
    # bit j of the mask is F - j: exactly the members in 0..F, none above F
    members = sum(1 << (frobenius - n) for n, member in enumerate(table) if member)
    assert S._mask == members, values
    assert S.genus == table.count(False) == frobenius + 1 - S._mask.bit_count(), values


class TestAgainstReachability:
    """The constructor held to the sums of its generating set, found by a graph search."""

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=8))
    def test_generating_sets(self, values):
        assume(gcd(*values) == 1)
        assert_built_as_reachability_finds(values)

    def test_every_semigroup_of_genus_up_to_12(self):
        for S in enumerate_by_genus(12):
            assert_built_as_reachability_finds(S.generators)
            # unsorted, with a redundant value
            assert_built_as_reachability_finds([*reversed(S.generators), 2 * S.generators[-1]])

    @pytest.mark.parametrize("f_max", [151, pytest.param(301, marks=pytest.mark.stretch)])
    def test_glued_complete_intersections(self, f_max):
        for frobenius in range(1, f_max + 1, 2):
            for S in ci_with_frobenius(frobenius):
                assert_built_as_reachability_finds(S.generators)


def closure_by_multiples(mask: int, g: int, limit: int) -> int:
    """Bit n set iff n <= limit is a set bit of ``mask`` plus a multiple of g."""
    members = [n for n in range(limit + 1) if mask >> n & 1]
    return sum({1 << (n + k * g) for n in members for k in range((limit - n) // g + 1)})


class TestCloseUnder:
    @given(st.integers(0, 1 << 70), st.integers(1, 70), st.integers(0, 64))
    def test_matches_adding_every_multiple(self, mask, g, limit):
        assert close_under(mask, g, limit) == closure_by_multiples(mask, g, limit)

    def test_examples(self):
        assert close_under(1, 3, 10) == 0b1001001001
        assert close_under(1 | 1 << 12, 3, 10) == 0b1001001001  # bits past the limit go
        assert close_under(0b1011, 9, 8) == 0b1011  # g > limit: the cut alone
        assert close_under(0b1011, 5, 0) == 1
        assert close_under(0b1010, 1, 0) == 0


class TestMembership:
    def test_examples(self, s357, s469, naturals):
        assert 4 not in s357
        assert 0 in s357
        assert 11 not in s469
        assert 12 in s469
        assert -3 not in s469
        assert all(n in naturals for n in range(10))

    def test_beyond_table(self, s469):
        assert 10**9 in s469

    def test_membership_agrees_with_contains(self, s357, s469, five_gen, naturals):
        for S in (s357, s469, five_gen, naturals):
            for n in (-3, -1, 0, S.frobenius - 1, S.frobenius, S.default_bound + 5):
                window = S.window(n)
                # bit j is n - j: nothing past n, and 0 for n < 0
                assert window >> max(n + 1, 0) == 0, (S, n)
                member = [bool(window >> (n - k) & 1) for k in range(n + 1)]
                assert member == [k in S for k in range(n + 1)], (S, n)

    def test_table_covers_zero_to_frobenius(self):
        # __init__ and remove_generator both store membership of 0..frobenius
        # only, bit j for F - j: the top bit F is the member 0, and the genus
        # counts the clear bits
        family = [*enumerate_by_genus(12), NumericalSemigroup(100, 101)]
        family += [S for f in range(1, 20) for S in enumerate_by_frobenius(f)]
        assert family[0].is_trivial
        for S in family:
            F = S.frobenius
            assert S._mask.bit_length() == F + 1, S
            assert S.genus == F + 1 - S._mask.bit_count(), S
            # a tree node's shifted mask against a fresh sieve of its generators
            assert S._mask == NumericalSemigroup(S.generators)._mask, S

    def test_membership_returns_a_copy(self, s469):
        # a window is an int: flipping its bits leaves S and later windows as they were
        S, twin = s469, NumericalSemigroup(4, 6, 9)
        gaps, apery, digest = S.gaps, S.apery_set(4), hash(S)
        for n in (S.frobenius, S.default_bound):
            window = S.window(n)
            window ^= (2 << n) - 1
            assert S.window(n) == twin.window(n) == window ^ ((2 << n) - 1)
        assert 11 not in S and 12 in S and 1 not in S and 0 in S
        assert S.gaps == gaps and S.apery_set(4) == apery
        assert hash(S) == digest == hash(twin) and S == twin

    def test_window_closure(self, s469, five_gen):
        for S in (s469, five_gen):
            window = S.frobenius + 2 * S.generators[-1]
            members = elements_up_to(S, window)
            for a in members:
                for b in members:
                    if a + b <= window:
                        assert a + b in S


class TestApery:
    def test_examples(self, s357):
        assert s357.apery_set(3) == [0, 5, 7]
        assert NumericalSemigroup(2, 3).apery_set(2) == [0, 3]

    def test_size_and_residues(self, five_gen):
        for m in five_gen.generators:
            apery = five_gen.apery_set(m)
            assert len(apery) == m
            assert sorted(a % m for a in apery) == list(range(m))
            assert 0 in apery
            for a in apery:
                assert a in five_gen and (a - m) not in five_gen

    def test_hilbert_series_is_the_apery_numerator_over_one_minus_x_to_the_m(self):
        # each s in S is w + j*m for exactly one w in Ap(S, m) and j >= 0, so
        # H = A / (1 - x^m); the exponent sweep runs on (1 - x) * A / (1 - x^m)
        for S in (*enumerate_by_genus(9), NumericalSemigroup(2, 83)):
            m, bound = S.multiplicity, S.default_bound
            numerator = [0] * (bound + 1)
            for w in S.apery_set(m):
                numerator[w] = 1
            assert mul_one_minus_xk_pow(numerator, m, -1, bound) == hilbert_prefix(S, bound), S

    @pytest.mark.parametrize("m", [3.0, True, "3"])
    def test_non_int_rejected(self, s357, m):
        # 3.0 reached a shift with a bare TypeError; True passed as 1
        with pytest.raises(ValueError, match=re.escape(f"m must be an int, got {m!r}")):
            s357.apery_set(m)

    def test_non_member_raises(self, s357):
        with pytest.raises(NotAMemberError):
            s357.apery_set(4)
        with pytest.raises(NotAMemberError):
            s357.apery_set(0)


class TestPolynomial:
    def test_examples(self, s469, s357, naturals):
        assert tuple(semigroup_polynomial(s469)) == POLYNOMIAL_4_6_9
        assert tuple(semigroup_polynomial(s357)) == POLYNOMIAL_3_5_7
        assert semigroup_polynomial(naturals) == [1]

    def test_shape(self, five_gen):
        poly = semigroup_polynomial(five_gen)
        assert len(poly) == five_gen.frobenius + 2
        assert poly[0] == 1 and poly[-1] == 1
        assert sum(poly) == 1  # value at x = 1
        assert all(c in (-1, 0, 1) for c in poly)
        non_zero = [c for c in poly if c]
        assert all(a * b < 0 for a, b in zip(non_zero, non_zero[1:]))

    def test_hilbert_prefix(self, s357, naturals):
        assert hilbert_prefix(NumericalSemigroup(2, 3), 6) == [1, 0, 1, 1, 1, 1, 1]
        assert hilbert_prefix(naturals, 4) == [1] * 5
        assert hilbert_prefix(s357, 8) == [1, 0, 0, 1, 0, 1, 1, 1, 1]

    def test_hilbert_matches_polynomial(self, five_gen):
        bound = five_gen.frobenius + 10
        prefix = hilbert_prefix(five_gen, bound)
        product = mul_one_minus_xk_pow(prefix, 1, 1, bound)
        padded = semigroup_polynomial(five_gen) + [0] * (bound + 1)
        assert product == padded[: bound + 1]


def is_symmetric_by_pairing(S) -> bool:
    """Exactly one of n, F - n in S for every 0 <= n <= F: the definition."""
    return all((n in S) != (S.frobenius - n in S) for n in range(S.frobenius + 1))


class TestSymmetry:
    def test_examples(self, s469, s357):
        assert s469.is_symmetric()
        assert not s357.is_symmetric()
        assert NumericalSemigroup(2, 3).is_symmetric()

    def test_trivial_is_symmetric(self, naturals):
        # F = -1 leaves nothing to pair; the polynomial [1] is self-reciprocal
        assert naturals.is_symmetric()

    def test_pairing_matches_self_reciprocal_polynomial(self):
        # the second criterion, kept here as the oracle for is_symmetric
        verdicts = []
        for S in enumerate_by_genus(10):
            symmetric = S.is_symmetric()
            assert symmetric == is_self_reciprocal(semigroup_polynomial(S)), S
            verdicts.append(symmetric)
        # 66 symmetric ones of positive genus, OEIS A158206 at F = 1, 3, ..., 19
        # (F = 2g - 1), plus the trivial semigroup
        assert len(verdicts) == 478 and sum(verdicts) == 67

    def test_genus_criterion_matches_pairing_definition(self):
        family = list(enumerate_by_genus(10))
        for frobenius in range(1, 20):
            family += enumerate_by_frobenius(frobenius)
        symmetric = 0
        for S in family:
            assert S.is_symmetric() == is_symmetric_by_pairing(S), S
            symmetric += S.is_symmetric()
        # a symmetric semigroup of genus g has F = 2g - 1, so the walks to odd
        # F <= 19 find the 66 of positive genus above again (OEIS A158206:
        # 1, 1, 2, 3, 3, 6, 8, 7, 15, 20) and the even ones find none
        assert len(family) == 478 + sum(FROBENIUS_FAMILIES[f][0] for f in range(1, 20))
        assert symmetric == 67 + 66


class TestSerialization:
    def test_repr(self, s469):
        assert repr(s469) == "NumericalSemigroup(4, 6, 9)"

    def test_pickle_and_copy(self, s469):
        # the slots are immutable, so both go through __reduce__
        for clone in (pickle.loads(pickle.dumps(s469)), copy.copy(s469), copy.deepcopy(s469)):
            assert clone == s469
            assert clone.gaps == s469.gaps
            assert clone.window(s469.default_bound) == s469.window(s469.default_bound)
