"""Factorizations over the minimal generators and the structures built on them.

A factorization of s is an exponent vector over the ascending minimal
generators summing to s. The graph on the factorizations of s joining vectors
with a common support generator splits into R-classes; s is a *Betti element*
when there are at least two classes.

The R-classes of s are read off the graph ∇_s on the generators: its
vertices are the n_i with s - n_i in S, and n_i, n_j are joined when
s - n_i - n_j in S. The number of R-classes nc(s) is the number of connected
components of ∇_s (Rosales & García-Sánchez, *Numerical Semigroups*,
Springer 2009, ch. 7). The support of a factorization is a clique of ∇_s, so
each R-class is the set of factorizations supported in one component.
One graph search (:func:`_components`) finds the components, reading
membership off the membership table (padded past its end when
:func:`factorization_graph` reads higher), and both
:func:`betti_elements` and :func:`factorization_graph` read their classes
from it; the tests hold it to the definition above. The catalog searches
only the elements w + n_i, w in the Apéry set of the multiplicity, which
hold every Betti element, in ascending order. It counts isolated
factorizations without listing any, by two facts (the proofs are in
:func:`betti_elements`): the class of a component C of ∇_s is a singleton
iff s - c has one factorization for every c in C, and x has one
factorization iff x - b is not in S for every Betti element b.

Betti search bound: every s > frobenius + 2*max(A) has a connected graph.
This is the same fact: for any two vertices n_i, n_j of ∇_s,
s - n_i - n_j > frobenius lies in S, so ∇_s is complete. The bound is also
re-checked empirically by the test suite on a window above it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotAMemberError
from .semigroup import NumericalSemigroup

Vector = tuple[int, ...]


def factorizations(S: NumericalSemigroup, s: int) -> list[Vector]:
    """All exponent vectors over the minimal generators summing to s.

    Ordered lexicographically descending; empty iff s is not a member.
    """
    if s < 0:
        return []
    gens = S.generators
    last = len(gens) - 1
    out: list[Vector] = []

    def descend(pos: int, remaining: int, prefix: Vector) -> None:
        if pos == last:
            quotient, rest = divmod(remaining, gens[pos])
            if rest == 0:
                out.append(prefix + (quotient,))
            return
        g = gens[pos]
        for q in range(remaining // g, -1, -1):
            descend(pos + 1, remaining - q * g, prefix + (q,))

    descend(0, s, ())
    return out


def denumerant_series(S: NumericalSemigroup, bound: int) -> list[int]:
    """Counts of factorizations for every 0 <= s <= bound (a knapsack DP).

    Matches the coefficients of ``prod_{n in A} 1/(1 - x^n)``.
    """
    ways = [0] * (bound + 1)
    ways[0] = 1
    for g in S.generators:
        for k in range(g, bound + 1):
            ways[k] += ways[k - g]
    return ways


class FactorizationGraph(NamedTuple):
    """The factorizations of one element with their R-class partition.

    ``r_classes`` holds sorted vertex indices; classes are ordered by their
    smallest index, i.e. by lexicographically largest member.
    """

    vertices: tuple[Vector, ...]
    r_classes: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.r_classes)

    def isolated(self) -> list[Vector]:
        return [self.vertices[cls[0]] for cls in self.r_classes if len(cls) == 1]


def _padded_table(S: NumericalSemigroup, bound: int) -> list[bool]:
    """Membership of 0..bound, one list lookup each, for any bound."""
    table = S.membership_table
    return table[: bound + 1] + [True] * (bound + 1 - len(table))


def _components(generators, member: list[bool], s: int) -> list[list[int]]:
    """The connected components of ∇_s as ascending lists of generators.

    A breadth-first search over the vertices n_i with s - n_i in S, joining
    n_i and n_j when s - n_i - n_j in S, read off ``member`` (membership of
    0..s). Components come ordered by their smallest generator; s not in S
    (and s = 0) gives none.
    """
    unseen = [g for g in generators if g <= s and member[s - g]]
    components = []
    while unseen:
        component = [unseen.pop(0)]
        for g in component:  # the list grows while it is read
            rest, left = s - g, []
            for h in unseen:
                (component if h <= rest and member[rest - h] else left).append(h)
            unseen = left
        components.append(sorted(component))
    return components


def factorization_graph(S: NumericalSemigroup, s: int) -> FactorizationGraph:
    """The factorizations of s with their R-classes, read from ∇_s.

    The support of a factorization is a clique of ∇_s, so each vector goes
    into the class of the component holding its support; the zero vector of
    s = 0 has empty support and forms a class of its own. It lists every
    factorization of s, so no verdict reads it: the verdicts read
    :func:`betti_elements`. The tests hold its classes to the definition
    (vectors joined when their supports meet) and build the factorization
    listings of the paper's lemmas (isolated factorizations, minimal
    presentations, restricted factorizations) on it.
    """
    if s not in S:
        raise NotAMemberError(f"{s} is not in the semigroup")
    vertices = tuple(factorizations(S, s))
    components = _components(S.generators, _padded_table(S, s), s)
    component_of = {g: c for c, part in enumerate(components) for g in part}
    classes: dict[int, list[int]] = {}
    for index, vector in enumerate(vertices):
        support = next((g for g, e in zip(S.generators, vector) if e), None)
        classes.setdefault(component_of.get(support), []).append(index)
    # indices ascend, so the classes appear ordered by their smallest index
    return FactorizationGraph(vertices, tuple(map(tuple, classes.values())))


class BettiData(NamedTuple):
    """Per-Betti-element record: R-class count and isolated factorization count.

    ``nc`` is the number of connected components of ∇_s. ``isolated_count``
    is the number of components C whose restricted denumerant is 1, that is,
    exactly one factorization of s uses only generators in C: that
    factorization is then a singleton R-class.
    """

    nc: int
    isolated_count: int


def betti_elements(S: NumericalSemigroup) -> dict[int, BettiData]:
    """All Betti elements with their class structure, keyed ascending.

    The candidates are w + n_i for w in Ap(S, m), m = n_1 the multiplicity,
    and i >= 2, up to the search bound; every Betti element s is one. If m
    is not a vertex of ∇_s, then s - m is not in S, so neither is
    s - n_j - m for any vertex n_j. Otherwise ∇_s has a second component,
    and its vertices n_j are not adjacent to m: s - n_j - m is not in S.
    Either way s - n_j lies in Ap(S, m). Each candidate's classes are the
    components of ∇_s found by :func:`_components`, so no factorization is
    listed. The class R_C of a component C is a singleton exactly when no
    vertex c of C leaves s - c above a Betti element of the catalog so far:

    - |R_C| = 1 iff each s - c, c in C, has one factorization: two of s - c,
      plus e_c, are two in R_C; R_C is connected by shared support, so two
      of its members share some c and give two of s - c.
    - x has one factorization iff x - b is not in S for every Betti b: two
      of b plus one of x - b are two of x; a y with two factorizations and
      x - y in S, minimal in the order, has no two sharing a generator c
      (y - c would have two), so it is a Betti element.

    Each such b <= s - c < s is a candidate, so it is scanned before s.
    """
    catalog: dict[int, BettiData] = {}
    bound, gens = S.default_bound - 1, S.generators
    member = S.membership_table  # covers 0..default_bound, past the search bound
    apery = S.apery_set(S.multiplicity)[1:]  # w = 0 gives the generators
    for s in sorted({w + g for w in apery for g in gens[1:] if w + g <= bound}):
        components = _components(gens, member, s)
        if len(components) >= 2:
            isolated = sum(
                not any(b <= s - c and member[s - c - b] for c in part for b in catalog)
                for part in components
            )
            catalog[s] = BettiData(nc=len(components), isolated_count=isolated)
    return catalog


def presentation_size(S: NumericalSemigroup) -> int:
    """Cardinality of any minimal presentation, ``sum_b (nc(b) - 1)`` over Betti elements."""
    return sum(data.nc - 1 for data in betti_elements(S).values())
