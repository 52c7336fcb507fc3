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
One graph search over bitmasks (:func:`_components`) finds the components
in S's window at s (:meth:`~nsg.semigroup.NumericalSemigroup.window`), and
both :func:`betti_elements` and :func:`factorization_graph` read their
classes from it; the tests hold it to the definition above. The catalog
searches only the elements w + n_i, w in the Apéry set of the multiplicity,
which hold every Betti element, in ascending order. It counts isolated
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


def _components(window: int, generators: int) -> list[int]:
    """The connected components of ∇_s as masks, bit n_i set for each vertex n_i.

    In S's window at s (bit k iff s - k in S), the vertices are the bits of
    ``generators`` (each n_i) that are set, and n_i's neighbours h the set
    bits of ``window >> n_i``. Components come ordered by their smallest
    generator; s not in S (and s = 0) gives none.
    """
    unseen, components = window & generators, []
    while unseen:
        component = todo = unseen & -unseen
        while todo:  # drop g, add the vertices it reaches outside the component
            g = todo.bit_length() - 1
            todo ^= 1 << g | (window >> g & unseen & ~component)
            component |= todo
        unseen ^= component
        components.append(component)
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
    gens = S.generators
    components = _components(S.window(s), sum(1 << g for g in gens))
    component_of = {g: c for c, part in enumerate(components) for g in gens if part >> g & 1}
    classes: dict[int, list[int]] = {}
    for index, vector in enumerate(vertices):
        support = next((g for g, e in zip(gens, vector) if e), None)
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
    Either way s - n_j lies in Ap(S, m). In S's window over 0..bound, Ap(S, m)
    is the members whose bit m higher is clear, and :func:`_components` reads
    ∇_s off the window shifted down to s, so no factorization is listed. The
    class R_C of a component C is a singleton exactly when no vertex c of C
    leaves s - c above a Betti element of the catalog so far:

    - |R_C| = 1 iff each s - c, c in C, has one factorization: two of s - c,
      plus e_c, are two in R_C; R_C is connected by shared support, so two
      of its members share some c and give two of s - c.
    - x has one factorization iff x - b is not in S for every Betti b: two
      of b plus one of x - b are two of x; a y with two factorizations and
      x - y in S, minimal in the order, has no two sharing a generator c
      (y - c would have two), so it is a Betti element.

    Each such b <= s - c < s is a candidate, so it is scanned before s, and
    the mask ``two`` of the x above a catalogued b marks every such s - c.
    """
    catalog: dict[int, BettiData] = {}
    bound, gens = S.default_bound - 1, S.generators
    window, vertices, two, candidates = S.window(bound), sum(1 << g for g in gens), 0, 0
    apery = (window & ~(window >> gens[0])) ^ 1 << bound  # w = 0 gives the generators
    for g in gens[1:]:
        candidates |= apery >> g
    while candidates:  # s = bound - j ascending
        j = candidates.bit_length() - 1
        candidates ^= 1 << j
        components = _components(window >> j, vertices)
        if len(components) >= 2:
            isolated = sum(not two >> j & part for part in components)
            catalog[bound - j] = BettiData(len(components), isolated)
            two |= window >> (bound - j)
    return catalog


def presentation_size(S: NumericalSemigroup) -> int:
    """Cardinality of any minimal presentation, ``sum_b (nc(b) - 1)`` over Betti elements."""
    return sum(data.nc - 1 for data in betti_elements(S).values())
