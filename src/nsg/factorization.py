"""Factorizations over the minimal generators and the structures built on them.

A factorization of s is an exponent vector over the ascending minimal
generators summing to s. The graph on the factorizations of s joining vectors
with a common support generator splits into R-classes; s is a *Betti element*
when there are at least two classes.

Betti search bound: every s > frobenius + 2*max(A) has a connected graph.
Indeed, take factorizations x using generator n_i and y using n_j; then
s - n_i - n_j > frobenius lies in S, and any factorization z of it gives
z + e_i + e_j, which shares n_i with x and n_j with y. The bound is also
re-checked empirically by the test suite on a window above it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAMemberError, NotIsolatedBettiError
from .semigroup import NumericalSemigroup

Vector = tuple[int, ...]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


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


def denumerant(S: NumericalSemigroup, s: int) -> int:
    """Number of factorizations of s; 1 for s = 0, 0 off the semigroup."""
    if s < 0:
        return 0
    return denumerant_series(S, s)[s]


@dataclass(frozen=True)
class FactorizationGraph:
    """The factorizations of one element with their R-class partition.

    ``r_classes`` holds sorted vertex indices; classes are ordered by their
    smallest index, i.e. by lexicographically largest member.
    """

    element: int
    vertices: tuple[Vector, ...]
    r_classes: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.r_classes)

    def isolated(self) -> list[Vector]:
        return [self.vertices[cls[0]] for cls in self.r_classes if len(cls) == 1]

    def to_dot(self) -> str:
        lines = [f'graph factorizations_{self.element} {{']
        names = {i: '"' + ",".join(map(str, v)) + '"' for i, v in enumerate(self.vertices)}
        for i in range(len(self.vertices)):
            lines.append(f"  {names[i]};")
        for i in range(len(self.vertices)):
            for j in range(i + 1, len(self.vertices)):
                if _shares_support(self.vertices[i], self.vertices[j]):
                    lines.append(f"  {names[i]} -- {names[j]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _shares_support(x: Vector, y: Vector) -> bool:
    return any(a and b for a, b in zip(x, y))


def factorization_graph(S: NumericalSemigroup, s: int) -> FactorizationGraph:
    """R-class partition via union-find keyed on generator supports.

    All vertices using a given generator are unioned against the first one
    seen, which is linear in the total support size.
    """
    if s not in S:
        raise NotAMemberError(f"{s} is not in the semigroup")
    vertices = tuple(factorizations(S, s))
    uf = _UnionFind(len(vertices))
    first_with_generator: dict[int, int] = {}
    for index, vector in enumerate(vertices):
        for position, exponent in enumerate(vector):
            if exponent:
                anchor = first_with_generator.setdefault(position, index)
                if anchor != index:
                    uf.union(anchor, index)
    classes: dict[int, list[int]] = {}
    for index in range(len(vertices)):
        classes.setdefault(uf.find(index), []).append(index)
    ordered = tuple(tuple(members) for _, members in sorted(classes.items()))
    return FactorizationGraph(s, vertices, ordered)


@dataclass(frozen=True)
class BettiData:
    """Per-Betti-element record: R-class count and isolated factorization count."""

    nc: int
    isolated_count: int


def betti_search_bound(S: NumericalSemigroup) -> int:
    return S.frobenius + 2 * S.max_generator


def betti_elements(S: NumericalSemigroup) -> dict[int, BettiData]:
    """All Betti elements with their class structure, keyed ascending.

    Scans members with at least two factorizations up to the search bound;
    candidates start at twice the multiplicity since every factorization of a
    non-generator splits into at least two parts.
    """
    catalog: dict[int, BettiData] = {}
    bound = betti_search_bound(S)
    counts = denumerant_series(S, bound)
    for s in range(2 * S.multiplicity, bound + 1):
        if counts[s] < 2:
            continue
        graph = factorization_graph(S, s)
        if graph.n_classes >= 2:
            catalog[s] = BettiData(
                nc=graph.n_classes,
                isolated_count=sum(1 for cls in graph.r_classes if len(cls) == 1),
            )
    return catalog


def presentation_size(S: NumericalSemigroup) -> int:
    """Cardinality of any minimal presentation, ``sum_b (nc(b) - 1)`` over Betti elements."""
    return sum(data.nc - 1 for data in betti_elements(S).values())


def isolated_factorizations(S: NumericalSemigroup, s: int) -> list[Vector]:
    """Factorizations of s forming singleton R-classes."""
    return factorization_graph(S, s).isolated()


@dataclass(frozen=True)
class MinimalPresentation:
    """Chained pairs of factorizations, grouped by Betti element."""

    by_element: dict[int, tuple[tuple[Vector, Vector], ...]]

    @property
    def pairs(self) -> list[tuple[Vector, Vector]]:
        return [pair for chains in self.by_element.values() for pair in chains]

    def __len__(self) -> int:
        return sum(len(chains) for chains in self.by_element.values())


def minimal_presentation(S: NumericalSemigroup) -> MinimalPresentation:
    """One minimal presentation, deterministic across platforms.

    Per Betti element the lexicographically largest factorization of each
    R-class is chosen and the representatives are chained in order. Any other
    choice would also be minimal; this one is fixed for test stability.
    """
    by_element = {}
    for b, data in betti_elements(S).items():
        graph = factorization_graph(S, b)
        representatives = [graph.vertices[cls[0]] for cls in graph.r_classes]
        by_element[b] = tuple(
            (representatives[i], representatives[i + 1])
            for i in range(len(representatives) - 1)
        )
    return MinimalPresentation(by_element)


def restricted_factorizations(
    S: NumericalSemigroup, s: int, restriction: "set[int] | list[int] | tuple[int, ...]"
) -> list[Vector]:
    """Factorizations of s splitting as w + x_1 + ... + x_l.

    Here w is the unique factorization of its value and each x_i is an
    isolated factorization of an element of ``restriction``. Every element
    of the restriction set must be a Betti element with at least one isolated
    factorization. With an empty restriction the result is all of Z(s) when s
    factors uniquely, else empty.
    """
    if s not in S:
        raise NotAMemberError(f"{s} is not in the semigroup")
    pool: list[Vector] = []
    for b in sorted(set(restriction)):
        if b not in S:
            raise NotIsolatedBettiError(f"{b} is not in the semigroup")
        graph = factorization_graph(S, b)
        isolated = graph.isolated()
        if graph.n_classes < 2 or not isolated:
            raise NotIsolatedBettiError(
                f"{b} is not a Betti element with an isolated factorization"
            )
        pool.extend(isolated)

    gens = S.generators
    counts = denumerant_series(S, s)
    memo: dict[Vector, bool] = {}

    def decomposes(z: Vector) -> bool:
        cached = memo.get(z)
        if cached is not None:
            return cached
        value = sum(e * g for e, g in zip(z, gens))
        if counts[value] == 1:
            memo[z] = True
            return True
        result = any(
            all(a >= b for a, b in zip(z, x)) and decomposes(tuple(a - b for a, b in zip(z, x)))
            for x in pool
        )
        memo[z] = result
        return result

    return [z for z in factorizations(S, s) if decomposes(z)]
