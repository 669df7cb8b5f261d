"""Finite simplicial complexes with dense integer vertex ids.

A complex stores *every* face explicitly as a sorted vertex tuple, so face
closure, dedup and induced subcomplexes are set operations.  Complexes are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence, Union


class DegenerateSimplex(ValueError):
    """A simplex listed the same vertex twice."""


class VertexOutOfRange(ValueError):
    """A vertex id falls outside 0..vertex_count-1."""


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite, face-closed simplicial complex.

    Vertices are the integers ``0..vertex_count-1``; simplices are strictly
    increasing tuples of vertex ids.  Every vertex is present as a
    0-simplex and every face of every simplex is stored.
    """

    vertex_count: int
    simplices: frozenset

    @property
    def dim(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def simplices_of_dim(self, d: int) -> list:
        return sorted(s for s in self.simplices if len(s) == d + 1)

    @cached_property
    def edges(self) -> tuple:
        return tuple(self.simplices_of_dim(1))

    @cached_property
    def triangles(self) -> tuple:
        return tuple(self.simplices_of_dim(2))

    @cached_property
    def adjacency(self) -> tuple:
        """Neighbor sets of the 1-skeleton, indexed by vertex id."""
        adj = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self.simplices


@dataclass(frozen=True)
class Subcomplex:
    """The full (induced) subcomplex of ``parent`` on ``vertex_set``.

    Simplices are kept in parent coordinates; ``vertex_injection`` maps
    local ids ``0..m-1`` to parent ids in increasing order.
    """

    parent: SimplicialComplex
    vertex_set: frozenset
    simplices: frozenset

    @cached_property
    def vertex_injection(self) -> tuple:
        return tuple(sorted(self.vertex_set))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_set)

    @cached_property
    def edges(self) -> tuple:
        return tuple(sorted(s for s in self.simplices if len(s) == 2))


def build_complex(maximal_simplices: Iterable[Sequence[int]],
                  vertex_count: int) -> SimplicialComplex:
    """Face closure of the given simplices; isolated vertices are kept.

    Raises DegenerateSimplex on repeated vertices within a tuple and
    VertexOutOfRange on ids outside ``0..vertex_count-1``.
    """
    simps = set()
    for raw in maximal_simplices:
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise DegenerateSimplex(f"repeated vertex in simplex {tuple(raw)}")
        if t and (t[0] < 0 or t[-1] >= vertex_count):
            raise VertexOutOfRange(
                f"simplex {tuple(raw)} has a vertex outside 0..{vertex_count - 1}")
        for r in range(1, len(t) + 1):
            simps.update(combinations(t, r))
    for v in range(vertex_count):
        simps.add((v,))
    return SimplicialComplex(vertex_count, frozenset(simps))


def maximal_simplices(K: SimplicialComplex) -> list:
    """Simplices that are not a proper face of any other simplex."""
    nonmax = set()
    for s in K.simplices:
        for r in range(1, len(s)):
            nonmax.update(combinations(s, r))
    return sorted(s for s in K.simplices if s not in nonmax)


def induced_subcomplex(K: SimplicialComplex, S: Iterable[int]) -> Subcomplex:
    """Full subcomplex on the vertex set ``S`` (empty ``S`` is allowed)."""
    vs = frozenset(S)
    for v in vs:
        if not (0 <= v < K.vertex_count):
            raise VertexOutOfRange(f"vertex {v} outside 0..{K.vertex_count - 1}")
    simps = frozenset(s for s in K.simplices if all(v in vs for v in s))
    return Subcomplex(K, vs, simps)


def components(adjacency, vertices) -> list:
    """Components of the graph ``adjacency`` induced on ``vertices``.

    ``adjacency[v]`` lists the neighbours of ``v``; neighbours outside
    ``vertices`` are ignored.  Returns vertex frozensets in order of their
    first vertex in ``vertices``.
    """
    unseen = set(vertices)
    comps = []
    for root in vertices:
        if root not in unseen:
            continue
        unseen.remove(root)
        comp = [root]
        stack = [root]
        while stack:
            for w in adjacency[stack.pop()]:
                if w in unseen:
                    unseen.remove(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def connected_components(X: Union[SimplicialComplex, Subcomplex]) -> list:
    """Vertex sets of the 1-skeleton components, sorted by smallest member."""
    if not isinstance(X, Subcomplex):
        return components(X.adjacency, range(X.vertex_count))
    adj = {v: [] for v in X.vertex_set}
    for a, b in X.edges:
        adj[a].append(b)
        adj[b].append(a)
    return components(adj, sorted(X.vertex_set))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of simplex counts by dimension."""
    return sum((-1) ** (len(s) - 1) for s in K.simplices)
