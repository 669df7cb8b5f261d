"""Morse labelings, slab/level decomposition and the quotient graph.

A labeling assigns an integer to each vertex so that every simplex spans
at most two consecutive integers (the pairwise edge condition implies the
simplex condition).  A slab is the full subcomplex on labels {i, i+1}, a
level the full subcomplex on label i.  The quotient graph has a vertex
per slab component and an edge per level component, glued by inclusion;
the homological connected width rank of a labeled complex is the max,
over slab components C, of rank im(H1(C; F) -> H1(K; F)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, components, connected_components
from .homology import FieldSpec, H1Calculator


class NotConnected(ValueError):
    """The construction requires a connected complex."""


class InvalidLabeling(ValueError):
    """The labeling violates the one-step simplex-span constraint."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__(f"label span > 1 on simplices {sorted(violations)[:5]}"
                         + ("..." if len(violations) > 5 else ""))


@dataclass(frozen=True)
class MorseLabeling:
    """Integer label per vertex of some fixed complex."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    def __getitem__(self, v: int) -> int:
        return self.labels[v]

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def min(self) -> int:
        return min(self.labels)

    @property
    def max(self) -> int:
        return max(self.labels)

    def shifted(self, c: int) -> "MorseLabeling":
        return MorseLabeling(tuple(l + c for l in self.labels))

    def reflected(self) -> "MorseLabeling":
        return MorseLabeling(tuple(-l for l in self.labels))


def constant_labeling(K: SimplicialComplex, value: int = 0) -> MorseLabeling:
    return MorseLabeling((value,) * K.vertex_count)


def validate_labeling(K: SimplicialComplex, f: MorseLabeling) -> list:
    """All simplices whose labels span more than one step (empty = ok).

    A simplex's labels span as far as those of one of its edges, so the
    simplices are scanned only when some edge spans more than one step.
    """
    if len(f) != K.vertex_count:
        raise ValueError("labeling length does not match vertex count")
    labels = f.labels
    if all(-1 <= labels[a] - labels[b] <= 1 for a, b in K.edges):
        return []
    return sorted(s for s in K.simplices
                  if max(labels[v] for v in s) - min(labels[v] for v in s) > 1)


def _require_valid(K, f):
    bad = validate_labeling(K, f)
    if bad:
        raise InvalidLabeling(bad)


def require_connected(K: SimplicialComplex, purpose: str):
    """Raise NotConnected unless the 1-skeleton of K is connected."""
    if len(connected_components(K)) != 1:
        raise NotConnected(f"{purpose} requires a connected complex")


def slab_components(K: SimplicialComplex, labels, i: int) -> list:
    """Vertex sets of the components of slab ``i``, by smallest member.

    A slab is a full subcomplex, so its 1-skeleton is that of K restricted
    to the slab's vertices and the subcomplex itself is never built.
    """
    return components(K.adjacency,
                      [v for v, l in enumerate(labels) if l == i or l == i + 1])


@dataclass(frozen=True)
class QVertex:
    slab_index: int
    component_id: int
    members: frozenset


@dataclass(frozen=True)
class QEdge:
    level_index: int
    component_id: int
    members: frozenset
    endpoints: tuple  # indices into q_vertices: (slab i-1 side, slab i side)


@dataclass
class QuotientGraph:
    q_vertices: list
    q_edges: list

    @property
    def vertex_count(self) -> int:
        return len(self.q_vertices)

    @property
    def edge_count(self) -> int:
        return len(self.q_edges)


def quotient_graph(K: SimplicialComplex, f: MorseLabeling) -> QuotientGraph:
    """Slab components as vertices, level components as edges.

    Slabs run over all nonempty indices i in [min f - 1, max f]; the
    boundary slabs duplicate the extreme levels and are always leaves.
    The graph may have parallel edges.
    """
    _require_valid(K, f)
    require_connected(K, "quotient graph")
    lo, hi = f.min, f.max
    q_vertices = []
    theta_vertex = {}  # (slab index, K-vertex) -> index into q_vertices
    for i in range(lo - 1, hi + 1):
        for cid, comp in enumerate(slab_components(K, f.labels, i)):
            idx = len(q_vertices)
            q_vertices.append(QVertex(i, cid, comp))
            for v in comp:
                theta_vertex[(i, v)] = idx
    q_edges = []
    for i in range(lo, hi + 1):
        members = [v for v, l in enumerate(f.labels) if l == i]
        for cid, comp in enumerate(components(K.adjacency, members)):
            rep = min(comp)
            left = theta_vertex[(i - 1, rep)]
            right = theta_vertex[(i, rep)]
            q_edges.append(QEdge(i, cid, comp, (left, right)))
    return QuotientGraph(q_vertices, q_edges)


def qf_betti1(Q: QuotientGraph) -> int:
    """#edges - #vertices + #components of the (multi)graph."""
    adj = [[] for _ in range(Q.vertex_count)]
    for e in Q.q_edges:
        a, b = e.endpoints
        adj[a].append(b)
        adj[b].append(a)
    n_comps = len(components(adj, range(Q.vertex_count)))
    return Q.edge_count - Q.vertex_count + n_comps


def slab_profile(calc: H1Calculator, labels) -> tuple:
    """(max rank, #components attaining max, sum of ranks) over interior
    slabs.  Boundary slabs repeat the extreme levels and cannot exceed the
    adjacent interior slab by image-rank monotonicity, so they are skipped
    except in the constant case."""
    lo, hi = min(labels), max(labels)
    slab_range = range(lo, hi) if hi > lo else (lo,)
    best = 0
    count = 0
    total = 0
    for i in slab_range:
        for comp in slab_components(calc.K, labels, i):
            r = calc.image_rank_of_vertices(comp)
            total += r
            if r > best:
                best, count = r, 1
            elif r == best:
                count += 1
    return best, count, total


@dataclass(frozen=True)
class SlabRank:
    slab_index: int
    component_id: int
    size: int
    rank: int


@dataclass
class WidthReport:
    """Per-slab image ranks and the quotient-graph classification.

    ``max_rank`` is the homological connected width rank of the labeled
    complex over ``field``; it lower-bounds the group-theoretic quantity
    defined through pi_1 and equals it whenever pi_1 is abelian and the
    field matches the torsion.
    """

    per_slab: list
    max_rank: int
    qf_vertex_count: int
    qf_edge_count: int
    qf_betti1: int
    qf_class: str
    field: FieldSpec

    def to_json(self) -> dict:
        return {
            "field": self.field.label,
            "max_rank": self.max_rank,
            "qf": {
                "vertices": self.qf_vertex_count,
                "edges": self.qf_edge_count,
                "betti1": self.qf_betti1,
                "class": self.qf_class,
            },
            "slabs": [
                {"i": s.slab_index, "component": s.component_id,
                 "size": s.size, "rank": s.rank}
                for s in self.per_slab
            ],
        }


def _qf_class(b1: int) -> str:
    if b1 == 0:
        return "tree"
    if b1 == 1:
        return "circle"
    return "other"


def hcwr_value(K: SimplicialComplex, f: MorseLabeling,
               F: FieldSpec, calc: Optional[H1Calculator] = None) -> WidthReport:
    """Evaluate the homological connected width rank of (K, f) over F."""
    Q = quotient_graph(K, f)  # also validates f and connectivity
    if calc is None:
        calc = H1Calculator(K, F)
    per_slab = []
    max_rank = 0
    for qv in Q.q_vertices:
        r = calc.image_rank_of_vertices(qv.members)
        per_slab.append(SlabRank(qv.slab_index, qv.component_id,
                                 len(qv.members), r))
        max_rank = max(max_rank, r)
    b1 = qf_betti1(Q)
    return WidthReport(per_slab=per_slab, max_rank=max_rank,
                       qf_vertex_count=Q.vertex_count,
                       qf_edge_count=Q.edge_count,
                       qf_betti1=b1, qf_class=_qf_class(b1), field=F)
