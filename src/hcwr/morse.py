"""Morse labelings, slab/level decomposition and the quotient graph.

A labeling assigns an integer to each vertex so that every simplex spans
at most two consecutive integers (the pairwise edge condition implies the
simplex condition).  A slab is the full subcomplex on labels {i, i+1}, a
level the full subcomplex on label i.  The quotient graph has a vertex
per slab component and an edge per level component, glued by inclusion;
the homological connected width rank of a labeled complex is the max,
over slab components C, of rank im(H1(C; F) -> H1(K; F)).  Slabs, levels
and their components are vertex bitmasks built from ``level_masks``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, components
from .homology import FieldSpec, H1Calculator


class InvalidLabeling(ValueError):
    """The labeling violates the one-step simplex-span constraint;
    ``violations`` lists the edges that span more than one step."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__(f"label span > 1 on edges {violations[:5]}"
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


def constant_labeling(K: SimplicialComplex) -> MorseLabeling:
    return MorseLabeling((0,) * K.vertex_count)


def validate_labeling(K: SimplicialComplex, f: MorseLabeling) -> list:
    """The edges, in sorted order, whose labels differ by more than one
    step (empty = ok).  A simplex spans more than one step exactly when
    one of its edges does."""
    if len(f) != K.vertex_count:
        raise ValueError("labeling length does not match vertex count")
    labels = f.labels
    return [(a, b) for a, b in K.edges if not -1 <= labels[a] - labels[b] <= 1]


def require_valid(K: SimplicialComplex, f: MorseLabeling):
    """Raise InvalidLabeling unless every simplex of K spans at most one
    step of f."""
    bad = validate_labeling(K, f)
    if bad:
        raise InvalidLabeling(bad)


def require_connected(K: SimplicialComplex, purpose: str):
    """Raise ValueError unless the 1-skeleton of K is connected: its
    breadth-first spanning forest ``K.forest`` has one root.  Too few
    edges are refused first, without a walk."""
    if len(K.edges) < K.vertex_count - 1 or sum(
            v == p for v, p in K.forest.items()) != 1:
        raise ValueError(f"{purpose} requires a connected complex")


@dataclass
class QuotientGraph:
    """Component masks by smallest vertex: ``slabs[i]``, i in [min f - 1,
    max f], are the vertices, ``levels[i]``, i in [min f, max f], the
    edges; a level-i component lies in exactly one component of slab
    i - 1 and one of slab i, the ends of its edge."""

    slabs: dict
    levels: dict


def quotient_graph(K: SimplicialComplex, f: MorseLabeling) -> QuotientGraph:
    """Slab components as vertices, level components as edges.

    Slabs run over all nonempty indices i in [min f - 1, max f]; the
    boundary slabs duplicate the extreme levels and are always leaves.
    The graph may have parallel edges.
    """
    require_valid(K, f)
    require_connected(K, "quotient graph")
    level = level_masks(f.labels)
    lo, hi = min(level), max(level)
    return QuotientGraph(
        {i: components(K.neighbours, level.get(i, 0) | level.get(i + 1, 0))
         for i in range(lo - 1, hi + 1)},
        {i: components(K.neighbours, level[i]) for i in range(lo, hi + 1)})


def level_masks(labels) -> dict:
    """label -> bitmask of the vertices carrying it (bit v is vertex v)."""
    level = {}
    for v, l in enumerate(labels):
        level[l] = level.get(l, 0) | 1 << v
    return level


def slab_masks(level: dict) -> list:
    """Vertex masks of the interior slabs ``range(lo, hi)`` of a labeling
    given by its ``level_masks``; the one level of a constant labeling.

    The labeling must be of a connected complex, so that every label
    between lo and hi occurs.  Boundary slabs repeat the extreme levels
    and cannot exceed the adjacent interior slab by image-rank
    monotonicity, so they are skipped.
    """
    lo, hi = min(level), max(level)
    if hi == lo:
        return [level[lo]]
    return [level[i] | level[i + 1] for i in range(lo, hi)]


def slab_state(calc: H1Calculator, mask: int) -> tuple:
    """(max rank, #components attaining max, sum of ranks) over the
    components of the full subcomplex on the vertices of ``mask``, all
    ranked in one pass (``H1Calculator.component_ranks``)."""
    return _state(calc.component_ranks(mask))


def slab_profile(calc: H1Calculator, labels) -> tuple:
    """(max rank, #components attaining max, sum of ranks) over the
    components of the interior slabs of a labeling of a connected complex
    (``slab_masks``); the max is the labeling's width value."""
    return _state([r for mask in slab_masks(level_masks(labels))
                   for r in calc.component_ranks(mask)])


def _state(ranks: list) -> tuple:
    """(max, #entries equal to the max, sum) of a list of ranks."""
    top = max(ranks, default=0)
    return top, ranks.count(top), sum(ranks)


@dataclass
class WidthReport:
    """Per-slab image ranks, one ``{"i", "component", "size", "rank"}``
    entry per slab component, and the quotient graph's ``qf``: its
    ``vertices``, ``edges``, ``betti1`` = edges - vertices + 1 and
    ``class`` (tree, circle or other), as the JSON emits them.

    ``max_rank`` is the homological connected width rank of the labeled
    complex over ``field``; it lower-bounds the group-theoretic quantity
    defined through pi_1 and equals it whenever pi_1 is abelian and the
    field matches the torsion.
    """

    per_slab: list
    max_rank: int
    qf: dict
    field: FieldSpec

    def to_json(self) -> dict:
        return {"field": self.field.label, "max_rank": self.max_rank,
                "qf": self.qf, "slabs": self.per_slab}


def hcwr_value(K: SimplicialComplex, f: MorseLabeling,
               F: FieldSpec, calc: Optional[H1Calculator] = None) -> WidthReport:
    """Evaluate the homological connected width rank of (K, f) over F.

    ``calc``, when given, must be an ``H1Calculator`` of K (the same
    object or an equal complex) over F; ValueError otherwise.
    """
    Q = quotient_graph(K, f)  # also validates f and connectivity
    if calc is None:
        calc = H1Calculator(K, F)
    elif calc.field != F or (calc.K is not K and calc.K != K):
        raise ValueError(f"the calculator is not one of this complex over "
                         f"{F.label}")
    per_slab = [{"i": i, "component": cid, "size": comp.bit_count(),
                 "rank": calc.image_rank_of_vertices(comp)}
                for i, comps in Q.slabs.items()
                for cid, comp in enumerate(comps)]
    # the quotient of a connected complex is connected: b1 = E - V + 1
    V = sum(map(len, Q.slabs.values()))
    E = sum(map(len, Q.levels.values()))
    b1 = E - V + 1
    return WidthReport(
        per_slab=per_slab, max_rank=max(s["rank"] for s in per_slab),
        qf={"vertices": V, "edges": E, "betti1": b1,
            "class": {0: "tree", 1: "circle"}.get(b1, "other")},
        field=F)
