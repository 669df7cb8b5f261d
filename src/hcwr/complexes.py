"""Finite simplicial complexes with dense integer vertex ids.

A complex stores only its maximal simplices as sorted vertex tuples.  The
tables the analysis reads are derived from them once each and cached: the
sorted ``edges``, the cone triangles (v0, a, b) of each maximal simplex
with smallest vertex v0 as the indices of their three edges
(``cone_triangles``, what the H1 peel reads), each vertex's neighbour
mask (``neighbours``) and the breadth-first spanning forest of the
1-skeleton (``forest``).  The neighbour sets ``adjacency`` are built only
for the exhaustive search, and the full face closure only when something
reads ``simplices``.  Complexes are immutable after construction and safe
to share across threads.  ``root_orbit`` gives the orbit of vertex 0 under
the automorphisms of a complex that it verifies, which the exhaustive
search uses to skip symmetric labelings.

A vertex set is an ``int`` bitmask, bit v standing for vertex v.  Two
places walk the bits of a mask: this module's ``components``,
``forest`` and ``root_orbit``, which grow a component or a search from
the ``neighbours`` masks of a complex, and the image-rank query of
``homology``, which walks its own breadth-first forest of a vertex set
so as to close each cycle when it discovers a vertex.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

# Largest face count accepted: a simplex on m vertices has 2^m - 1 faces,
# all of which the closure ``SimplicialComplex.simplices`` holds.
MAX_FACES = 1 << 22
# Work ``root_orbit`` does before it stops with the orbit found so far:
# a vertex per colour refinement round and a tried image per step.
ORBIT_NODE_LIMIT = 1 << 15


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex given by its maximal simplices.

    Vertices are the integers ``0..vertex_count-1``; simplices are strictly
    increasing tuples of vertex ids.  ``maximal`` lists, in sorted order,
    the simplices that are not a proper face of another one; a vertex in
    no other simplex appears as ``(v,)``.
    """

    vertex_count: int
    maximal: tuple

    @property
    def dim(self) -> int:
        return max(map(len, self.maximal), default=0) - 1

    @cached_property
    def edges(self) -> tuple:
        return tuple(sorted({e for s in self.maximal
                             for e in combinations(s, 2)}))

    @cached_property
    def simplices(self) -> frozenset:
        """Every face of every maximal simplex (the face closure)."""
        return frozenset(f for s in self.maximal for r in range(1, len(s) + 1)
                         for f in combinations(s, r))

    @cached_property
    def cone_triangles(self) -> tuple:
        """The triangles (v0, a, b), a < b, of each maximal simplex with
        smallest vertex v0, each as the indices in ``edges`` of its faces
        (a, b), (v0, b), (v0, a), the order of ``homology.boundary``; a
        triangle in several maximal simplices is listed once, where it
        first occurs.  Their boundaries span those of all triangles over
        Z (the cone lemma of ``homology.H1Calculator``), and every edge
        of a simplex on 3 or more vertices is a face of one of them."""
        index = [{} for _ in range(self.vertex_count)]  # a -> {b: i}
        for i, (a, b) in enumerate(self.edges):
            index[a][b] = i
        return tuple(dict.fromkeys(
            (index[a][b], cone[b], cone[a])
            for s in self.maximal for cone in (index[s[0]],)
            for a, b in combinations(s[1:], 2)))

    @cached_property
    def adjacency(self) -> tuple:
        """Neighbor sets of the 1-skeleton, indexed by vertex id; only the
        exhaustive search reads them."""
        adj = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def neighbours(self) -> tuple:
        """Neighbour masks of the 1-skeleton, indexed by vertex id."""
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def forest(self) -> MappingProxyType:
        """Parents in the breadth-first spanning forest of the 1-skeleton,
        read-only, in visiting order: roots and each vertex's neighbours
        are taken in ascending order, and each root is its own parent."""
        neighbours = self.neighbours
        parent = {}
        unseen = (1 << self.vertex_count) - 1
        while unseen:
            root = (unseen & -unseen).bit_length() - 1
            unseen ^= 1 << root
            parent[root] = root
            queue = [root]
            for v in queue:
                new = neighbours[v] & unseen
                unseen ^= new
                while new:
                    low = new & -new
                    new ^= low
                    w = low.bit_length() - 1
                    parent[w] = v
                    queue.append(w)
        return MappingProxyType(parent)


@dataclass(frozen=True)
class Subcomplex:
    """The full (induced) subcomplex of ``parent`` on ``vertex_set``,
    its simplices in parent coordinates."""

    parent: SimplicialComplex
    vertex_set: frozenset
    simplices: frozenset

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_set)


def require_under_cap(vertex_count: int, faces: int = 0) -> None:
    """Raise the ValueError of ``build_complex`` when ``vertex_count`` or
    ``faces``, the face count it would reach, is over ``MAX_FACES``; a
    generator that knows both calls it before it lists a simplex."""
    if vertex_count > MAX_FACES:
        raise ValueError(f"{vertex_count} vertices are more than {MAX_FACES} "
                         f"faces")
    if faces > MAX_FACES:
        raise ValueError(f"maximal_simplices have more than {MAX_FACES} "
                         f"faces")


def build_complex(maximal_simplices: Iterable[Sequence[int]],
                  vertex_count: int) -> SimplicialComplex:
    """Complex of the given simplices; isolated vertices are kept.

    A given simplex that is a proper face of another one is dropped.
    Raises ValueError on repeated vertices within a tuple, on ids
    outside ``0..vertex_count-1`` and as soon as the simplices read so
    far have more than ``MAX_FACES`` faces, counting 2^m - 1 for each
    m-vertex simplex, or at once when ``vertex_count`` does, since every
    vertex is a face.
    """
    require_under_cap(vertex_count)
    simps = {}  # in first-seen order, so sorted input sorts in one pass
    faces = 0
    for raw in maximal_simplices:
        t = tuple(sorted(raw))
        if len(set(t)) != len(t):
            raise ValueError(f"repeated vertex in simplex {tuple(raw)}")
        if t and (t[0] < 0 or t[-1] >= vertex_count):
            raise ValueError(
                f"simplex {tuple(raw)} has a vertex outside 0..{vertex_count - 1}")
        faces += (1 << len(t)) - 1
        if faces > MAX_FACES:
            require_under_cap(vertex_count, faces)
        if len(t) > 1:
            simps[t] = None
    # only faces of a size some given simplex has can be given simplices,
    # and a vertex is maximal exactly when no larger simplex covers it
    sizes = {len(s) for s in simps}
    nonmax = {f for s in simps for r in sizes if r < len(s)
              for f in combinations(s, r) if f in simps}
    covered = set(chain.from_iterable(simps))
    maximal = [s for s in simps if s not in nonmax]
    maximal += ((v,) for v in range(vertex_count) if v not in covered)
    maximal.sort()
    return SimplicialComplex(vertex_count, tuple(maximal))


def maximal_simplices(K: SimplicialComplex) -> list:
    """Simplices that are not a proper face of any other simplex."""
    return list(K.maximal)


def induced_subcomplex(K: SimplicialComplex, S: Iterable[int]) -> Subcomplex:
    """Full subcomplex on the vertex set ``S`` (empty ``S`` is allowed)."""
    vs = frozenset(S)
    for v in vs:
        if not (0 <= v < K.vertex_count):
            raise ValueError(f"vertex {v} outside 0..{K.vertex_count - 1}")
    simps = frozenset(s for s in K.simplices if all(v in vs for v in s))
    return Subcomplex(K, vs, simps)


def components(neighbours, mask: int) -> list:
    """Vertex masks of the components of the graph induced on ``mask``,
    in order of their smallest vertex.

    ``neighbours[v]`` is the neighbour mask of ``v``; neighbours outside
    ``mask`` are ignored.
    """
    comps = []
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & mask
            mask ^= new
            comp |= new
            frontier |= new
        comps.append(comp)
    return comps


def root_orbit(K: SimplicialComplex, deadline: Optional[float] = None) -> int:
    """Mask of vertex 0 and of every vertex that a verified automorphism
    of ``K`` maps it to.

    An automorphism is a vertex permutation that maps ``K.maximal`` onto
    itself, so it keeps edges, triangles and every image rank.  The
    candidates are the vertices that share vertex 0's colour under colour
    refinement: it starts from (degree, triangles at v, counted once per
    maximal simplex that holds them), gives each vertex the pair (its
    colour, the sorted colours of its neighbours) and stops once no class
    splits, or once vertex 0's class is vertex 0 alone.  An automorphism
    0 -> u is searched by backtracking along the ``K.forest`` order from
    vertex 0 (McKay and Piperno, "Practical graph isomorphism, II").  The
    image of a vertex is a neighbour of its parent's image, has its
    colour and the same adjacency mask to the vertices mapped so far, and
    every maximal simplex that it completes maps to a maximal simplex;
    the mapping of the last vertex is then an automorphism.  The mask is
    closed under the automorphisms found, and a candidate already in it
    is not searched.

    Work past ``ORBIT_NODE_LIMIT`` nodes (each refinement round counts
    one per vertex, and each tried image one) or past the
    ``time.monotonic`` ``deadline`` stops it, and it returns the orbit
    found so far, vertex 0 alone at the latest: any subset of the orbit
    is sound for a caller that skips labelings by symmetry.
    """
    n = K.vertex_count
    if n < 2 or deadline is not None and time.monotonic() >= deadline:
        return 1
    neighbours = K.neighbours
    adjacency = K.adjacency
    triangles = [0] * n
    for s in K.maximal:
        at_v = (len(s) - 1) * (len(s) - 2) // 2  # triangles of s at a vertex
        for v in s:
            triangles[v] += at_v
    start = {}
    colour = [start.setdefault((neighbours[v].bit_count(), triangles[v]),
                               len(start))
              for v in range(n)]
    classes = len(start)
    nodes = 0
    # a single class cannot split: its vertices share their degree
    while classes > 1 and colour.count(colour[0]) > 1:
        nodes += n
        if nodes > ORBIT_NODE_LIMIT or (
                deadline is not None and time.monotonic() >= deadline):
            return 1
        ids = {}
        colour = [ids.setdefault((colour[v], *sorted(map(colour.__getitem__,
                                                         adjacency[v]))),
                                 len(ids))
                  for v in range(n)]
        if len(ids) == classes:
            break
        classes = len(ids)
    same = [0] * classes
    for v in range(n):
        same[colour[v]] |= 1 << v
    if same[colour[0]] == 1:
        return 1

    # the search runs over positions in the breadth-first order from 0
    parent = K.forest
    order = list(parent)
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    up = [position[u] if u != v else -1 for v, u in parent.items()]
    earlier = [[position[w] for w in adjacency[v] if position[w] < k]
               for k, v in enumerate(order)]
    closes = [[] for _ in range(n)]  # per position, the maximal simplices
    for s in K.maximal:               # it completes, as their other ones
        at = sorted(map(position.__getitem__, s))
        closes[at.pop()].append(at)
    bits = [1 << v for v in range(n)]
    maximal = {sum(map(bits.__getitem__, s)) for s in K.maximal}
    kind = [same[colour[v]] for v in order]
    full = (1 << n) - 1
    bit = [0] * n  # per position, the bit of its image
    near = [0] * n  # per position, the neighbour mask of its image
    target = [0] * n  # the adjacency mask an image must have there
    choices = [0] * n  # images left to try there
    check = 0  # node count of the next check of the cap and the deadline
    gens = []
    orbit = 1
    for u in range(1, n):
        if not kind[0] >> u & 1 or orbit >> u & 1:
            continue
        bit[0] = used = 1 << u
        near[0] = neighbours[u]
        k = 1
        target[1] = sum(map(bit.__getitem__, earlier[1]))
        choices[1] = (near[0] if up[1] >= 0 else full) & kind[1] & ~used
        while k:
            c = choices[k]
            if not c:
                k -= 1
                used ^= bit[k]
                continue
            low = c & -c
            choices[k] = c ^ low
            nodes += 1
            if nodes >= check:
                if nodes > ORBIT_NODE_LIMIT or (
                        deadline is not None and time.monotonic() >= deadline):
                    return orbit
                check = min(nodes + 256, ORBIT_NODE_LIMIT + 1)
            x = low.bit_length() - 1
            if neighbours[x] & used != target[k]:
                continue
            for rest in closes[k]:
                if sum(map(bit.__getitem__, rest)) | low not in maximal:
                    break
            else:
                bit[k] = low
                near[k] = neighbours[x]
                used |= low
                k += 1
                if k == n:
                    break
                target[k] = sum(map(bit.__getitem__, earlier[k]))
                choices[k] = ((near[up[k]] if up[k] >= 0 else full)
                              & kind[k] & ~used)
        if k == n:  # an automorphism with 0 -> u
            image = [0] * n
            for v, b in zip(order, bit):
                image[v] = b.bit_length() - 1
            gens.append(image)
            reached = [0]
            orbit = 1
            for v in reached:
                for g in gens:
                    if not orbit >> g[v] & 1:
                        orbit |= 1 << g[v]
                        reached.append(g[v])
    return orbit


def connected_components(K: SimplicialComplex) -> list:
    """Vertex masks of the 1-skeleton components, by smallest member."""
    return components(K.neighbours, (1 << K.vertex_count) - 1)


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of simplex counts by dimension."""
    return sum((-1) ** (len(s) - 1) for s in K.simplices)
