"""Witness complexes and labelings: tori, circles, wedges, products,
presentation complexes.

Tori use the Freudenthal triangulation, one simplex per coordinate order
in each unit cube; products use the staircase (shuffle) triangulation,
one simplex per monotone lattice path through each pair of maximal
simplices.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import (chain, combinations, pairwise, permutations,
                       product as iproduct)
from math import comb, factorial
from typing import Optional, Sequence

from .complexes import (MAX_FACES, SimplicialComplex, build_complex,
                        maximal_simplices, require_under_cap)
from .morse import MorseLabeling, require_valid


@dataclass(frozen=True)
class LabeledComplex:
    complex: SimplicialComplex
    labeling: Optional[MorseLabeling] = None

    def __post_init__(self):
        if self.labeling is not None:
            require_valid(self.complex, self.labeling)


def generate_circle(m: int) -> SimplicialComplex:
    """Simplicial circle with m vertices (m >= 3)."""
    if m < 3:
        raise ValueError(f"a simplicial circle needs m >= 3, got {m}")
    require_under_cap(m, 3 * m)  # m edges of 3 faces each
    return build_complex(((i, (i + 1) % m) for i in range(m)), m)


def circle_tent_labeling(m: int) -> MorseLabeling:
    """Tent labels min(i, m-i) around the circle; width-zero witness for m >= 4."""
    return MorseLabeling(tuple(min(i, m - i) for i in range(m)))


def _torus_vertex(coords, n: int) -> int:
    v = 0
    for c in coords:
        v = v * n + c
    return v


def require_axis(k: int, axis: int) -> None:
    """Raise ValueError unless ``axis`` is a grid axis of a k-torus."""
    if not 0 <= axis < k:
        raise ValueError(f"axis {axis} outside 0..{k - 1}")


def torus_coordinate(v: int, k: int, n: int, axis: int) -> int:
    """Grid coordinate of a torus vertex along ``axis`` (axis 0 is the
    most significant digit of the vertex id)."""
    require_axis(k, axis)
    return (v // n ** (k - 1 - axis)) % n


def generate_torus(k: int, n: int) -> SimplicialComplex:
    """Freudenthal (staircase) triangulation of the k-torus on (Z/n)^k.

    Each unit cube is cut into k! simplices along coordinate-order chains.
    """
    if k < 1:
        raise ValueError(f"torus dimension must be >= 1, got {k}")
    if n < 3:
        raise ValueError(f"torus grid needs n >= 3, got {n}")
    # n^k >= max(n, 2^k) vertices: refused before the power is taken
    if n > MAX_FACES or k >= MAX_FACES.bit_length():
        raise ValueError(f"a {k}-torus of resolution {n} has more than "
                         f"{MAX_FACES} faces")
    # n^k cubes of k! simplices on k + 1 vertices each
    require_under_cap(n ** k, n ** k * factorial(k) * ((2 << k) - 1))
    def chains():
        for base in iproduct(range(n), repeat=k):
            for perm in permutations(range(k)):
                cur = list(base)
                chain = [_torus_vertex(cur, n)]
                for ax in perm:
                    cur[ax] = (cur[ax] + 1) % n
                    chain.append(_torus_vertex(cur, n))
                yield chain
    return build_complex(chains(), n ** k)


def tent_labeling(k: int, n: int, axis: int = 0) -> MorseLabeling:
    """Tent labels min(r, n-r) along one grid axis of generate_torus(k, n).

    For n >= 4 every slab component of the result carries an H1-image of
    rank exactly k-1 and the quotient graph is a circle.  For n = 3 the
    tent degenerates to labels (0, 1, 1): one slab is the whole torus, so
    the width is k and the quotient graph is a tree.
    """
    require_axis(k, axis)
    labels = []
    for v in range(n ** k):
        r = torus_coordinate(v, k, n, axis)
        labels.append(min(r, n - r))
    return MorseLabeling(tuple(labels))


def labeled_torus(k: int, n: int, axis: int = 0) -> LabeledComplex:
    return LabeledComplex(generate_torus(k, n), tent_labeling(k, n, axis))


def _face_count(K: SimplicialComplex) -> int:
    """The faces ``build_complex`` counts for the maximal simplices of K."""
    return sum((1 << len(s)) - 1 for s in K.maximal)


def wedge(K1: SimplicialComplex, v1: int,
          K2: SimplicialComplex, v2: int) -> SimplicialComplex:
    """Disjoint union with v1 identified to v2, vertex ids renumbered densely."""
    if not 0 <= v1 < K1.vertex_count:
        raise ValueError(f"v1={v1} outside first complex")
    if not 0 <= v2 < K2.vertex_count:
        raise ValueError(f"v2={v2} outside second complex")
    n1 = K1.vertex_count
    require_under_cap(n1 + K2.vertex_count - 1,
                      _face_count(K1) + _face_count(K2))
    # the vertices of K2 other than v2 follow those of K1, in order
    remap = [v1 if v == v2 else n1 + v - (v > v2)
             for v in range(K2.vertex_count)]
    simps = chain(maximal_simplices(K1), (tuple(remap[v] for v in s)
                                          for s in maximal_simplices(K2)))
    return build_complex(simps, n1 + K2.vertex_count - 1)


def spread_wedge(L1: LabeledComplex, v1: int,
                 L2: LabeledComplex, v2: int, arc_len: int) -> LabeledComplex:
    """Join two labeled complexes by a monotonically labeled arc.

    The second complex keeps its labeling translated so that its label
    range sits strictly above the first one's; the arc of ``arc_len``
    edges runs from v1 to the translated v2 with labels stepping by +1.
    The arc is contractible, so the result is homotopy equivalent to the
    wedge and its width value is the max of the two inputs.
    """
    K1, f1 = L1.complex, L1.labeling
    K2, f2 = L2.complex, L2.labeling
    if f1 is None or f2 is None:
        raise ValueError("spread_wedge needs labeled inputs")
    if not 0 <= v1 < K1.vertex_count:
        raise ValueError(f"v1={v1} outside first complex")
    if not 0 <= v2 < K2.vertex_count:
        raise ValueError(f"v2={v2} outside second complex")
    if arc_len < 1:
        raise ValueError("arc needs at least one edge")
    shift = f1[v1] + arc_len - f2[v2]
    if min(f2.labels) + shift <= max(f1.labels):
        raise ValueError(
            f"arc_len={arc_len} cannot lift the second label range above the first")
    n1, n2 = K1.vertex_count, K2.vertex_count
    # 3 faces per arc edge
    require_under_cap(n1 + n2 + arc_len - 1,
                      _face_count(K1) + _face_count(K2) + 3 * arc_len)
    # arc interior vertices n1+n2 .. n1+n2+arc_len-2
    path = chain([v1], range(n1 + n2, n1 + n2 + arc_len - 1), [n1 + v2])
    simps = chain(maximal_simplices(K1),
                  (tuple(v + n1 for v in s) for s in maximal_simplices(K2)),
                  pairwise(path))
    K = build_complex(simps, n1 + n2 + arc_len - 1)
    labels = list(f1.labels) + [l + shift for l in f2.labels]
    labels += [f1[v1] + 1 + i for i in range(arc_len - 1)]
    return LabeledComplex(K, MorseLabeling(tuple(labels)))


def _monotone_paths(p: int, q: int):
    """All staircase paths from (0,0) to (p,q) with unit steps, one per
    choice of the p steps taken along the first coordinate."""
    for first in combinations(range(p + q), p):
        path = [(0, 0)]
        for step in range(p + q):
            i, j = path[-1]
            path.append((i + 1, j) if step in first else (i, j + 1))
        yield path


def product_complex(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Staircase (shuffle) triangulation of the product.

    Vertices are pairs (u, v) with id u * |V2| + v; each product of
    maximal simplices is triangulated by monotone lattice paths through
    the grid of its vertex pairs.
    """
    n2 = K2.vertex_count
    # C(p + q - 2, p - 1) paths of p + q - 1 vertices for each pair of a
    # p-vertex and a q-vertex simplex
    sizes1, sizes2 = (Counter(map(len, K.maximal)) for K in (K1, K2))
    require_under_cap(K1.vertex_count * n2, sum(
        c1 * c2 * comb(p + q - 2, p - 1) * ((1 << p + q - 1) - 1)
        for p, c1 in sizes1.items() for q, c2 in sizes2.items()))
    simps2 = maximal_simplices(K2)
    simps = (tuple(s[i] * n2 + t[j] for i, j in path)
             for s in maximal_simplices(K1) for t in simps2
             for path in _monotone_paths(len(s) - 1, len(t) - 1))
    return build_complex(simps, K1.vertex_count * n2)


def pullback_labeling(f1: MorseLabeling, vertex_count2: int) -> MorseLabeling:
    """Label (u, v) |-> f1(u) on a product complex built by product_complex."""
    labels = []
    for l in f1.labels:
        labels.extend([l] * vertex_count2)
    return MorseLabeling(tuple(labels))


def parse_relator(word: str, num_generators: int) -> list:
    """Parse a relator like "aaa" or "abAB": the ASCII letters a..z are
    generators 1..26, A..Z their inverses."""
    letters = []
    for ch in word:
        if "a" <= ch <= "z":
            j = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            j = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad relator character {ch!r}")
        if abs(j) > num_generators:
            raise ValueError(f"letter {ch!r} exceeds generator count {num_generators}")
        letters.append(j)
    return letters


def presentation_complex(num_generators: int,
                         relators: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Simplicial 2-complex homotopy equivalent to the presentation complex.

    The generator wedge is g circles through a base vertex, each
    subdivided into 3 edges.  A relator of length L attaches a disk as an
    annulus (outer boundary = the 3L-step word circuit, inner ring = 3L
    fresh vertices) plus a cone vertex on the ring; distinct ring vertices
    keep repeated boundary edges simplicial.
    """
    if num_generators < 1:
        raise ValueError("need at least one generator")
    for w in relators:
        if not w:
            raise ValueError("empty relator word")
        for l in w:
            if l == 0 or abs(l) > num_generators:
                raise ValueError(f"bad relator letter {l}")

    def circuit(word):
        walk = [0]
        for l in word:
            j = abs(l)
            a, b = 2 * j - 1, 2 * j
            walk += ([a, b, 0] if l > 0 else [b, a, 0])
        return walk  # length 3L + 1, closed

    # a generator, so build_complex's face limit stops it before an
    # oversized complex is listed
    def simplices():
        # base vertex 0; generator j (1-based) uses vertices 2j-1, 2j
        for j in range(1, num_generators + 1):
            a, b = 2 * j - 1, 2 * j
            yield from ((0, a), (a, b), (0, b))
        nxt = 2 * num_generators + 1
        for w in relators:
            outer = circuit(w)
            L3 = 3 * len(w)
            cone = nxt + L3  # after the ring nxt .. nxt + L3 - 1
            for t in range(L3):
                o1, o2 = outer[t], outer[t + 1]
                r1, r2 = nxt + t, nxt + (t + 1) % L3
                yield from ((o1, o2, r1), (o2, r1, r2), (r1, r2, cone))
            nxt = cone + 1

    # 2g + 1 wedge vertices, 3L ring vertices and a cone per relator
    vertex_count = 2 * num_generators + 1 + sum(3 * len(w) + 1
                                                for w in relators)
    # 3 edges of 3 faces per generator, 9L triangles of 7 per relator
    require_under_cap(vertex_count, 9 * num_generators
                      + 63 * sum(len(w) for w in relators))
    return build_complex(simplices(), vertex_count)
