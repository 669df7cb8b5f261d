"""Exact first-homology linear algebra over Q and prime fields.

All arithmetic is integer-exact: rational ranks use fraction-free
(Bareiss-style) elimination with gcd-normalized integer rows, prime-field
ranks use modular elimination.  No floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .complexes import SimplicialComplex, Subcomplex, connected_components


class NotASubcomplex(ValueError):
    """The argument is not an induced subcomplex of the ambient complex."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (``p is None``) or F_p, p prime.

    For finite-abelian width computations the interesting prime is one
    dividing the group order as often as any other prime; the caller picks
    it, the library just computes over the given field.
    """

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Accepts ``Q``, ``F<p>`` or ``Fp:<p>``."""
        t = text.strip()
        if t in ("Q", "q"):
            return cls.rationals()
        if t.startswith("Fp:"):
            return cls.prime(int(t[3:]))
        if t and t[0] in "Ff":
            return cls.prime(int(t[1:]))
        raise ValueError(f"cannot parse field {text!r}")


class Echelon:
    """Row space in sparse echelon form over a FieldSpec.

    Rows are dicts column->nonzero value; the pivot of a row is its
    smallest column.  Stored rows are never mutated, so :meth:`branch`
    can share them between copies.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = {}  # pivot column -> row dict

    def branch(self) -> "Echelon":
        clone = Echelon(self.field)
        clone.rows = dict(self.rows)
        return clone

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict) -> bool:
        """Reduce ``vec`` against the stored rows; True iff rank grew."""
        p = self.field.p
        if p is not None:
            v = {c: x % p for c, x in vec.items() if x % p}
        else:
            v = {c: x for c, x in vec.items() if x}
        while v:
            c = min(v)
            r = self.rows.get(c)
            if r is None:
                if p is None:
                    g = 0
                    for x in v.values():
                        g = gcd(g, x)
                    if g > 1:
                        v = {k: x // g for k, x in v.items()}
                self.rows[c] = v
                return True
            if p is not None:
                factor = v[c] * pow(r[c], -1, p) % p
                new = dict(v)
                del new[c]
                for k, x in r.items():
                    if k == c:
                        continue
                    y = (new.get(k, 0) - factor * x) % p
                    if y:
                        new[k] = y
                    elif k in new:
                        del new[k]
                v = new
            else:
                a, b = r[c], v[c]
                new = {k: a * x for k, x in v.items() if k != c}
                for k, x in r.items():
                    if k == c:
                        continue
                    y = new.get(k, 0) - b * x
                    if y:
                        new[k] = y
                    elif k in new:
                        del new[k]
                if new:
                    g = 0
                    for x in new.values():
                        g = gcd(g, x)
                    if g > 1:
                        new = {k: x // g for k, x in new.items()}
                v = new
        return False


def rank(M, F: FieldSpec) -> int:
    """Exact rank of an integer matrix (list of rows) over ``F``."""
    ech = Echelon(F)
    r = 0
    for row in M:
        vec = {j: x for j, x in enumerate(row) if x}
        if ech.add(vec):
            r += 1
    return r


@dataclass(frozen=True)
class BoundaryPair:
    """Dense d1 (vertices x edges) and d2 (edges x triangles) with index maps.

    Orientation is induced by increasing vertex order: the column of edge
    ``(a, b)`` has ``-1`` at ``a`` and ``+1`` at ``b``; the column of
    triangle ``(a, b, c)`` has ``+1`` on ``(b, c)``, ``-1`` on ``(a, c)``
    and ``+1`` on ``(a, b)``.
    """

    edges: tuple
    triangles: tuple
    d1: tuple
    d2: tuple
    edge_index: dict
    triangle_index: dict


def boundary_pair(K: SimplicialComplex) -> BoundaryPair:
    edges = K.edges
    triangles = K.triangles
    eidx = {e: j for j, e in enumerate(edges)}
    tidx = {t: j for j, t in enumerate(triangles)}
    d1 = [[0] * len(edges) for _ in range(K.vertex_count)]
    for j, (a, b) in enumerate(edges):
        d1[a][j] = -1
        d1[b][j] = 1
    d2 = [[0] * len(triangles) for _ in range(len(edges))]
    for j, (a, b, c) in enumerate(triangles):
        d2[eidx[(b, c)]][j] += 1
        d2[eidx[(a, c)]][j] -= 1
        d2[eidx[(a, b)]][j] += 1
    return BoundaryPair(
        edges=edges,
        triangles=triangles,
        d1=tuple(tuple(r) for r in d1),
        d2=tuple(tuple(r) for r in d2),
        edge_index=eidx,
        triangle_index=tidx,
    )


def _triangle_boundary_columns(K: SimplicialComplex, eidx: dict):
    for (a, b, c) in K.triangles:
        yield {eidx[(b, c)]: 1, eidx[(a, c)]: -1, eidx[(a, b)]: 1}


class H1Calculator:
    """Cached H1-image ranks of induced subcomplexes of a fixed complex.

    Precomputes an echelon basis of B1(K) (the column space of d2) once;
    each query reduces a fundamental-cycle basis of the subcomplex against
    a branch of that echelon, so repeated queries over the same ambient
    complex are cheap.  Results are memoized by vertex set.
    """

    def __init__(self, K: SimplicialComplex, field: FieldSpec):
        self.K = K
        self.field = field
        self.edges = K.edges
        self.edge_index = {e: j for j, e in enumerate(self.edges)}
        self._b1 = Echelon(field)
        for col in _triangle_boundary_columns(K, self.edge_index):
            self._b1.add(col)
        self.rank_d2 = self._b1.rank
        self.rank_d1 = K.vertex_count - len(connected_components(K))
        self.betti1 = len(self.edges) - self.rank_d1 - self.rank_d2
        self._cache = {}

    def image_rank_of_vertices(self, vs: frozenset) -> int:
        """Rank of im(H1(full subcomplex on vs; F) -> H1(K; F))."""
        cached = self._cache.get(vs)
        if cached is not None:
            return cached
        cycles = _fundamental_cycles(vs, self.edges, self.edge_index)
        count = 0
        if cycles:
            ech = self._b1.branch()
            for cyc in cycles:
                if ech.add(cyc):
                    count += 1
        self._cache[vs] = count
        return count


def _fundamental_cycles(vs: frozenset, edges, edge_index) -> list:
    """Cycle-space basis of the induced graph on ``vs``, as sparse vectors
    over the ambient edge coordinates (one per non-tree edge of a BFS
    spanning forest; entries are +-1)."""
    sub_edges = [e for e in edges if e[0] in vs and e[1] in vs]
    adj = {v: [] for v in vs}
    for a, b in sub_edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {}
    depth = {}
    tree_edges = set()
    for root in sorted(vs):
        if root in parent:
            continue
        parent[root] = root
        depth[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    tree_edges.add((min(v, w), max(v, w)))
                    queue.append(w)
    cycles = []
    for (a, b) in sub_edges:
        if (a, b) in tree_edges:
            continue
        coeffs = {}

        def step(u, v):
            # traverse u -> v
            if u < v:
                coeffs[edge_index[(u, v)]] = coeffs.get(edge_index[(u, v)], 0) + 1
            else:
                coeffs[edge_index[(v, u)]] = coeffs.get(edge_index[(v, u)], 0) - 1

        step(a, b)
        # close up with the tree path b -> lca -> a
        x, y = b, a
        up_a = []
        while x != y:
            if depth[x] >= depth[y]:
                step(x, parent[x])
                x = parent[x]
            else:
                up_a.append(y)
                y = parent[y]
        for v in reversed(up_a):
            step(parent[v], v)
        cycles.append({k: v for k, v in coeffs.items() if v})
    return cycles


def betti1(K: SimplicialComplex, F: FieldSpec) -> int:
    """dim H1(K; F) = (#edges - rank d1) - rank d2."""
    return H1Calculator(K, F).betti1


def image_rank_h1(C: Subcomplex, F: FieldSpec,
                  calc: Optional[H1Calculator] = None) -> int:
    """Rank of the image of H1(C; F) -> H1(parent; F).

    Pass a precomputed ``calc`` for the parent to amortize the ambient
    boundary reduction across many subcomplexes.
    """
    if not isinstance(C, Subcomplex):
        raise NotASubcomplex("expected an induced Subcomplex")
    if not C.simplices <= C.parent.simplices:
        raise NotASubcomplex("simplices are not simplices of the parent")
    if calc is None:
        calc = H1Calculator(C.parent, F)
    elif calc.K is not C.parent:
        raise NotASubcomplex("calculator was built for a different parent")
    return calc.image_rank_of_vertices(C.vertex_set)
