"""Exact first-homology linear algebra over Q and prime fields.

All arithmetic is integer-exact: rational ranks use fraction-free
(Bareiss-style) elimination with gcd-normalized integer rows, prime-field
ranks use modular elimination.  No floating point anywhere.  H1-image
ranks come from edge annotations (arXiv:1107.3793): one reduction of the
ambient complex, then a rank in F^betti1 per query.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .complexes import SimplicialComplex, bfs_parents


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
    smallest column.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = {}  # pivot column -> row dict

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


def boundary(s: tuple) -> list:
    """Signed faces ``(face, +-1)`` of the simplex ``s``.

    Orientation is induced by increasing vertex order:
    d(v0 ... vk) = sum over i of (-1)^i (v0 ... vk without vi), so the edge
    ``(a, b)`` has ``-1`` at ``a`` and ``+1`` at ``b``, and the triangle
    ``(a, b, c)`` has ``+1`` on ``(b, c)``, ``-1`` on ``(a, c)`` and ``+1``
    on ``(a, b)``.
    """
    return [(s[:i] + s[i + 1:], -1 if i % 2 else 1) for i in range(len(s))]


class H1Calculator:
    """Cached H1-image ranks of induced subcomplexes of a fixed complex.

    Uses the edge annotations of Busaryev, Cabello, Chen, Dey and Wang,
    "Annotating simplices with a homology basis and its applications"
    (SWAT 2012, arXiv:1107.3793).  Once per (K, F), the triangle
    boundaries restricted to the edges off a spanning forest of K are
    reduced; back-substitution from each free column gives one of
    ``betti1`` cocycles, and an edge's annotation is its vector of
    cocycle values (0 on tree edges), so a cycle's annotation sum is its
    class in H1(K; F).  A query takes a spanning forest of the vertex set
    with potentials P(w) = P(v) + ann(v -> w) along it; every edge a -> b
    of the set then closes a cycle of class ann(a -> b) + P(a) - P(b), and
    the image rank is the rank of these vectors.  Memoized by vertex set.
    """

    def __init__(self, K: SimplicialComplex, field: FieldSpec):
        self.K = K
        self.field = field
        p = field.p
        parent = bfs_parents(K.adjacency, range(K.vertex_count))
        column = {e: j for j, e in enumerate(
            (a, b) for a, b in K.edges if a != parent[b] and b != parent[a])}
        ech = Echelon(field)
        for t in K.triangles:
            ech.add({column[e]: x for e, x in boundary(t) if e in column})
        self.rank_d1 = len(K.edges) - len(column)
        self.rank_d2 = ech.rank
        self.betti1 = len(column) - ech.rank
        cocycles = []
        for free in (j for j in range(len(column)) if j not in ech.rows):
            phi = {free: 1}
            for c in sorted(ech.rows, reverse=True):
                row = ech.rows[c]
                s = sum(x * phi.get(k, 0) for k, x in row.items() if k != c)
                if s:
                    phi[c] = (Fraction(-s, row[c]) if p is None
                              else -s * pow(row[c], -1, p) % p)
            cocycles.append(phi)
        if p is None:
            scale = lcm(*(Fraction(x).denominator
                          for phi in cocycles for x in phi.values()))
            cocycles = [{j: int(x * scale) for j, x in phi.items()}
                        for phi in cocycles]
        self._ann = [{} for _ in range(K.vertex_count)]
        for (a, b), j in column.items():
            vec = tuple(phi.get(j, 0) for phi in cocycles)
            if any(vec):
                self._ann[a][b] = vec
                self._ann[b][a] = tuple(-x % p if p else -x for x in vec)
        self._cache = {}

    def image_rank_of_vertices(self, vs: frozenset) -> int:
        """Rank of im(H1(full subcomplex on vs; F) -> H1(K; F))."""
        cached = self._cache.get(vs)
        if cached is None:
            cached = self._cache[vs] = self._image_rank(vs)
        return cached

    def _image_rank(self, vs: frozenset) -> int:
        dim = self.betti1
        if dim == 0:
            return 0
        p = self.field.p
        zero = (0,) * dim

        def step(pa, a, b):  # P(a) + ann(a -> b)
            return tuple((x + y) % p if p else x + y
                         for x, y in zip(pa, self._ann[a].get(b, zero)))

        potential = {}
        for v, u in bfs_parents(self.K.adjacency, vs).items():
            potential[v] = zero if u == v else step(potential[u], u, v)
        ech = Echelon(self.field)
        for a, pa in potential.items():
            for b in self.K.adjacency[a]:
                if a < b and b in vs:
                    cycle = {i: x - y for i, (x, y) in
                             enumerate(zip(step(pa, a, b), potential[b]))
                             if x != y}
                    if cycle and ech.add(cycle) and ech.rank == dim:
                        return dim
        return ech.rank


def betti1(K: SimplicialComplex, F: FieldSpec) -> int:
    """dim H1(K; F) = (#edges - rank d1) - rank d2."""
    return H1Calculator(K, F).betti1

