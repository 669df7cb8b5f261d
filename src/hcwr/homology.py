"""Exact first-homology linear algebra over Q and prime fields.

All arithmetic is integer-exact, and one code path serves both fields:
``FieldSpec.reduce`` is the only function that tells Q from F_p, dropping
zero entries and, over F_p, taking residues.  ``Echelon.add`` is one
fraction-free (Bareiss-style) step with gcd-normalized rows, and
back-substitution clears a pivot by scaling the cocycle, never by
dividing.  No floating point anywhere.  Over F_p, echelon rows and
cocycles hold residues; edge vectors, annotations, potentials and cycles
are integer representatives, reduced by ``Echelon.add`` when a relation
or a cycle formed from them is added.  H1-image ranks come from edge
annotations (arXiv:1107.3793), built once per complex and field: a
spanning tree fixes its edges at zero, the peel solves a triangle's one
unsolved edge over a few free coordinates, and each triangle it meets
with all three edges solved is a relation to eliminate.  Each annotation
is stored packed into one ``int``, its entries as base-2^w digits, so a
query's potentials and cycles are sums of ints, and only a cycle not met
before in the query is unpacked into the echelon.  A query takes a
vertex set as an ``int`` bitmask (bit v is vertex v) and is a rank in
F^betti1, a pure function of the precompute, of the whole set or of each
of its components from the same pass; the searches keep their own memo
of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .complexes import SimplicialComplex, bfs_parents


# Miller-Rabin with the thirteen prime bases up to 41 has no strong
# pseudoprime below _PRIME_LIMIT, which is itself one (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017),
# so the test is exact for every field size the library accepts.  The
# twelve bases up to 37 would not do: 318665857834031151167461 =
# 399165290221 * 798330580441 passes all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for ``p < _PRIME_LIMIT``."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
        if self.p is None:
            return
        if type(self.p) is not int:
            raise ValueError(f"field size {self.p!r} is not an int")
        if self.p >= _PRIME_LIMIT:
            raise ValueError(f"field size {self.p} is not below the limit "
                             f"of {_PRIME_LIMIT}")
        if not _is_prime(self.p):
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

    def reduce(self, vec: dict) -> dict:
        """``vec`` without its zero entries, reduced mod p over F_p."""
        p = self.p
        if p is None:
            return {k: x for k, x in vec.items() if x}
        return {k: x % p for k, x in vec.items() if x % p}


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
        """Reduce ``vec`` against the stored rows; True iff rank grew.

        One fraction-free step for both fields: ``v`` is divided by the
        gcd of its entries, its pivot column c is cleared by
        ``r[c] * v - v[c] * r`` and the result goes through
        ``FieldSpec.reduce``.  Dividing by the gcd is exact over F_p too,
        since every g < p is a unit mod p.  A stored row is thus a
        nonzero multiple of the one exact division would give, its
        entries residues with gcd 1 (primitive over Q).
        """
        rows, reduce = self.rows, self.field.reduce
        v = reduce(vec)
        while v:
            g = gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
            c = min(v)
            r = rows.get(c)
            if r is None:
                rows[c] = v
                return True
            a, b = r[c], v[c]
            new = {k: a * x for k, x in v.items() if k != c}
            for k, x in r.items():
                if k != c:
                    new[k] = new.get(k, 0) - b * x
            v = reduce(new)
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
    """H1-image ranks of induced subcomplexes of a fixed complex.

    Uses the edge annotations of Busaryev, Cabello, Chen, Dey and Wang,
    "Annotating simplices with a homology basis and its applications"
    (SWAT 2012, arXiv:1107.3793), built once per (K, F) by a tree-and-peel
    pass.  Every edge gets a vector over r *free* coordinates: edges of a
    spanning forest get 0.  A triangle with exactly one edge still
    unsolved fixes that edge's vector, since its boundary must sum to
    zero, and solving an edge may leave further triangles with one
    unsolved edge (peeling).  When none is left, the first unsolved edge
    becomes a new free coordinate (its unit vector) and peeling resumes.
    A triangle the peel pops with all three edges solved gives a relation
    in F^r there, formed only when one of its vectors is nonzero; these
    are reduced, and back-substitution from each free column of the
    reduction gives one of ``betti1`` cocycles on F^r.  An edge's
    annotation is its vector's value under these cocycles, so a cycle's
    annotation sum is its class in H1(K; F).  A query takes a spanning
    forest of the vertex set with potentials P(w) = P(v) + ann(v -> w)
    along it; every edge a -> b of the set then closes a cycle of class
    ann(a -> b) + P(a) - P(b), and the image rank is the rank of these
    vectors.

    Annotations and potentials are packed ints: the vector x is the int
    sum of x_j * 2^(w * j).  Packing is linear over Z, and one-to-one on
    vectors whose entries are below 2^(w - 1) in size; w is fixed so that
    2^(w - 1) > (2n - 1) * top, with n vertices and top the largest entry
    of any annotation in size.  A potential sums at most n - 1 steps, so a
    cycle's entries stay within (2n - 1) * top and ``+``, ``-``, ``==``
    and hashing on the ints act exactly on the vectors.  Over F_p only
    echelon rows and cocycles are residues; edge vectors, annotations,
    potentials and cycles are unreduced integers, which ``Echelon.add``
    reduces.
    """

    def __init__(self, K: SimplicialComplex, field: FieldSpec):
        self.K = K
        self.field = field
        reduce = field.reduce
        edges = K.edges
        parent = bfs_parents(K.neighbours, (1 << K.vertex_count) - 1)
        vec = [{} if a == parent[b] or b == parent[a] else None
               for a, b in edges]
        self.rank_d1 = len(edges) - vec.count(None)
        index = {e: i for i, e in enumerate(edges)}
        # the faces (b, c), (a, c), (a, b) of a triangle (a, b, c), in the
        # order of boundary(); a face's sign depends only on its position
        s0, s1, s2 = (x for _, x in boundary((0, 1, 2)))
        faces = [(index[b, c], index[a, c], index[a, b])
                 for a, b, c in K.triangles]
        cofaces = [[] for _ in edges]
        for t, face in enumerate(faces):
            for i in face:
                cofaces[i].append(t)
        unsolved = [(vec[i] is None) + (vec[j] is None) + (vec[k] is None)
                    for i, j, k in faces]
        ready = [t for t, u in enumerate(unsolved) if u == 1]
        ech = Echelon(field)

        def sum2(x, u, y, w):
            """``x * u + y * w`` for signs x, y = +-1, with no entry
            that is zero in F, as the edge vectors u, w have none: a sum
            of two goes through ``FieldSpec.reduce``, a negation need not."""
            if not u:
                u, x, w, y = w, y, u, x
            if not w:
                return u if x == 1 else {c: -z for c, z in u.items()}
            total = {c: x * z for c, z in u.items()}
            for c, z in w.items():
                total[c] = total.get(c, 0) + y * z
            return reduce(total)

        def solve(i, v):
            vec[i] = v
            for t in cofaces[i]:
                unsolved[t] -= 1
                if unsolved[t] == 1:
                    ready.append(t)

        unsolved_edges = (i for i, v in enumerate(vec) if v is None)
        r = 0
        while True:
            while ready:
                t = ready.pop()
                i, j, k = faces[t]
                if not unsolved[t]:  # solved meanwhile: a relation
                    if vec[i] or vec[j] or vec[k]:
                        relation = sum2(1, sum2(s0, vec[i], s1, vec[j]),
                                        s2, vec[k])
                        if relation:
                            ech.add(relation)
                    continue
                # s * vec[unsolved] = -(the other two), and 1/s = s
                if vec[i] is None:
                    solve(i, sum2(-s0 * s1, vec[j], -s0 * s2, vec[k]))
                elif vec[j] is None:
                    solve(j, sum2(-s1 * s0, vec[i], -s1 * s2, vec[k]))
                else:
                    solve(k, sum2(-s2 * s0, vec[i], -s2 * s1, vec[j]))
            j = next(unsolved_edges, None)
            if j is None:
                break
            solve(j, {r: 1})
            r += 1
        self.betti1 = r - ech.rank
        # rank d2: the edges peeling solved (all but forest and free) + ech
        self.rank_d2 = len(edges) - self.rank_d1 - self.betti1
        cocycles = []
        for free in (j for j in range(r) if j not in ech.rows):
            phi = {free: 1}
            for c in sorted(ech.rows, reverse=True):
                row = ech.rows[c]
                s = sum(x * phi.get(k, 0) for k, x in row.items() if k != c)
                if s:  # scale, not divide: row . phi = 0 once phi[c] = -s
                    phi = {k: row[c] * y for k, y in phi.items()}
                    phi[c] = -s
                    phi = reduce(phi)
            cocycles.append(phi)
        anns = []
        for (a, b), v in zip(edges, vec):
            if not v:
                continue
            ann = tuple(sum(phi.get(c, 0) * y for c, y in v.items())
                        for phi in cocycles)
            if any(ann):
                anns.append((a, b, ann))
        top = max((abs(x) for _, _, ann in anns for x in ann), default=0)
        self._width = ((2 * K.vertex_count - 1) * top).bit_length() + 1
        self._ann = [{} for _ in range(K.vertex_count)]
        for a, b, ann in anns:
            x = self._pack(ann)
            self._ann[a][b] = x
            self._ann[b][a] = -x

    def _pack(self, vector) -> int:
        """The int sum of ``x_j * 2^(w * j)`` over the entries x_j of
        ``vector``; linear over Z, and one-to-one on vectors whose entries
        are below 2^(w - 1) in size."""
        w = self._width
        return sum(x << w * j for j, x in enumerate(vector))

    def _unpack(self, x: int) -> dict:
        """The vector packed in ``x`` as column -> nonzero entry: its
        balanced base-2^w digits, each in [-2^(w - 1), 2^(w - 1))."""
        w = self._width
        mask, half = (1 << w) - 1, 1 << w - 1
        vec = {}
        j = 0
        while x:
            d = x & mask
            if d >= half:
                d -= mask + 1
            if d:
                vec[j] = d
            x = (x - d) >> w
            j += 1
        return vec

    def image_rank_of_vertices(self, mask: int) -> int:
        """Rank of im(H1(full subcomplex on the vertices of ``mask``; F)
        -> H1(K; F)).

        Potentials and cycles are packed ints; each distinct nonzero
        cycle is unpacked and added to the echelon once, and the query
        stops as soon as the rank reaches ``betti1``.
        """
        if self.betti1 == 0:
            return 0
        return sum(self._ranks(mask, per_component=False))  # [] for mask 0

    def component_ranks(self, mask: int) -> list:
        """``image_rank_of_vertices`` of each component of the full
        subcomplex on the vertices of ``mask``, in order of its smallest
        vertex, from one breadth-first forest of the mask."""
        return self._ranks(mask, per_component=True)

    def _ranks(self, mask: int, per_component: bool) -> list:
        """Image ranks over one ``bfs_parents`` forest of ``mask``: one per
        tree when ``per_component``, else one for the union of the trees
        (none for an empty mask).

        P(b) = P(u) + ann(u -> b) along the tree, packed and left
        unreduced for Echelon.add.  Each edge from b to a vertex a
        visited before it, other than its parent u, closes a cycle of
        class P(b) + ann(b -> a) - P(a); a zero cycle or one met before
        in the same echelon cannot raise the rank, and neither can any
        cycle once the rank is ``betti1``.  A root closes no cycle, since
        the vertices visited before it lie in other components.
        """
        dim = self.betti1
        field = self.field
        ann = self._ann
        adjacency = self.K.adjacency
        unpack = self._unpack
        ranks = []
        potential = {}
        for b, u in bfs_parents(self.K.neighbours, mask).items():
            if u == b:
                potential[b] = 0
                if per_component or not ranks:
                    ranks.append(0)
                    ech = Echelon(field)
                    met = set()
                continue
            if ranks[-1] == dim:
                continue
            pb = potential[b] = potential[u] + ann[u].get(b, 0)
            ann_b = ann[b]
            for a in adjacency[b]:
                if a == u or a not in potential:
                    continue
                cycle = pb + ann_b.get(a, 0) - potential[a]
                if not cycle or cycle in met:
                    continue
                met.add(cycle)
                if ech.add(unpack(cycle)):
                    ranks[-1] += 1
                    if ranks[-1] == dim:
                        if not per_component:
                            return ranks
                        break
        return ranks


def betti1(K: SimplicialComplex, F: FieldSpec) -> int:
    """dim H1(K; F) = (#edges - rank d1) - rank d2."""
    return H1Calculator(K, F).betti1

