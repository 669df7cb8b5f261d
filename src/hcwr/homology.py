"""Exact first-homology linear algebra over Q and prime fields.

All arithmetic is integer-exact, and one code path serves both fields:
``FieldSpec.reduce`` is the only function that tells Q from F_p, dropping
zero entries and, over F_p, taking residues.  ``Echelon.add`` is one
fraction-free (Bareiss-style) step with gcd-normalized rows, so no
fraction or modular inverse is ever formed.  No floating point anywhere.
Only echelon rows hold residues; edge vectors, potentials and cycles are
integers, reduced by ``Echelon.add`` when a relation or a cycle formed
from them is added.  Edge vectors come from a tree-and-peel pass over Z
in the manner of the edge annotations of arXiv:1107.3793, built once per
complex and field: a spanning tree fixes its edges at zero, the peel
solves a cone triangle's one unsolved edge over r free coordinates, and
each cone triangle it meets with all three edges solved is a relation.
The cone triangles are those (v0, a, b) of each maximal simplex with
smallest vertex v0: their boundaries span those of all triangles over Z
(the cone lemma, proved in ``H1Calculator``), so they are all the peel
reads, O(m^2) of them per m-vertex simplex instead of O(m^3).  H1(K; F)
is F^r modulo the relations, so a query ranks its cycles against an
echelon seeded with the relation rows, one path for every complex.  Each
edge vector is held packed into one ``int``, its entries as base-2^w
digits, so solving an edge or forming a relation is a sum of ints and
only a nonzero relation is unpacked.  The peel reads each cone triangle
as the indices of its three edges, from the complex's
``cone_triangles``.
A query's potentials and cycles are sums of edge vectors, and only a
cycle not met before in the query is unpacked into the echelon.  A query
takes a vertex set as an ``int`` bitmask (bit v is vertex v) and walks
its own breadth-first forest on the complex's neighbour masks, closing
each cycle as it discovers a vertex; it is a rank in F^betti1, a pure
function of the precompute, of the whole set or of each of its
components from the same pass; the searches keep their own memo of it.
The peel records its solve order, which ``nonzero_cup_product`` replays
to find two classes of H^1(K; F) with a nonzero cup product, the
exhaustive search's lower bound of width 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .complexes import SimplicialComplex


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
    def label(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Accepts ``Q``, ``F<p>`` or ``Fp:<p>``, p in ASCII digits (``int``
        would also read "3_1" as 31).  Leading zeros are dropped, and a p
        with more digits than ``_PRIME_LIMIT`` is refused before ``int``
        reads it, since ``int`` and ``str`` refuse numbers of over 4300
        digits."""
        t = text.strip()
        if t in ("Q", "q"):
            return cls.rationals()
        if t[:1] in ("F", "f"):
            digits = t[3:] if t.startswith("Fp:") else t[1:]
            if digits.isascii() and digits.isdigit():
                digits = digits.lstrip("0") or "0"
                if len(digits) > len(str(_PRIME_LIMIT)):
                    raise ValueError(f"field size of {len(digits)} digits is "
                                     f"not below the limit of {_PRIME_LIMIT}")
                return cls.prime(int(digits))
        raise ValueError(f"cannot parse field {text!r}")

    def reduce(self, vec: dict) -> dict:
        """``vec`` without its zero entries, reduced mod p over F_p;
        ``vec`` itself over Q when it has no zero entry."""
        p = self.p
        if p is None:
            if all(vec.values()):
                return vec
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
        ``r[c] * v - v[c] * r``, its zero entries dropped as it is formed,
        and the result goes through ``FieldSpec.reduce``, which over Q
        then returns it as it is.  Dividing by the gcd is exact over F_p
        too, since every g < p is a unit mod p.  A stored row is thus a
        nonzero multiple of the one exact division would give, its
        entries residues with gcd 1 (primitive over Q).  A stored row is
        never changed, so echelons seeded with the same rows can share
        them.  ``vec`` itself may be stored as a row, so the caller must
        not change it after.
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
                    y = new.get(k, 0) - b * x
                    if y:
                        new[k] = y
                    else:  # new[k] was b * x, which is nonzero
                        del new[k]
            v = reduce(new)
        return False


def _digits(x: int, w: int) -> dict:
    """The vector packed in ``x`` as column -> nonzero entry: its
    balanced base-2^w digits, each in [-2^(w - 1), 2^(w - 1))."""
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

    Built once per (K, F) by a tree-and-peel pass over Z, after the edge
    annotations of Busaryev, Cabello, Chen, Dey and Wang, "Annotating
    simplices with a homology basis and its applications" (SWAT 2012,
    arXiv:1107.3793).  The peel reads only the cone triangles
    ``K.cone_triangles``: for each maximal simplex s with smallest vertex
    v0, the triangles (v0, a, b) with a < b in s.  Cone lemma: their
    boundaries span the boundaries of all triangles over Z.  A triangle
    t = (a, b, c) of s that misses v0 is a face of the simplex
    (v0, a, b, c) of s, and from dd(v0, a, b, c) = 0,
    dt = d(v0, b, c) - d(v0, a, c) + d(v0, a, b).  So the relations the
    cone triangles give span those of every triangle, over Z and over
    every F, and ``betti1`` and every image rank are those of the full
    complex; only the basis the edge vectors are written in depends on
    the choice.

    Every edge gets an integer vector over r *free* coordinates: edges
    of the forest ``K.forest`` get 0.  A cone triangle with exactly one edge
    still unsolved fixes that edge's vector, since its boundary must sum
    to zero, and solving an edge may leave further cone triangles with
    one unsolved edge (peeling).  When none is left, the first unsolved
    edge becomes a new free coordinate (its unit vector) and peeling
    resumes.  Each cone triangle the peel pops with all three edges
    solved gives a relation, the sum of its boundary's vectors, added to
    the relation echelon over F when it is nonzero.  H1(K; F) is F^r
    modulo the span of the relations, and a cycle's class is the sum of
    its edges' vectors there, so ``betti1`` is r less the rank of the
    relations.  A query takes a spanning forest of the vertex set with
    potentials P(w) = P(v) + vec(v -> w) along it; every edge a -> b of
    the set then closes a cycle of class vec(a -> b) + P(a) - P(b), and
    the image rank is the number of these vectors that raise the rank of
    an echelon seeded with the relation rows.  The rank is the same for
    every complex, whether or not a relation is nonzero in F.

    Edge vectors and potentials are packed ints: the vector x is the int
    sum of x_j * 2^(w * j).  Packing is linear over Z, so the peel and
    the queries add ints, and one-to-one on vectors whose entries are
    below 2^(w - 1) in size, so only unpacking needs a bound.  The peel
    starts at w = bit length of (2n - 1), plus 2, with n vertices, and
    keeps the exact largest entry of each edge vector in size: 0 for
    zero, the operand's when the other operand of a sum is zero, else
    read from one unpacking of the sum.  The peel runs again at twice the
    width if the sizes of the operands of a sum or a relation add up to
    2^(w - 1), or if (2n - 1) * top reaches it, with top the largest
    entry of any edge vector.  A potential sums at most n - 1 steps, so a
    cycle's entries stay within (2n - 1) * top and ``+``, ``-``, ``==``
    and hashing on the ints act exactly on the vectors.  Over F_p only
    echelon rows are residues; edge vectors, potentials and cycles are
    unreduced integers, which ``Echelon.add`` reduces.
    """

    def __init__(self, K: SimplicialComplex, field: FieldSpec):
        self.K = K
        self.field = field
        edges = K.edges
        n = K.vertex_count
        parent = K.forest
        forest = [a == parent[b] or b == parent[a] for a, b in edges]
        faces = K.cone_triangles
        cofaces = [[] for _ in edges]
        for t, (i, j, k) in enumerate(faces):
            cofaces[i].append(t)
            cofaces[j].append(t)
            cofaces[k].append(t)
        w = (2 * n - 1).bit_length() + 2
        while (peeled := self._peel(forest, faces, cofaces, w)) is None:
            w *= 2
        vec, ech, r = peeled
        self._relations = ech.rows
        self.betti1 = r - ech.rank
        self._vec = [{} for _ in range(n)]
        for (a, b), x in zip(edges, vec):
            if x:
                self._vec[a][b] = x
                self._vec[b][a] = -x

    def _peel(self, forest, faces, cofaces, w):
        """The tree-and-peel pass over Z at digit width ``w``:
        ``(vec, ech, r)``, with ``vec[i]`` edge i's vector packed in one
        int, ``ech`` the echelon of the nonzero relations and r the number
        of free coordinates, or None when w is too narrow (see the class
        docstring).  ``size[i]`` is the largest entry of ``vec[i]`` in
        size, exact: a sum of two nonzero vectors is unpacked only when
        their sizes bound its entries below 2^(w - 1), and the queries'
        sums of up to 2n - 1 vectors only when (2n - 1) times the largest
        size is below it too.
        """
        self._width = w  # the width of every packed vector kept
        # the solve order, which nonzero_cup_product replays: 3 t + slot
        # for each cone triangle t that solves its edge faces[t][slot]
        self._solves = solves = []
        half = 1 << w - 1
        s0, s1, s2 = (x for _, x in boundary((0, 1, 2)))
        vec = [0 if f else None for f in forest]
        size = [0] * len(vec)
        unsolved = [(vec[i] is None) + (vec[j] is None) + (vec[k] is None)
                    for i, j, k in faces]
        ready = [t for t, u in enumerate(unsolved) if u == 1]
        ech = Echelon(self.field)
        unsolved_edges = (i for i, v in enumerate(vec) if v is None)
        r = 0
        while True:
            if ready:
                t = ready.pop()
                i, j, k = faces[t]
                if not unsolved[t]:  # solved meanwhile: a relation
                    if size[i] + size[j] + size[k] >= half:
                        return None
                    relation = s0 * vec[i] + s1 * vec[j] + s2 * vec[k]
                    if relation:
                        ech.add(_digits(relation, w))
                    continue
                # s * vec[e] = -(x * vec[a] + y * vec[b]), and 1/s = s
                if vec[i] is None:
                    e, x, a, y, b = i, -s0 * s1, j, -s0 * s2, k
                    solves.append(3 * t)
                elif vec[j] is None:
                    e, x, a, y, b = j, -s1 * s0, i, -s1 * s2, k
                    solves.append(3 * t + 1)
                else:
                    e, x, a, y, b = k, -s2 * s0, i, -s2 * s1, j
                    solves.append(3 * t + 2)
                u, v = vec[a], vec[b]
                if not v:
                    value, top = x * u, size[a]
                elif not u:
                    value, top = y * v, size[b]
                elif size[a] + size[b] >= half:
                    return None
                else:
                    value = x * u + y * v
                    top = max(map(abs, _digits(value, w).values()),
                              default=0)
            else:  # nothing to peel: the next unsolved edge is free
                e = next(unsolved_edges, None)
                if e is None:
                    break
                value, top = 1 << w * r, 1
                r += 1
            vec[e], size[e] = value, top
            for t in cofaces[e]:
                unsolved[t] -= 1
                if unsolved[t] == 1:
                    ready.append(t)
        n = self.K.vertex_count
        if (2 * n - 1) * max(size, default=0) >= half:
            return None
        return vec, ech, r

    def nonzero_cup_product(self) -> bool:
        """Whether the cup check finds classes alpha, beta of H^1(K; F)
        with alpha u beta != 0 in H^2(K; F).  True proves that every
        labeling of K has width at least 1 (``search.exhaustive_min``
        gives the proof); False proves nothing.

        Cocycles: the coordinates of the edge vectors that no relation
        row uses.  Coordinate j of the edge vectors is a 1-cochain whose
        coboundary on a cone triangle is entry j of the triangle's
        relation, the sum of its boundary's vectors; that is zero over F
        when no row uses j, and on any other triangle the coboundary is
        a sum of those (the cone lemma), so the cochain is a cocycle.  On
        the cone triangle (v0, a, b), (alpha u beta)(v0, a, b) =
        alpha(v0 a) * beta(a b).

        The check solves dx = alpha u beta by replaying the peel's solve
        order: x is 0 on the forest and on the free edges, and each
        peeled edge is solved from its cone triangle.  Any solution can
        be moved by a coboundary to vanish on the forest, and is then
        this x plus free parameters on the free edges, which enter each
        edge as its edge vector does.  So on a cone triangle whose
        relation is zero over F, dx of every solution is dx of this x,
        and a nonzero residual (alpha u beta - dx) there proves that
        alpha u beta is no coboundary.  Cone triangles suffice, since
        alpha u beta is a cocycle.  A product that only a relation
        nonzero over F could cancel is missed; no benchmark complex has
        such a relation.

        The residual is linear in alpha u beta and zero on coboundaries,
        and beta u alpha is cohomologous to -(alpha u beta), so each pair
        of cocycle columns p < q is replayed once, over plain ints, and
        the squares p = q only over F_2: over Q and F_p, p odd,
        2 (alpha u alpha) is a coboundary, and so is alpha u alpha.  With
        ``betti1`` below 2 the check then returns False at once.
        """
        least = 1 if self.field.p == 2 else 2
        if self.betti1 < least:
            return False
        reduce, w = self.field.reduce, self._width
        used = {j for row in self._relations.values() for j in row}
        vec = [self._vec[a].get(b, 0) for a, b in self.K.edges]
        cocycles = {}  # column -> its value on each edge
        for e, v in enumerate(vec):
            for j, x in _digits(v, w).items():
                if j not in used:
                    if j not in cocycles:
                        cocycles[j] = [0] * len(vec)
                    cocycles[j][e] = x
        if len(cocycles) < least:
            return False
        faces = self.K.cone_triangles
        signs = s0, s1, s2 = tuple(x for _, x in boundary((0, 1, 2)))
        # (its faces, the edge it solves, that edge's sign)
        steps = [(*faces[code // 3], faces[code // 3][code % 3],
                  signs[code % 3]) for code in self._solves]
        # the other cone triangles are relations; those zero over F
        solved = {code // 3 for code in self._solves}
        checks = [(i, j, k) for t, (i, j, k) in enumerate(faces)
                  if t not in solved and not reduce(_digits(
                      s0 * vec[i] + s1 * vec[j] + s2 * vec[k], w))]
        columns = [cocycles[j] for j in sorted(cocycles)]
        for p, alpha in enumerate(columns):
            for beta in columns[p + least - 1:]:  # q >= p over F_2, else q > p
                x = [0] * len(vec)
                for i, j, k, e, s in steps:
                    # x[e] is still 0: s * x[e] = cup - dx, and 1/s = s
                    x[e] = s * (alpha[k] * beta[i]
                                - s0 * x[i] - s1 * x[j] - s2 * x[k])
                if any(reduce({0: alpha[k] * beta[i]
                               - s0 * x[i] - s1 * x[j] - s2 * x[k]})
                       for i, j, k in checks):
                    return True
        return False

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
        """Image ranks over one breadth-first forest of ``mask``: one per
        tree when ``per_component``, else one for the union of the trees
        (none for an empty mask).

        The forest follows the rule of ``K.forest`` (roots and each
        vertex's neighbours ascending) on the graph induced on ``mask``,
        walked here on the ``neighbours`` masks.  Each rank is counted on
        an echelon seeded with the relation rows.  A vertex b is handled
        when it is discovered from its parent u: P(b) = P(u) + vec(u -> b),
        packed and left unreduced for Echelon.add, and each neighbour a of
        b discovered before it, other than u, closes a cycle of class
        P(b) + vec(b -> a) - P(a); a zero cycle or one met before in the
        same echelon cannot raise the rank, and neither can any cycle
        once the rank is ``betti1``, after which the walk only finishes
        the tree.  A root closes no cycle, since the vertices discovered
        before it lie in other components.
        """
        dim = self.betti1
        field, relations = self.field, self._relations
        vecs = self._vec
        neighbours = self.K.neighbours
        w = self._width
        ranks = []
        potential = {}
        unseen = mask
        before = 0  # the vertices discovered so far
        while unseen:
            low = unseen & -unseen
            unseen ^= low
            before |= low
            root = low.bit_length() - 1
            potential[root] = 0
            if per_component or not ranks:
                ranks.append(0)
                ech = Echelon(field)
                ech.rows.update(relations)
                met = set()
            queue = [root]
            for u in queue:
                new = neighbours[u] & unseen
                unseen ^= new
                # no potential once the rank is betti1, and none is read
                pu, vec_u = potential.get(u), vecs[u]
                while new:
                    low = new & -new
                    new ^= low
                    b = low.bit_length() - 1
                    queue.append(b)
                    if ranks[-1] == dim:
                        continue
                    pb = potential[b] = pu + vec_u.get(b, 0)
                    vec_b = vecs[b]
                    closing = (neighbours[b] & before) ^ (1 << u)
                    before |= low
                    while closing:
                        bit = closing & -closing
                        closing ^= bit
                        a = bit.bit_length() - 1
                        cycle = pb + vec_b.get(a, 0) - potential[a]
                        if not cycle or cycle in met:
                            continue
                        met.add(cycle)
                        if ech.add(_digits(cycle, w)):
                            ranks[-1] += 1
                            if ranks[-1] == dim:
                                if not per_component:
                                    return ranks
                                break
        return ranks


def betti1(K: SimplicialComplex, F: FieldSpec) -> int:
    """dim H1(K; F) = (#edges - rank d1) - rank d2."""
    return H1Calculator(K, F).betti1

