"""Shared strategies and oracles for the test suite.

The oracle functions here deliberately avoid the package's own linear
algebra: ranks go through sympy (exact rationals / prime fields) so every
homology number is checked by two independent routes.
"""
import math
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st
from sympy import GF, Matrix, QQ, Rational, ZZ
from sympy.polys.matrices import DomainMatrix

from hcwr import (FieldSpec, build_complex, generate_circle,
                  presentation_complex)
from hcwr.generators import parse_relator
from hcwr.morse import MorseLabeling

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def relabelled(K, seed):
    """``K`` with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(K.vertex_count))
    random.Random(seed).shuffle(perm)
    return build_complex([[perm[v] for v in s] for s in K.maximal],
                         K.vertex_count)


def random_walk(K, labels, seed) -> tuple:
    """``labels`` after 4n seeded single-vertex +-1 moves, each kept only
    if it stays valid."""
    rng, labels = random.Random(seed), list(labels)
    for _ in range(4 * K.vertex_count):
        v = rng.randrange(K.vertex_count)
        new = labels[v] + rng.choice((-1, 1))
        if all(abs(new - labels[w]) <= 1 for w in K.adjacency[v]):
            labels[v] = new
    return tuple(labels)


def rooted_at(K, v):
    """``K`` with the ids of vertices 0 and ``v`` exchanged."""
    perm = list(range(K.vertex_count))
    perm[0], perm[v] = v, 0
    return build_complex([[perm[u] for u in s] for s in K.maximal],
                         K.vertex_count)


def moore_space():
    """The presentation complex of <a | a^3>: wedge vertices 0..2, ring
    3..11 and cone 12."""
    return presentation_complex(1, [parse_relator("aaa", 1)])


def projective_plane():
    """The 6-vertex real projective plane: H1 is Z/2, so betti1 is 1 over
    F_2 and 0 over Q and odd fields."""
    return build_complex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                          (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4),
                          (2, 4, 5), (1, 3, 5)], 6)


def moebius_torus():
    """The 7-vertex torus of Moebius: triangles (i, i+1, i+3) and
    (i, i+2, i+3) mod 7; its 1-skeleton is the complete graph."""
    return build_complex([(i, (i + d) % 7, (i + 3) % 7)
                          for i in range(7) for d in (1, 2)], 7)


def mask_of(vertices) -> int:
    """The bitmask of a vertex collection (bit v is vertex v)."""
    return sum(1 << v for v in set(vertices))


def members(mask: int) -> frozenset:
    """The vertices of a bitmask."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def oracle_rank(M, F: FieldSpec) -> int:
    """Exact matrix rank via sympy, independent of the package echelon."""
    if not M or not M[0]:
        return 0
    domain = QQ if F.p is None else GF(F.p)
    return DomainMatrix.from_list([list(r) for r in M], ZZ) \
        .convert_to(domain).rank()


def _boundary_columns(K):
    """Ambient d2 columns (one per triangle) in edge coordinates."""
    edges = K.edges
    eidx = {e: j for j, e in enumerate(edges)}
    cols = []
    for (a, b, c) in (s for s in K.simplices if len(s) == 3):
        col = [0] * len(edges)
        col[eidx[(b, c)]] += 1
        col[eidx[(a, c)]] -= 1
        col[eidx[(a, b)]] += 1
        cols.append(col)
    return cols


def oracle_betti1(K, F: FieldSpec) -> int:
    """dim H1 from dense boundary matrices ranked by sympy."""
    return len(K.edges) - oracle_rank_d1(K, F) - oracle_rank_d2(K, F)


def oracle_rank_d1(K, F: FieldSpec) -> int:
    """Rank of the ambient d1 (edges to vertices), ranked by sympy."""
    edges = K.edges
    d1 = [[0] * len(edges) for _ in range(K.vertex_count)]
    for j, (a, b) in enumerate(edges):
        d1[a][j] = -1
        d1[b][j] = 1
    return oracle_rank(d1, F) if edges else 0


@lru_cache(maxsize=64)
def oracle_rank_d2(K, F: FieldSpec) -> int:
    """Rank of the ambient d2 (triangles to edges), ranked by sympy once
    per complex and field: both are frozen dataclasses, so they are
    hashed by value."""
    return oracle_rank([list(r) for r in zip(*_boundary_columns(K))], F)


def oracle_image_rank(K, vertex_set, F: FieldSpec) -> int:
    """rank im(H1(full subcomplex on vertex_set) -> H1(K)), all sympy.

    Z1 of the subcomplex comes from the sympy nullspace of its vertex/edge
    boundary map; the image rank is rank([d2 | Z1]) - rank(d2) in ambient
    edge coordinates.
    """
    vs = set(vertex_set)
    edges = K.edges
    eidx = {e: j for j, e in enumerate(edges)}
    sub_edges = [e for e in edges if e[0] in vs and e[1] in vs]
    if not sub_edges:
        return 0
    verts = sorted(vs)
    vidx = {v: i for i, v in enumerate(verts)}
    d1c = [[0] * len(sub_edges) for _ in verts]
    for j, (a, b) in enumerate(sub_edges):
        d1c[vidx[a]][j] = -1
        d1c[vidx[b]][j] = 1
    null = Matrix(d1c).nullspace()
    if not null:
        return 0
    cols = _boundary_columns(K)
    for vec in null:
        denom = 1
        for x in vec:
            denom = denom * x.q // math.gcd(denom, x.q)
        col = [0] * len(edges)
        for j, e in enumerate(sub_edges):
            col[eidx[e]] = int(vec[j] * denom)
        cols.append(col)
    r_all = oracle_rank([list(r) for r in zip(*cols)], F)
    return r_all - oracle_rank_d2(K, F)


def oracle_cup_is_nonzero(K, F: FieldSpec, rank) -> bool:
    """Whether two classes of H^1(K; F) have a nonzero cup product, from
    dense matrices, with ``rank`` ranking a list of rows over F.  The
    cocycles are sympy's nullspace of delta^1, kept while independent
    modulo the coboundaries of the vertices; alpha u beta is
    alpha(a b) * beta(b c) on each triangle (a, b, c), a < b < c, and is
    nonzero in H^2 when it raises the rank of the image of delta^1."""
    edges = K.edges
    eidx = {e: j for j, e in enumerate(edges)}
    triangles = [s for s in K.simplices if len(s) == 3]
    if not triangles:
        return False
    delta1 = [[0] * len(edges) for _ in triangles]
    for row, (a, b, c) in zip(delta1, triangles):
        row[eidx[(b, c)]] += 1
        row[eidx[(a, c)]] -= 1
        row[eidx[(a, b)]] += 1
    domain = QQ if F.p is None else GF(F.p)
    null = DomainMatrix.from_list(delta1, ZZ).convert_to(domain) \
        .nullspace().to_Matrix()
    basis = [[(v == b) - (v == a) for a, b in edges]
             for v in range(K.vertex_count)]
    cocycles = []
    for r in range(null.rows):
        row = list(null.row(r))
        denom = math.lcm(*(Rational(x).q for x in row))
        z = [int(x * denom) for x in row]
        if rank(basis + [z]) > rank(basis):
            basis.append(z)
            cocycles.append(z)
    image = [list(col) for col in zip(*delta1)]
    least = rank(image)
    return any(rank(image + [[alpha[eidx[(a, b)]] * beta[eidx[(b, c)]]
                              for a, b, c in triangles]]) > least
               for p, alpha in enumerate(cocycles) for beta in cocycles[p:])


@st.composite
def small_complexes(draw, max_vertices=7, connected=False, min_vertices=1):
    """Random face-closed complexes on ``min_vertices`` to ``max_vertices``
    vertices."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    simplex = st.lists(st.integers(min_value=0, max_value=n - 1),
                       min_size=1, max_size=3, unique=True)
    maximal = draw(st.lists(simplex, min_size=0, max_size=8))
    if connected and n > 1:
        maximal = maximal + [(v, v + 1) for v in range(n - 1)]
    return build_complex(maximal, n)


@st.composite
def labeled_circles(draw, min_m=4, max_m=9):
    """A simplicial circle together with a random valid labeling: a closed
    +-1/0 walk around the cycle."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    steps = draw(st.lists(st.sampled_from([-1, 0, 1]),
                          min_size=m - 1, max_size=m - 1))
    labels = [0]
    for s in steps:
        labels.append(labels[-1] + s)
    assume(abs(labels[-1] - labels[0]) <= 1)
    return generate_circle(m), MorseLabeling(tuple(labels))


@pytest.fixture(scope="session")
def rationals():
    return FieldSpec.rationals()
