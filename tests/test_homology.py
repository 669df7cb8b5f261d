"""Exact rank, boundary maps and H1-image ranks, cross-checked against a
fully independent sympy oracle."""
import copy
import random
import re
import time
from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import isprime

from hcwr import (FieldSpec, H1Calculator, betti1, boundary, build_complex,
                  generate_circle, generate_torus, presentation_complex,
                  product_complex)
from hcwr.complexes import connected_components
from hcwr.generators import parse_relator
from hcwr.homology import Echelon, _is_prime

from conftest import (mask_of, oracle_betti1, oracle_image_rank,
                      oracle_rank, relabelled, small_complexes)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)
# F_(2^31 - 1) checks potentials left unreduced far above p
FIELDS = pytest.mark.parametrize(
    "F", [Q, F2, F3, FieldSpec.prime(2147483647)],
    ids=["Q", "F2", "F3", "F2147483647"])


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("Q") == Q
        assert FieldSpec.parse("F3") == F3
        assert FieldSpec.parse("Fp:5") == FieldSpec.prime(5)
        # leading zeros are not digits that int() must read
        assert FieldSpec.parse("F" + "0" * 5000 + "3") == F3
        with pytest.raises(ValueError, match="^0 is not prime$"):
            FieldSpec.parse("Fp:" + "0" * 5000)
        assert F3.label == "Fp:3"
        assert Q.label == "Q"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FieldSpec.parse("R")
        with pytest.raises(ValueError, match="4 is not prime"):
            FieldSpec.parse("F4")
        for text in ("F", "Fp:", "Fx", "F3.0", "Fp:x", "f", "", "F3_1",
                     "F+3", "Fp:-3", "F 3", "F\u0661\u0663"):
            message = re.escape(f"cannot parse field {text!r}")
            with pytest.raises(ValueError, match=message):
                FieldSpec.parse(text)
        with pytest.raises(ValueError):
            FieldSpec.prime(6)

    def test_huge_primes(self):
        t0 = time.monotonic()
        assert FieldSpec.parse("Fp:2305843009213693951").p == 2 ** 61 - 1
        assert time.monotonic() - t0 < 1
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec.prime(561)  # Carmichael: every coprime base lies
        with pytest.raises(ValueError, match="not prime"):
            # a strong pseudoprime to all twelve prime bases up to 37
            FieldSpec.prime(399165290221 * 798330580441)
        with pytest.raises(ValueError, match="limit"):
            FieldSpec.prime(3317044064679887385961981)

    @pytest.mark.parametrize("p", [3.0, 2.0, True, "3"])
    def test_refuses_a_size_that_is_not_an_int(self, p):
        # a float would compute in floating point, True pass as 1
        with pytest.raises(ValueError, match=f"{p!r} is not an int"):
            FieldSpec(p)

    @given(st.one_of(st.integers(min_value=-5, max_value=10 ** 5),
                     st.integers(min_value=2,
                                 max_value=3317044064679887385961980)))
    @settings(max_examples=200)
    def test_primality_matches_sympy(self, p):
        assert _is_prime(p) == isprime(p)


matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda M: len({len(r) for r in M}) == 1)


def echelon_rank(M, F):
    ech = Echelon(F)
    for row in M:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech.rank


def test_rank_depends_on_field():
    # 3 is invertible over Q but vanishes over F_3
    assert echelon_rank([[3]], Q) == 1
    assert echelon_rank([[3]], F3) == 0
    assert echelon_rank([[2, 4], [1, 2]], Q) == 1
    # second row = 2 * first mod 3
    assert echelon_rank([[1, 2], [2, 1]], F3) == 1


def test_echelon_drops_zero_entries_over_q():
    # the callers build vectors without zero entries; one from outside
    # goes through ``FieldSpec.reduce``, which drops them
    ech = Echelon(Q)
    assert ech.add({0: 0, 1: 2})
    assert ech.rows == {1: {1: 1}}
    assert not ech.add({0: 0})


@given(matrices, st.sampled_from([Q, F2, F3, F7]))
def test_rank_matches_sympy(M, F):
    assert echelon_rank(M, F) == oracle_rank(M, F)


@given(matrices, st.sampled_from([Q, F2, F3, F7]))
def test_echelon_add_counts_rank_growth(M, F):
    ech = Echelon(F)
    grew = sum(ech.add({j: x for j, x in enumerate(row) if x}) for row in M)
    assert grew == ech.rank


@given(matrices, st.sampled_from([Q, F2, F3, F7]))
@example([[2, 2]], F3)  # the gcd divides over F_p too: stored as (1, 1)
def test_echelon_rows_are_normalized_multiples(M, F):
    # the fraction-free step stores primitive rows, reduced mod p over
    # F_p, each a multiple of a vector in the span of the rows added
    ech = Echelon(F)
    for row in M:
        ech.add({j: x for j, x in enumerate(row) if x})
    width = len(M[0])
    for c, row in ech.rows.items():
        assert min(row) == c and all(row.values())
        assert gcd(*row.values()) == 1
        if F.p is not None:
            assert all(0 < x < F.p for x in row.values())
    stored = [[row.get(j, 0) for j in range(width)]
              for row in ech.rows.values()]
    assert oracle_rank(M + stored, F) == oracle_rank(M, F) == ech.rank


def test_boundary_orientation():
    assert boundary((0, 1)) == [((1,), 1), ((0,), -1)]
    assert boundary((0, 1, 2)) == [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]


@given(small_complexes())
def test_d1_d2_composes_to_zero(K):
    # the boundary H1Calculator reduces: dd = 0 on every simplex
    for s in K.simplices:
        dd = Counter()
        for face, x in boundary(s):
            for subface, y in boundary(face):
                dd[subface] += x * y
        assert not any(dd.values())


@given(small_complexes(), st.sampled_from([Q, F3]))
def test_betti1_matches_sympy(K, F):
    assert betti1(K, F) == oracle_betti1(K, F)


def test_betti1_known_spaces():
    assert betti1(generate_circle(5), Q) == 1
    assert betti1(generate_torus(2, 4), Q) == 2
    tetra_boundary = build_complex(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 4)
    assert betti1(tetra_boundary, Q) == 0


class TestImageRank:
    def test_whole_complex(self):
        K = generate_torus(2, 3)
        calc = H1Calculator(K, Q)
        assert calc.image_rank_of_vertices(
            (1 << K.vertex_count) - 1) == calc.betti1 == 2

    def test_contractible_subcomplex(self):
        calc = H1Calculator(generate_circle(6), Q)
        assert calc.image_rank_of_vertices(0b111) == 0  # an arc

    @given(st.data())
    def test_matches_sympy_on_torus_subsets(self, data):
        K = generate_torus(2, 3)
        calc = H1Calculator(K, Q)
        vs = data.draw(st.sets(st.integers(min_value=0, max_value=8),
                               max_size=9))
        assert calc.image_rank_of_vertices(mask_of(vs)) == \
            oracle_image_rank(K, vs, Q)

    @given(st.data())
    def test_monotone_under_inclusion(self, data):
        K = generate_torus(2, 3)
        calc = H1Calculator(K, Q)
        small = data.draw(st.sets(st.integers(min_value=0, max_value=8),
                                  max_size=9))
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=8),
                                  max_size=9))
        big = small | extra
        assert calc.image_rank_of_vertices(mask_of(small)) <= \
            calc.image_rank_of_vertices(mask_of(big))


def test_query_order_does_not_change_answers():
    K = generate_torus(2, 4)
    rng = random.Random(3)
    sets = [mask_of(v for v in range(K.vertex_count) if rng.random() < 0.6)
            for _ in range(40)]
    forward = H1Calculator(K, Q)
    backward = H1Calculator(K, Q)
    ranks = [forward.image_rank_of_vertices(vs) for vs in sets]
    assert ranks == [backward.image_rank_of_vertices(vs)
                     for vs in reversed(sets)][::-1]


# torus, product and torsion: <a|a^3> has betti1 0 over Q and F_2, 1 over
# F_3; over F_3 the peeled entries of <a|a^9> outgrow the starting digit
# width, so its peel runs again at a wider one.  At two-bit digits a
# relation of the projective plane <a|a^2> outgrows its edge vectors' width.
# The dunce hat <a|aaa^-1> and the Klein bottle <a,b|aabb> are not
# collapsible, so peeling gets stuck and opens a free coordinate that a
# leftover relation then kills, over every field (dunce hat) or over all
# but F_2 (Klein bottle).  Two Klein-bottle relators leave two relation
# rows over Q and F_3 (betti1 2), so a query reduces against both.
# The 3-dimensional cases are made of tetrahedra, whose triangles that
# miss their smallest vertex the peel never reads; they are relabelled,
# as the benchmark's inputs are, so that vertex falls on varying corners.
ANNOTATION_CASES = {
    "torus(2,3)": generate_torus(2, 3),
    "circle(4)xcircle(5)": product_complex(generate_circle(4),
                                           generate_circle(5)),
    "<a|a^3>": presentation_complex(1, [parse_relator("aaa", 1)]),
    "<a|a^9>": presentation_complex(1, [parse_relator("a" * 9, 1)]),
    "projective plane": presentation_complex(1, [parse_relator("aa", 1)]),
    "dunce hat": presentation_complex(1, [parse_relator("aaA", 1)]),
    "Klein bottle": presentation_complex(2, [parse_relator("aabb", 2)]),
    "<a,b|a^2b^3>": presentation_complex(2, [parse_relator("aabbb", 2)]),
    "<a,b,c,d|a^2b^2,c^2d^2>": presentation_complex(
        4, [parse_relator("aabb", 4), parse_relator("ccdd", 4)]),
    "torus(3,3) relabelled": relabelled(generate_torus(3, 3), 7),
    "circle(3)xtorus(2,3) relabelled": relabelled(
        product_complex(generate_circle(3), generate_torus(2, 3)), 5),
}


@FIELDS
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
@settings(max_examples=10)
@given(data=st.data())
def test_annotation_kernel_matches_sympy(name, F, data):
    K = ANNOTATION_CASES[name]
    calc = H1Calculator(K, F)
    assert calc.betti1 == oracle_betti1(K, F)
    vs = data.draw(st.sets(st.integers(min_value=0,
                                       max_value=K.vertex_count - 1)))
    assert calc.image_rank_of_vertices(mask_of(vs)) == \
        oracle_image_rank(K, vs, F)
    assert calc.image_rank_of_vertices(0) == 0
    assert calc.component_ranks(0) == []


def check_precompute(K, F):
    """The rank of H1 is sympy's, the edge vectors form a cocycle modulo
    the relations, and together they reach every class of H1."""
    calc = H1Calculator(K, F)
    assert calc.betti1 == oracle_betti1(K, F)

    check_cocycle(calc)
    assert calc.image_rank_of_vertices((1 << K.vertex_count) - 1) == \
        calc.betti1


def check_cocycle(calc):
    """The edge vectors sum to zero in F^r modulo the relations around
    every triangle: the sum adds nothing to the relation echelon."""
    vec = calc._vec
    for a, b, c in (s for s in calc.K.simplices if len(s) == 3):
        # vec(a -> b) + vec(b -> c) + vec(c -> a)
        total = vec[a].get(b, 0) + vec[b].get(c, 0) + vec[c].get(a, 0)
        ech = Echelon(calc.field)
        ech.rows.update(calc._relations)
        assert not ech.add(calc._unpack(total))


def check_packing_bound(calc):
    """Every entry e of every packed edge vector has (2n - 1) * |e| below
    2^(w - 1), so a query's sums of up to 2n - 1 of them unpack exactly."""
    n, limit = calc.K.vertex_count, 1 << calc._width - 1
    for row in calc._vec:
        for x in row.values():
            assert all((2 * n - 1) * abs(e) < limit
                       for e in calc._unpack(x).values())


@FIELDS
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
def test_precompute_invariants(name, F):
    check_precompute(ANNOTATION_CASES[name], F)


@FIELDS
@given(K=small_complexes())
def test_precompute_invariants_on_small_complexes(F, K):
    check_precompute(K, F)


@FIELDS
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
def test_annotations_meet_the_packing_bound(name, F):
    check_packing_bound(H1Calculator(ANNOTATION_CASES[name], F))


@FIELDS
@given(K=small_complexes())
def test_annotations_meet_the_packing_bound_on_small_complexes(F, K):
    check_packing_bound(H1Calculator(K, F))


@FIELDS
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
def test_a_peel_at_any_width_is_refused_or_exact(name, F, monkeypatch):
    # a width is refused once an entry could reach 2^(w - 1); any width
    # the peel accepts gives the edge vectors and relations of a wide one
    peel = H1Calculator._peel
    inputs = []

    def spy(self, forest, faces, cofaces, w):
        inputs.append((forest, faces, cofaces))
        return peel(self, forest, faces, cofaces, w)

    monkeypatch.setattr(H1Calculator, "_peel", spy)
    calc = H1Calculator(ANNOTATION_CASES[name], F)

    def peeled(w):
        result = peel(calc, *inputs[0], w)
        if result is None:
            return None
        vec, ech, r = result
        return [calc._unpack(x) for x in vec], ech.rows, r

    wide = peeled(64)
    accepted = [w for w in range(2, 17) if peeled(w) is not None]
    assert accepted and all(peeled(w) == wide for w in accepted)


@pytest.mark.parametrize("F", [Q, F2], ids=["Q", "F2"])
def test_torus_4_4_peels_again_at_a_wider_width(F):
    # an edge vector entry of 3 is too large for the starting width at
    # 256 vertices, so the peel runs twice; too large for the sympy oracle
    K = generate_torus(4, 4)
    calc = H1Calculator(K, F)
    assert calc._width > (2 * K.vertex_count - 1).bit_length() + 2
    assert calc.betti1 == 4
    check_cocycle(calc)
    check_packing_bound(calc)
    assert calc.image_rank_of_vertices((1 << K.vertex_count) - 1) == 4


@FIELDS
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
def test_packing_round_trips_at_the_bound(name, F):
    # entries of size 2^(w-1) - 1, the largest packing keeps apart, in
    # every sign pattern of a few columns, round-trip and add as vectors
    calc = H1Calculator(ANNOTATION_CASES[name], F)
    w = calc._width
    edge = (1 << w - 1) - 1

    def pack(vec):
        return sum(x << w * j for j, x in enumerate(vec))

    rng = random.Random(name)
    vectors = [(0, 0, 0), (edge,) * 4, (-edge,) * 4, (edge, -edge, edge),
               (-edge, 0, edge, -1, 1, 0)]
    vectors += [tuple(rng.choice((-edge, edge, 0, 1, -1))
                      for _ in range(rng.randint(1, 6))) for _ in range(50)]
    for vec in vectors:
        x = pack(vec)
        assert calc._unpack(x) == {j: e for j, e in enumerate(vec) if e}
        assert pack(tuple(-e for e in vec)) == -x
    for u, v in zip(vectors, vectors[1:]):
        # halved, two vectors sum within the bound: adding their ints
        # packs their sum
        n = max(len(u), len(v))
        u, v = (tuple(-(-e // 2) if e < 0 else e // 2 for e in x)
                + (0,) * (n - len(x)) for x in (u, v))
        total = calc._unpack(pack(u) + pack(v))
        assert total == {j: a + b for j, (a, b) in enumerate(zip(u, v))
                         if a + b}


# the BFS paths of circle(3) x circle(13) are up to 7 steps long, so a
# cycle's entries sum many annotations; F_(2^61 - 1) packs the widest
LONG_PATHS = product_complex(generate_circle(3), generate_circle(13))


@pytest.mark.parametrize("F", [Q, F3, FieldSpec.prime(2 ** 61 - 1)],
                         ids=["Q", "F3", "F2305843009213693951"])
@settings(max_examples=8)
@given(data=st.data())
def test_image_rank_on_long_bfs_paths_matches_sympy(F, data):
    K = LONG_PATHS
    vs = data.draw(st.sets(st.integers(min_value=0,
                                       max_value=K.vertex_count - 1),
                           min_size=K.vertex_count // 2))
    assert H1Calculator(K, F).image_rank_of_vertices(mask_of(vs)) == \
        oracle_image_rank(K, vs, F)


def test_torsion_betti1_depends_on_field():
    for name, betti in (("<a|a^3>", {Q: 0, F2: 0, F3: 1}),
                        ("dunce hat", {Q: 0, F2: 0, F3: 0}),
                        ("Klein bottle", {Q: 1, F2: 2, F3: 1})):
        K = ANNOTATION_CASES[name]
        everything = (1 << K.vertex_count) - 1
        for F, b in betti.items():
            calc = H1Calculator(K, F)
            assert calc.betti1 == oracle_betti1(K, F) == b
            assert calc.image_rank_of_vertices(everything) == b


@pytest.mark.parametrize("F", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_loops_a_relation_ties_count_once(F):
    # the loops a and b of <a,b,c,d|a^2b^2,c^2d^2> through the base vertex
    # carry one class over Q and F_3, where a = -b, and two over F_2; in
    # the peel's free coordinates they are independent, so only a query
    # that ranks modulo the relations gets this below betti1
    K = ANNOTATION_CASES["<a,b,c,d|a^2b^2,c^2d^2>"]
    calc = H1Calculator(K, F)
    wedge = {0, 1, 2, 3, 4}
    rank = 2 if F == F2 else 1
    assert calc.image_rank_of_vertices(mask_of(wedge)) == \
        oracle_image_rank(K, wedge, F) == rank
    assert calc.component_ranks(mask_of(wedge)) == [rank]
    assert rank < calc.betti1


@pytest.mark.parametrize("F", [Q, F3], ids=["Q", "F3"])
@pytest.mark.parametrize("name", ["Klein bottle", "<a,b,c,d|a^2b^2,c^2d^2>"])
def test_queries_never_change_the_relation_rows(name, F):
    # every query seeds its echelons with the same relation rows; a query
    # that stored into them would change the ranks of the ones after it
    K = ANNOTATION_CASES[name]
    calc = H1Calculator(K, F)
    rows = copy.deepcopy(calc._relations)
    assert rows
    rng = random.Random(name)
    masks = [rng.getrandbits(K.vertex_count) for _ in range(40)]
    masks.append((1 << K.vertex_count) - 1)
    for mask in masks:
        calc.image_rank_of_vertices(mask)
        calc.component_ranks(mask)
    assert calc._relations == rows


@pytest.mark.parametrize("F", [Q, F2], ids=["Q", "F2"])
def test_image_rank_of_disconnected_set(F):
    # two disjoint {u} x circle(5) slices carry the same class: rank 1,
    # and each slice on its own has rank 1
    K = ANNOTATION_CASES["circle(4)xcircle(5)"]
    vs = {v for v in range(20) if v // 5 in (0, 2)}
    calc = H1Calculator(K, F)
    assert calc.image_rank_of_vertices(mask_of(vs)) == \
        oracle_image_rank(K, vs, F) == 1
    assert calc.component_ranks(mask_of(vs)) == [1, 1]


def split_components(K, vs):
    """The components of the graph K induces on ``vs``, each a sorted
    vertex list, in order of their smallest vertex: a plain DFS."""
    left = set(vs)
    comps = []
    for v in sorted(vs):
        if v not in left:
            continue
        left.discard(v)
        comp, todo = [v], [v]
        while todo:
            for w in K.adjacency[todo.pop()]:
                if w in left:
                    left.discard(w)
                    comp.append(w)
                    todo.append(w)
        comps.append(sorted(comp))
    return comps


@pytest.mark.parametrize("F", [Q, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", ["torus(2,3)", "circle(4)xcircle(5)",
                                  "<a|a^3>", "Klein bottle"])
@settings(max_examples=15)
@given(data=st.data())
def test_component_ranks_match_sympy(name, F, data):
    K = ANNOTATION_CASES[name]
    calc = H1Calculator(K, F)
    n = K.vertex_count
    # sparse masks of the product split into several components
    vs = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                           max_size=data.draw(st.sampled_from([n // 3, n]))))
    comps = split_components(K, vs)
    assert calc.component_ranks(mask_of(vs)) == \
        [oracle_image_rank(K, c, F) for c in comps]
    if len(comps) == 1:
        assert calc.component_ranks(mask_of(vs)) == \
            [calc.image_rank_of_vertices(mask_of(vs))]


@given(small_complexes(), small_complexes(), st.sampled_from([Q, F2, F3]))
def test_betti1_of_disjoint_union(K1, K2, F):
    n1 = K1.vertex_count
    union = build_complex(
        list(K1.simplices) + [[v + n1 for v in s] for s in K2.simplices],
        n1 + K2.vertex_count)
    calc = H1Calculator(union, F)
    assert calc.betti1 == oracle_betti1(union, F) == \
        betti1(K1, F) + betti1(K2, F)
    assert sum(v == p for v, p in union.forest.items()) == len(
        connected_components(union))
