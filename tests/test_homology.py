"""Exact rank, boundary maps and H1-image ranks, cross-checked against a
fully independent sympy oracle."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hcwr import (FieldSpec, H1Calculator, betti1, boundary, build_complex,
                  generate_circle, generate_torus, presentation_complex,
                  product_complex)
from hcwr.complexes import connected_components
from hcwr.generators import parse_relator
from hcwr.homology import Echelon

from conftest import (oracle_betti1, oracle_image_rank, oracle_rank,
                      small_complexes)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("Q") == Q
        assert FieldSpec.parse("F3") == F3
        assert FieldSpec.parse("Fp:5") == FieldSpec.prime(5)
        assert F3.label == "Fp:3"
        assert Q.label == "Q"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FieldSpec.parse("R")
        with pytest.raises(ValueError):
            FieldSpec.parse("F4")  # 4 is not prime
        with pytest.raises(ValueError):
            FieldSpec.prime(6)


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


@given(matrices, st.sampled_from([Q, F2, F3]))
def test_rank_matches_sympy(M, F):
    assert echelon_rank(M, F) == oracle_rank(M, F)


@given(matrices, st.sampled_from([Q, F2, F3]))
def test_echelon_add_counts_rank_growth(M, F):
    ech = Echelon(F)
    grew = sum(ech.add({j: x for j, x in enumerate(row) if x}) for row in M)
    assert grew == ech.rank


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
            frozenset(range(K.vertex_count))) == calc.betti1 == 2

    def test_contractible_subcomplex(self):
        calc = H1Calculator(generate_circle(6), Q)
        assert calc.image_rank_of_vertices(frozenset({0, 1, 2})) == 0  # an arc

    @given(st.data())
    def test_matches_sympy_on_torus_subsets(self, data):
        K = generate_torus(2, 3)
        calc = H1Calculator(K, Q)
        vs = data.draw(st.sets(st.integers(min_value=0, max_value=8),
                               max_size=9))
        assert calc.image_rank_of_vertices(frozenset(vs)) == \
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
        assert calc.image_rank_of_vertices(frozenset(small)) <= \
            calc.image_rank_of_vertices(frozenset(big))


def test_query_order_does_not_change_answers():
    K = generate_torus(2, 4)
    rng = random.Random(3)
    sets = [frozenset(v for v in range(K.vertex_count) if rng.random() < 0.6)
            for _ in range(40)]
    forward = H1Calculator(K, Q)
    backward = H1Calculator(K, Q)
    ranks = [forward.image_rank_of_vertices(vs) for vs in sets]
    assert ranks == [backward.image_rank_of_vertices(vs)
                     for vs in reversed(sets)][::-1]


# torus, product and torsion: <a|a^3> has betti1 0 over Q and F_2, 1 over F_3
ANNOTATION_CASES = {
    "torus(2,3)": generate_torus(2, 3),
    "circle(4)xcircle(5)": product_complex(generate_circle(4),
                                           generate_circle(5)),
    "<a|a^3>": presentation_complex(1, [parse_relator("aaa", 1)]),
}


@pytest.mark.parametrize("F", [Q, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
@settings(max_examples=10)
@given(data=st.data())
def test_annotation_kernel_matches_sympy(name, F, data):
    K = ANNOTATION_CASES[name]
    calc = H1Calculator(K, F)
    vs = data.draw(st.sets(st.integers(min_value=0,
                                       max_value=K.vertex_count - 1)))
    assert calc.image_rank_of_vertices(frozenset(vs)) == \
        oracle_image_rank(K, vs, F)
    assert calc.image_rank_of_vertices(frozenset()) == 0


def test_torsion_betti1_depends_on_field():
    K = ANNOTATION_CASES["<a|a^3>"]
    everything = frozenset(range(K.vertex_count))
    for F, b in ((Q, 0), (F2, 0), (F3, 1)):
        calc = H1Calculator(K, F)
        assert calc.betti1 == oracle_betti1(K, F) == b
        assert calc.image_rank_of_vertices(everything) == b


@pytest.mark.parametrize("F", [Q, F2], ids=["Q", "F2"])
def test_image_rank_of_disconnected_set(F):
    # two disjoint {u} x circle(5) slices carry the same class: rank 1
    K = ANNOTATION_CASES["circle(4)xcircle(5)"]
    vs = {v for v in range(20) if v // 5 in (0, 2)}
    assert H1Calculator(K, F).image_rank_of_vertices(frozenset(vs)) == \
        oracle_image_rank(K, vs, F) == 1


@given(small_complexes(), small_complexes(), st.sampled_from([Q, F2, F3]))
def test_betti1_of_disjoint_union(K1, K2, F):
    n1 = K1.vertex_count
    union = build_complex(
        list(K1.simplices) + [[v + n1 for v in s] for s in K2.simplices],
        n1 + K2.vertex_count)
    calc = H1Calculator(union, F)
    assert calc.betti1 == oracle_betti1(union, F) == \
        betti1(K1, F) + betti1(K2, F)
    assert calc.rank_d1 == union.vertex_count - len(
        connected_components(union))
