"""Complex construction, induced subcomplexes and components."""
import pytest
from hypothesis import given
from itertools import chain, combinations, repeat

from hcwr import (SimplicialComplex, build_complex, connected_components,
                  euler_characteristic, induced_subcomplex,
                  maximal_simplices)
from hcwr.complexes import DegenerateSimplex, VertexOutOfRange

from conftest import small_complexes


def test_build_triangle():
    K = build_complex([(0, 1, 2)], 3)
    assert K.vertex_count == 3
    assert K.dim == 2
    assert K.edges == ((0, 1), (0, 2), (1, 2))
    assert K.triangles == ((0, 1, 2),)
    assert (1, 2) in K
    assert (2, 1) not in K  # membership expects sorted tuples


def test_build_keeps_isolated_vertices():
    K = build_complex([(0, 1)], 4)
    assert (2,) in K.simplices and (3,) in K.simplices
    assert len(connected_components(K)) == 3


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        build_complex([(0, 0)], 2)


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRange):
        build_complex([(0, 5)], 3)
    with pytest.raises(VertexOutOfRange):
        build_complex([(-1, 0)], 3)


def test_face_limit_stops_at_first_simplex_over_it():
    # an endless stream: only a count kept while reading can stop it
    simplices = chain([(0, 1)], repeat(tuple(range(23))))
    with pytest.raises(ValueError, match="maximal_simplices"):
        build_complex(simplices, 23)


@given(small_complexes())
def test_face_closure(K):
    for s in K.simplices:
        for r in range(1, len(s)):
            for face in combinations(s, r):
                assert face in K.simplices
    for v in range(K.vertex_count):
        assert (v,) in K.simplices


@given(small_complexes())
def test_maximal_simplices_regenerate(K):
    assert build_complex(maximal_simplices(K), K.vertex_count) == K


def test_induced_subcomplex():
    K = build_complex([(0, 1, 2), (2, 3)], 4)
    C = induced_subcomplex(K, {0, 1, 3})
    assert C.vertex_set == frozenset({0, 1, 3})
    assert (0, 1) in C.simplices
    assert all(len(s) < 3 for s in C.simplices)
    assert C.vertex_injection == (0, 1, 3)
    with pytest.raises(VertexOutOfRange):
        induced_subcomplex(K, {9})


def test_induced_subcomplex_empty():
    K = build_complex([(0, 1)], 2)
    C = induced_subcomplex(K, set())
    assert C.vertex_count == 0 and not C.simplices


@given(small_complexes())
def test_components_partition_vertices(K):
    comps = connected_components(K)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(K.vertex_count))
    # sorted by smallest member
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


def test_euler_characteristic_examples():
    triangle_disk = build_complex([(0, 1, 2)], 3)
    assert euler_characteristic(triangle_disk) == 1  # contractible
    hollow = SimplicialComplex(3, frozenset(
        {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}))
    assert euler_characteristic(hollow) == 0  # circle
