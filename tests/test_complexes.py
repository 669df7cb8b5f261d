"""Complex construction, induced subcomplexes, components and the root
orbit."""
import time

import pytest
from hypothesis import given, settings, strategies as st
from itertools import chain, combinations, repeat

from hcwr import (FieldSpec, H1Calculator, boundary, build_complex,
                  connected_components, constant_labeling,
                  euler_characteristic, generate_circle, generate_torus,
                  hcwr_value, induced_subcomplex, labeled_torus,
                  maximal_simplices, product_complex, validate_labeling,
                  wedge)
from hcwr import complexes
from hcwr.complexes import components, root_orbit
from hcwr.scx import read_scx, write_scx

from conftest import (mask_of, members, moore_space, relabelled, rooted_at,
                      small_complexes)


def test_build_triangle():
    K = build_complex([(0, 1, 2)], 3)
    assert K.vertex_count == 3
    assert K.dim == 2
    assert K.edges == ((0, 1), (0, 2), (1, 2))
    assert (1, 2) in K.simplices
    assert (2, 1) not in K.simplices  # simplices are sorted tuples


def test_build_keeps_isolated_vertices():
    K = build_complex([(0, 1)], 4)
    assert (2,) in K.simplices and (3,) in K.simplices
    assert len(connected_components(K)) == 3


def test_degenerate_simplex_rejected():
    with pytest.raises(ValueError, match="repeated vertex"):
        build_complex([(0, 0)], 2)


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError, match="has a vertex outside"):
        build_complex([(0, 5)], 3)
    with pytest.raises(ValueError, match="has a vertex outside"):
        build_complex([(-1, 0)], 3)


def test_face_limit_stops_at_first_simplex_over_it():
    # an endless stream: only a count kept while reading can stop it
    simplices = chain([(0, 1)], repeat(tuple(range(23))))
    with pytest.raises(ValueError, match="maximal_simplices"):
        build_complex(simplices, 23)


@st.composite
def simplex_lists(draw):
    """(simplices, vertex_count): random simplices in random vertex order,
    mixed with faces of them, repeats, singletons and empty tuples."""
    n = draw(st.integers(min_value=0, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    given_ = draw(st.lists(st.lists(vertex, min_size=2, max_size=4,
                                    unique=True),
                           max_size=6)) if n > 1 else []
    faces = [list(f) for s in given_ for r in range(1, len(s))
             for f in combinations(s, r)]
    extra = draw(st.lists(st.sampled_from(faces), max_size=6)) \
        if faces else []
    singletons = [[v] for v in draw(st.lists(vertex, max_size=4))] \
        if n else []
    repeats = [s[::-1] for s in draw(st.lists(st.sampled_from(given_),
                                              max_size=3))] \
        if given_ else []
    empties = [[]] * draw(st.integers(min_value=0, max_value=2))
    simplices = draw(st.permutations(given_ + extra + singletons + repeats
                                     + empties))
    return simplices, n


@given(simplex_lists())
def test_maximal_simplices_match_a_brute_force_filter(case):
    simplices, n = case
    given_ = {tuple(sorted(s)) for s in simplices if s}
    given_ |= {(v,) for v in range(n)}
    maximal = sorted(s for s in given_
                     if not any(set(s) < set(t) for t in given_))
    assert build_complex(simplices, n).maximal == tuple(maximal)


def check_cone_triangles(K):
    """Each row of ``cone_triangles`` is the faces of a triangle
    (min s, a, b) of a maximal simplex s in the order of ``boundary``,
    each such triangle has one row, and the rows reach every edge of a
    simplex on 3 or more vertices."""
    rows = K.cone_triangles
    assert len(set(rows)) == len(rows)
    cones = {(s[0], a, b) for s in K.maximal
             for a, b in combinations(s[1:], 2)}
    triangles = []
    for row in rows:
        t = tuple(sorted({v for i in row for v in K.edges[i]}))
        assert [K.edges[i] for i in row] == [f for f, _ in boundary(t)]
        triangles.append(t)
    assert set(triangles) == cones and len(triangles) == len(cones)
    reached = {K.edges[i] for row in rows for i in row}
    assert reached == {e for s in K.maximal if len(s) > 2
                       for e in combinations(s, 2)}


@given(simplex_lists())
def test_cone_triangles_are_the_faces_of_the_boundary(case):
    # simplices of up to 4 vertices, which share some cone triangles
    check_cone_triangles(build_complex(*case))


def test_cone_triangles_of_a_relabelled_torus():
    check_cone_triangles(relabelled(generate_torus(3, 3), 7))


def test_cone_triangles_of_a_simplex():
    # the triangles at vertex 0: C(20, 2) of the C(21, 3) = 1330
    K = build_complex([range(21)], 21)
    check_cone_triangles(K)
    assert len(K.cone_triangles) == 190


@given(simplex_lists(), st.randoms(use_true_random=False))
def test_build_ignores_the_order_and_repeats_of_its_input(case, rng):
    simplices, n = case
    shuffled = [rng.sample(s, len(s)) for s in simplices]
    shuffled += rng.choices(shuffled, k=rng.randrange(3)) if shuffled else []
    rng.shuffle(shuffled)
    assert build_complex(shuffled, n) == build_complex(simplices, n)


@given(small_complexes())
def test_face_closure(K):
    for s in K.simplices:
        for r in range(1, len(s)):
            for face in combinations(s, r):
                assert face in K.simplices
    for v in range(K.vertex_count):
        assert (v,) in K.simplices


def test_build_drops_given_faces():
    K = build_complex([(0, 1), (0, 1, 2), (1, 2)], 5)
    assert K.maximal == ((0, 1, 2), (3,), (4,))


@given(small_complexes())
def test_skeleta_come_from_maximal_simplices(K):
    closure = {f for s in K.maximal for r in range(1, len(s) + 1)
               for f in combinations(s, r)}
    assert K.simplices == closure
    assert not any(set(s) < set(t) for s in K.maximal for t in K.maximal)
    assert K.edges == tuple(sorted(s for s in closure if len(s) == 2))


def test_width_of_a_simplex_never_builds_its_closure():
    # 2^21 - 1 faces, of which the analysis reads 210 edges and the 190
    # cone triangles at vertex 0
    K = build_complex([range(21)], 21)
    assert hcwr_value(K, constant_labeling(K),
                      FieldSpec.rationals()).max_rank == 0
    assert "simplices" not in vars(K)


def test_width_report_never_builds_the_adjacency_sets(tmp_path):
    # what `hcwr analyze` reads: neighbour masks, edges and cone triangles
    L = labeled_torus(2, 5)
    write_scx(tmp_path / "torus.scx", L.complex, L.labeling)
    M, _ = read_scx(tmp_path / "torus.scx")
    K, F = M.complex, FieldSpec.rationals()
    assert not validate_labeling(K, M.labeling)
    calc = H1Calculator(K, F)
    assert hcwr_value(K, M.labeling, F, calc).max_rank == 1
    assert "adjacency" not in vars(K)


@given(small_complexes())
def test_maximal_simplices_regenerate(K):
    assert build_complex(maximal_simplices(K), K.vertex_count) == K


def test_induced_subcomplex():
    K = build_complex([(0, 1, 2), (2, 3)], 4)
    C = induced_subcomplex(K, {0, 1, 3})
    assert C.vertex_set == frozenset({0, 1, 3})
    assert (0, 1) in C.simplices
    assert all(len(s) < 3 for s in C.simplices)
    with pytest.raises(ValueError, match="vertex 9 outside"):
        induced_subcomplex(K, {9})


def test_induced_subcomplex_empty():
    K = build_complex([(0, 1)], 2)
    C = induced_subcomplex(K, set())
    assert C.vertex_count == 0 and not C.simplices


@given(small_complexes())
def test_components_partition_vertices(K):
    comps = [members(c) for c in connected_components(K)]
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(K.vertex_count))
    # sorted by smallest member
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    # no edge leaves a component
    assert all((a in c) == (b in c) for a, b in K.edges for c in comps)


def sorted_search(K, vs):
    """(parents in visiting order, component sets) of a queue search of
    the graph induced on ``vs``, with ascending roots and sorted
    neighbour lists; each root is its own parent."""
    parent, comps = {}, []
    for root in sorted(vs):
        if root not in parent:
            parent[root] = root
            queue = [root]
            for v in queue:
                for w in sorted(K.adjacency[v] & vs):
                    if w not in parent:
                        parent[w] = v
                        queue.append(w)
            comps.append(set(queue))
    return parent, comps


@given(small_complexes(), st.data())
def test_mask_kernels_match_a_sorted_search(K, data):
    vs = data.draw(st.sets(st.integers(min_value=0,
                                       max_value=K.vertex_count - 1)))
    assert [members(c) for c in components(K.neighbours, mask_of(vs))] == \
        sorted_search(K, vs)[1]
    parent, _ = sorted_search(K, set(range(K.vertex_count)))
    assert list(K.forest.items()) == list(parent.items())


def test_forest_is_read_only():
    K = generate_torus(2, 3)
    with pytest.raises(TypeError):
        K.forest[0] = 1
    assert K.forest[0] == 0


def test_euler_characteristic_examples():
    triangle_disk = build_complex([(0, 1, 2)], 3)
    assert euler_characteristic(triangle_disk) == 1  # contractible
    hollow = build_complex([(0, 1), (0, 2), (1, 2)], 3)
    assert euler_characteristic(hollow) == 0  # circle


def brute_force_orbit(K):
    """Mask of the images of vertex 0 under every vertex permutation
    that maps ``K.maximal`` onto itself.

    For each image u of vertex 0, the permutations are tried in id
    order, vertex by vertex; a partial one that does not keep which
    vertex pairs are edges is dropped, since an automorphism keeps
    them."""
    n, adj, maximal = K.vertex_count, K.adjacency, set(K.maximal)
    image = []

    def extend(v):
        if v == n:
            return {tuple(sorted(map(image.__getitem__, s)))
                    for s in maximal} == maximal
        for x in set(range(n)).difference(image):
            if all((w in adj[v]) == (image[w] in adj[x]) for w in range(v)):
                image.append(x)
                if extend(v + 1):
                    return True
                image.pop()
        return False

    orbit = 0
    for u in range(n):
        image[:] = [u]
        if extend(1):
            orbit |= 1 << u
    return orbit


@given(small_complexes(max_vertices=6))
@settings(max_examples=100)
def test_root_orbit_is_the_orbit_of_vertex_0(K):
    assert root_orbit(K) == brute_force_orbit(K)


@pytest.mark.parametrize("K", [
    build_complex([(0, 1, 2, 3), (1, 2, 3, 4)], 5),
    rooted_at(build_complex([(0, 1, 2, 3), (1, 2, 3, 4)], 5), 1),
    *(rooted_at(relabelled(generate_torus(3, 3), 7), v)
      for v in (0, 5, 13, 26)),
], ids=["two tetrahedra", "two tetrahedra at the common face",
        *(f"torus(3,3) at {v}" for v in (0, 5, 13, 26))])
def test_root_orbit_where_maximal_simplices_share_triangles(K):
    assert root_orbit(K) == brute_force_orbit(K)


def with_pendant_path(K, length):
    """``K`` with a path of ``length`` new vertices hung from vertex 0."""
    n = K.vertex_count
    path = [(0, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
    return build_complex(list(K.maximal) + path, n + length)


@pytest.mark.parametrize("K, size", [
    (relabelled(generate_torus(2, 4), 1), 16),
    (rooted_at(moore_space(), 3), 9),
    (moore_space(), 3),
    (rooted_at(moore_space(), 12), 1),
    (product_complex(generate_circle(3), generate_circle(5)), 2),
    (with_pendant_path(relabelled(generate_torus(2, 4), 1), 300), 1),
    # without colour refinement the automorphism search on these two
    # wedges runs into ORBIT_NODE_LIMIT and keeps a smaller subset
    (relabelled(wedge(generate_torus(2, 10), 0,
                      generate_torus(2, 10), 0), 2), 12),
    (relabelled(wedge(generate_torus(3, 4), 0,
                      generate_torus(3, 4), 0), 4), 24),
], ids=["torus(2,4)", "<a|a^3> ring", "<a|a^3> wedge", "<a|a^3> cone",
        "circle(3)xcircle(5)", "torus(2,4)+path", "torus(2,10) wedge",
        "torus(3,4) wedge"])
def test_root_orbit_sizes(K, size):
    orbit = root_orbit(K)
    assert orbit & 1 and bin(orbit).count("1") == size


def test_root_orbit_of_a_pendant_path_vertex_is_vertex_0():
    # refinement gives every path vertex its own colour, so no
    # automorphism is tried, or the node limit stops it first
    K = rooted_at(with_pendant_path(generate_torus(2, 4), 300), 100)
    assert root_orbit(K) == 1


def test_root_orbit_stops_at_the_deadline():
    K = relabelled(generate_torus(2, 4), 1)
    assert root_orbit(K, deadline=time.monotonic() - 1) == 1
    assert root_orbit(K, deadline=time.monotonic() + 60) == (1 << 16) - 1


def test_root_orbit_node_limit_keeps_a_subset_of_the_orbit(monkeypatch):
    K = relabelled(generate_torus(2, 3), 2)
    monkeypatch.setattr(complexes, "ORBIT_NODE_LIMIT", 0)
    assert root_orbit(K) == 1
    # a refinement round counts one node per vertex
    assert root_orbit(rooted_at(moore_space(), 3)) == 1
    monkeypatch.setattr(complexes, "ORBIT_NODE_LIMIT", 12)
    orbit = root_orbit(K)
    assert orbit & 1 and 1 < orbit < (1 << 9) - 1
