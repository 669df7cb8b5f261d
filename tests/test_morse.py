"""Labelings, slabs, levels, quotient graphs and the width value."""
import random

import pytest
from hypothesis import given, strategies as st

from hcwr import (FieldSpec, H1Calculator, betti1, build_complex,
                  constant_labeling, generate_circle, generate_torus,
                  hcwr_value, labeled_torus, product_complex,
                  pullback_labeling, qf_betti1, quotient_graph,
                  slab_components, tent_labeling, validate_labeling)
from hcwr.generators import circle_tent_labeling
from hcwr.morse import (InvalidLabeling, MorseLabeling, NotConnected,
                        slab_profile)

from conftest import labeled_circles, small_complexes

Q = FieldSpec.rationals()


def test_validate_flags_wide_simplices():
    K = build_complex([(0, 1, 2)], 3)
    bad = validate_labeling(K, MorseLabeling((0, 1, 2)))
    assert (0, 2) in bad and (0, 1, 2) in bad
    assert validate_labeling(K, MorseLabeling((0, 1, 1))) == []


@given(small_complexes(), st.data())
def test_validate_matches_full_scan(K, data):
    f = MorseLabeling(data.draw(st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=K.vertex_count, max_size=K.vertex_count)))
    assert validate_labeling(K, f) == sorted(
        s for s in K.simplices if max(f[v] for v in s) - min(f[v] for v in s) > 1)


def test_validate_length_mismatch():
    K = generate_circle(4)
    with pytest.raises(ValueError):
        validate_labeling(K, MorseLabeling((0, 1)))


def test_hexagon_tent_decomposition():
    K = generate_circle(6)
    f = circle_tent_labeling(6)
    assert f.labels == (0, 1, 2, 3, 2, 1)
    assert slab_components(K, f.labels, 0) == [frozenset({0, 1, 5})]
    levels = {i: [e.members for e in quotient_graph(K, f).q_edges
                  if e.level_index == i] for i in range(4)}
    assert levels[1] == [frozenset({1}), frozenset({5})]
    assert levels[3] == [frozenset({3})]
    # two arcs meet in the middle slab
    assert slab_components(K, f.labels, 1) == [frozenset({1, 2}),
                                                 frozenset({4, 5})]


def test_hexagon_tent_quotient_graph():
    K = generate_circle(6)
    f = circle_tent_labeling(6)
    G = quotient_graph(K, f)
    assert G.vertex_count == 6  # slabs -1..3: 1,1,2,1,1 components
    assert G.edge_count == 6    # levels 0..3: 1,2,2,1 components
    assert qf_betti1(G) == 1    # the quotient is a circle
    rep = hcwr_value(K, f, Q)
    assert rep.max_rank == 0
    assert rep.qf_class == "circle"


def test_constant_labeling_single_slab():
    K = generate_circle(5)
    rep = hcwr_value(K, constant_labeling(K), Q)
    assert rep.max_rank == betti1(K, Q) == 1
    assert rep.qf_vertex_count == 2  # slab -1 and slab 0, both the whole K
    assert rep.qf_class == "tree"


def test_torus_tent_report_shape():
    L = labeled_torus(2, 4)
    rep = hcwr_value(L.complex, L.labeling, Q)
    assert rep.max_rank == 1
    assert rep.qf_betti1 == 1 and rep.qf_class == "circle"
    doc = rep.to_json()
    assert doc["field"] == "Q"
    assert doc["qf"] == {"vertices": rep.qf_vertex_count,
                         "edges": rep.qf_edge_count,
                         "betti1": 1, "class": "circle"}
    assert all(set(s) == {"i", "component", "size", "rank"}
               for s in doc["slabs"])
    assert max(s["rank"] for s in doc["slabs"]) == 1


def test_invalid_labeling_raises():
    K = generate_circle(4)
    with pytest.raises(InvalidLabeling):
        quotient_graph(K, MorseLabeling((0, 2, 0, 0)))


def test_disconnected_complex_rejected():
    K = build_complex([(0, 1), (2, 3)], 4)
    with pytest.raises(NotConnected):
        quotient_graph(K, constant_labeling(K))


@given(labeled_circles())
def test_quotient_incidence(pair):
    K, f = pair
    G = quotient_graph(K, f)
    # every level-i component joins a slab-(i-1) vertex to a slab-i vertex
    for e in G.q_edges:
        left, right = e.endpoints
        assert G.q_vertices[left].slab_index == e.level_index - 1
        assert G.q_vertices[right].slab_index == e.level_index
        assert e.members <= G.q_vertices[left].members
        assert e.members <= G.q_vertices[right].members
    # connected K gives a connected quotient: b1 = E - V + 1
    assert qf_betti1(G) == G.edge_count - G.vertex_count + 1
    # boundary slabs (min-1 and max) are leaves
    degree = [0] * G.vertex_count
    for e in G.q_edges:
        degree[e.endpoints[0]] += 1
        degree[e.endpoints[1]] += 1
    for i, qv in enumerate(G.q_vertices):
        if qv.slab_index in (f.min - 1, f.max):
            assert degree[i] == 1


@given(labeled_circles())
def test_hcwr_translation_and_reflection_invariant(pair):
    K, f = pair
    base = hcwr_value(K, f, Q).max_rank
    assert hcwr_value(K, f.shifted(7), Q).max_rank == base
    assert hcwr_value(K, f.shifted(-3), Q).max_rank == base
    assert hcwr_value(K, f.reflected(), Q).max_rank == base


@given(labeled_circles())
def test_hcwr_bounded_by_betti1(pair):
    K, f = pair
    assert 0 <= hcwr_value(K, f, Q).max_rank <= betti1(K, Q)


@given(labeled_circles())
def test_slab_profile_max_equals_report_on_circles(pair):
    # the search objective skips boundary slabs; the report does not
    K, f = pair
    calc = H1Calculator(K, Q)
    assert slab_profile(calc, f.labels)[0] == hcwr_value(K, f, Q, calc).max_rank


def _walk_labelings(K, start, seed, steps=40, every=2):
    """``start``, then snapshots of a seeded random walk of valid
    single-vertex +-1 moves away from it."""
    rng = random.Random(seed)
    labels = list(start.labels)
    yield start
    for step in range(1, steps + 1):
        v = rng.randrange(K.vertex_count)
        new = labels[v] + rng.choice((-1, 1))
        if all(abs(new - labels[w]) <= 1 for w in K.adjacency[v]):
            labels[v] = new
        if step % every == 0:
            yield MorseLabeling(tuple(labels))


@pytest.mark.parametrize("K, start", [
    (generate_torus(2, 4), tent_labeling(2, 4)),
    (generate_torus(3, 4), tent_labeling(3, 4)),
    (product_complex(generate_circle(4), generate_circle(6)),
     pullback_labeling(circle_tent_labeling(4), 6)),
], ids=["torus(2,4)", "torus(3,4)", "circle(4)xcircle(6)"])
def test_slab_profile_max_equals_report_on_walks(K, start):
    # walks from a width-minimal family labeling reach ranks below betti1
    calc = H1Calculator(K, Q)
    for seed in range(2):
        for f in _walk_labelings(K, start, seed):
            assert slab_profile(calc, f.labels)[0] == \
                hcwr_value(K, f, Q, calc).max_rank
