"""Labelings, slabs, levels, quotient graphs and the width value."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from hcwr import (FieldSpec, H1Calculator, betti1, build_complex,
                  constant_labeling, generate_circle, generate_torus,
                  hcwr_value, labeled_torus, presentation_complex,
                  product_complex, pullback_labeling, quotient_graph,
                  tent_labeling, validate_labeling)
from hcwr.generators import circle_tent_labeling, parse_relator
from hcwr.morse import (InvalidLabeling, MorseLabeling, level_masks,
                        slab_masks, slab_profile, slab_state)

from conftest import (labeled_circles, mask_of, members, oracle_image_rank,
                      small_complexes)

Q = FieldSpec.rationals()


def test_validate_flags_wide_simplices():
    K = build_complex([(0, 1, 2)], 3)
    bad = validate_labeling(K, MorseLabeling((0, 1, 2)))
    assert bad == [(0, 2)]
    assert validate_labeling(K, MorseLabeling((0, 1, 1))) == []


@given(small_complexes(), st.data())
def test_validate_matches_full_scan(K, data):
    # a simplex of the face closure spans more than one step iff it
    # contains a returned edge
    f = MorseLabeling(data.draw(st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=K.vertex_count, max_size=K.vertex_count)))
    bad = validate_labeling(K, f)
    assert bad == sorted(bad) and set(bad) <= set(K.edges)
    for s in K.simplices:
        wide = max(f[v] for v in s) - min(f[v] for v in s) > 1
        assert wide == any(a in s and b in s for a, b in bad)


def test_validate_length_mismatch():
    K = generate_circle(4)
    with pytest.raises(ValueError):
        validate_labeling(K, MorseLabeling((0, 1)))


def test_hexagon_tent_decomposition():
    K = generate_circle(6)
    f = circle_tent_labeling(6)
    assert f.labels == (0, 1, 2, 3, 2, 1)
    G = quotient_graph(K, f)
    assert sorted(G.slabs) == [-1, 0, 1, 2, 3]
    assert sorted(G.levels) == [0, 1, 2, 3]
    assert list(map(members, G.slabs[0])) == [{0, 1, 5}]
    assert list(map(members, G.levels[1])) == [{1}, {5}]
    assert list(map(members, G.levels[3])) == [{3}]
    # two arcs meet in the middle slab
    assert list(map(members, G.slabs[1])) == [{1, 2}, {4, 5}]


def test_hexagon_tent_quotient_graph():
    K = generate_circle(6)
    f = circle_tent_labeling(6)
    rep = hcwr_value(K, f, Q)
    assert rep.qf["vertices"] == 6  # slabs -1..3: 1,1,2,1,1 components
    assert rep.qf["edges"] == 6     # levels 0..3: 1,2,2,1 components
    assert rep.qf["betti1"] == 1    # the quotient is a circle
    assert rep.max_rank == 0
    assert rep.qf["class"] == "circle"


def test_constant_labeling_single_slab():
    K = generate_circle(5)
    rep = hcwr_value(K, constant_labeling(K), Q)
    assert rep.max_rank == betti1(K, Q) == 1
    assert rep.qf["vertices"] == 2  # slab -1 and slab 0, both the whole K
    assert rep.qf["class"] == "tree"


def test_torus_tent_report_shape():
    L = labeled_torus(2, 4)
    rep = hcwr_value(L.complex, L.labeling, Q)
    assert rep.max_rank == 1
    doc = rep.to_json()
    assert doc["field"] == "Q"
    assert doc["qf"] == {"vertices": 4, "edges": 4, "betti1": 1,
                         "class": "circle"}
    assert all(set(s) == {"i", "component", "size", "rank"}
               for s in doc["slabs"])
    assert max(s["rank"] for s in doc["slabs"]) == 1


def test_hcwr_value_refuses_a_calculator_of_another_field_or_complex():
    # over Q the constant labeling of <a | a^3> would read 0, not 1
    P = presentation_complex(1, [parse_relator("aaa", 1)])
    F3 = FieldSpec.prime(3)
    f = constant_labeling(P)
    assert hcwr_value(P, f, F3).max_rank == 1
    with pytest.raises(ValueError, match="Fp:3"):
        hcwr_value(P, f, F3, H1Calculator(P, Q))
    # torus(2,4) has 16 vertices too: its ranks would read 0 here
    C = generate_circle(16)
    with pytest.raises(ValueError, match="not one of this complex"):
        hcwr_value(C, circle_tent_labeling(16), Q,
                   H1Calculator(generate_torus(2, 4), Q))
    # a calculator of an equal complex over an equal field will do
    equal = build_complex(P.maximal, P.vertex_count)
    assert equal is not P
    calc = H1Calculator(equal, FieldSpec.parse("F3"))
    assert hcwr_value(P, f, F3, calc).max_rank == 1


def test_invalid_labeling_raises():
    K = generate_circle(4)
    with pytest.raises(InvalidLabeling):
        quotient_graph(K, MorseLabeling((0, 2, 0, 0)))


def test_disconnected_complex_rejected():
    K = build_complex([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError, match="requires a connected complex"):
        quotient_graph(K, constant_labeling(K))


@given(labeled_circles())
def test_quotient_incidence(pair):
    K, f = pair
    G = quotient_graph(K, f)
    lo, hi = min(f.labels), max(f.labels)
    assert sorted(G.slabs) == list(range(lo - 1, hi + 1))
    assert sorted(G.levels) == list(range(lo, hi + 1))

    def inside(part, wholes):
        return sum(part & ~whole == 0 for whole in wholes)

    # every level-i component (an edge) lies inside exactly one component
    # of slab i - 1 and exactly one of slab i (its ends)
    for i, comps in G.levels.items():
        for comp in comps:
            assert inside(comp, G.slabs[i - 1]) == 1
            assert inside(comp, G.slabs[i]) == 1
    # boundary slabs (min - 1 and max) are leaves: each of their
    # components holds exactly one level component
    for j, i in ((lo - 1, lo), (hi, hi)):
        for comp in G.slabs[j]:
            assert sum(inside(e, [comp]) for e in G.levels[i]) == 1
    # connected K gives a connected quotient: b1 = E - V + 1
    V = sum(len(comps) for comps in G.slabs.values())
    E = sum(len(comps) for comps in G.levels.values())
    assert hcwr_value(K, f, Q).qf["betti1"] == E - V + 1


@given(labeled_circles())
def test_hcwr_translation_and_reflection_invariant(pair):
    K, f = pair
    base = hcwr_value(K, f, Q).max_rank
    for c in (7, -3):
        shifted = MorseLabeling(tuple(l + c for l in f.labels))
        assert hcwr_value(K, shifted, Q).max_rank == base
    reflected = MorseLabeling(tuple(-l for l in f.labels))
    assert hcwr_value(K, reflected, Q).max_rank == base


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


def _slab_components(K, labels, i, span=(0, 1)):
    """Vertex sets of the components of slab ``i`` (of level ``i`` when
    ``span`` is ``(0,)``), in order of smallest vertex, found by a search
    of its own over ``K.edges``, independent of the library's kernel."""
    slab = {v for v, l in enumerate(labels) if l - i in span}
    comps = []
    for root in sorted(slab):
        if any(root in c for c in comps):
            continue
        comp = {root}
        grew = True
        while grew:
            grew = False
            for a, b in K.edges:
                if (a in comp) != (b in comp) and {a, b} <= slab:
                    comp |= {a, b}
                    grew = True
        comps.append(comp)
    return comps


def _reference_report(K, labels, F):
    """The whole ``hcwr_value(...).to_json()`` document, every rank from
    ``oracle_image_rank`` and every component from ``_slab_components``."""
    lo, hi = min(labels), max(labels)
    slabs = [{"i": i, "component": cid, "size": len(comp),
              "rank": oracle_image_rank(K, comp, F)}
             for i in range(lo - 1, hi + 1)
             for cid, comp in enumerate(_slab_components(K, labels, i))]
    edges = sum(len(_slab_components(K, labels, i, span=(0,)))
                for i in range(lo, hi + 1))
    b1 = edges - len(slabs) + 1
    return {"field": F.label, "max_rank": max(s["rank"] for s in slabs),
            "qf": {"vertices": len(slabs), "edges": edges, "betti1": b1,
                   "class": {0: "tree", 1: "circle"}.get(b1, "other")},
            "slabs": slabs}


@st.composite
def _walked_complexes(draw):
    """A connected small complex and a seeded random-walk labeling of it."""
    K = draw(small_complexes(connected=True))
    *_, f = _walk_labelings(K, constant_labeling(K),
                            draw(st.integers(0, 2**16)), steps=12)
    return K, f


@pytest.mark.parametrize("F", [Q, FieldSpec.prime(2), FieldSpec.prime(3)],
                         ids=["Q", "F2", "F3"])
@given(pair=st.one_of(labeled_circles(), _walked_complexes()))
def test_report_matches_reference(F, pair):
    K, f = pair
    assert hcwr_value(K, f, F).to_json() == _reference_report(K, f.labels, F)


def _reference_profile(calc, labels):
    """(max rank, #components at max, sum of ranks) over the interior
    slabs, one component rank at a time from ``_slab_components``."""
    lo, hi = min(labels), max(labels)
    ranks = [calc.image_rank_of_vertices(mask_of(comp))
             for i in (range(lo, hi) if hi > lo else (lo,))
             for comp in _slab_components(calc.K, labels, i)]
    best = max(ranks)
    return best, ranks.count(best), sum(ranks)


def test_slab_profile_counts_every_component_at_the_max():
    # rank-0 components count at a max of 0, in every slab
    path = build_complex([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    # two hollow triangles joined by a path, one in each slab: a tie
    # across slabs adds the counts
    dumbbell = build_complex([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                              (4, 5), (5, 6), (4, 6)], 7)
    # two rank-0 components in slab 0, a hollow triangle in slab 1: a
    # higher max replaces the count
    forked = build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 5),
                            (1, 4), (4, 6)], 7)
    for K, labels, profile in [
            (path, (0, 1, 2, 1, 0), (0, 3, 0)),
            (dumbbell, (0, 0, 0, 1, 2, 2, 2), (1, 2, 2)),
            (forked, (2, 2, 2, 1, 1, 0, 0), (1, 1, 1))]:
        calc = H1Calculator(K, Q)
        assert slab_profile(calc, labels) == profile == \
            _reference_profile(calc, labels)


@pytest.mark.parametrize("K", [generate_torus(2, 4), generate_torus(3, 3)],
                         ids=["torus(2,4)", "torus(3,3)"])
@settings(max_examples=15)
@given(moves=st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                                st.sampled_from((-1, 1))), max_size=80))
def test_slab_states_of_level_masks_combine_to_profile(K, moves):
    # the anneal's route: level masks kept up to date move by move, one
    # state per interior slab mask, combined as the anneal combines them:
    # the highest slab max, and the counts of the slabs at it and every
    # sum added
    calc = H1Calculator(K, Q)
    n = K.vertex_count
    labels = [0] * n
    level = {0: (1 << n) - 1}

    def check():
        assert level == level_masks(labels)
        states = [slab_state(calc, mask) for mask in slab_masks(level)]
        top = max(mx for mx, _, _ in states)
        combined = (top, sum(cnt for mx, cnt, _ in states if mx == top),
                    sum(total for _, _, total in states))
        assert combined == slab_profile(calc, labels) == \
            _reference_profile(calc, labels)

    check()
    for v, delta in moves:
        v %= n
        old, new = labels[v], labels[v] + delta
        if any(abs(new - labels[w]) > 1 for w in K.adjacency[v]):
            continue
        level[old] ^= 1 << v
        if not level[old]:
            del level[old]
        level[new] = level.get(new, 0) | 1 << v
        labels[v] = new
        check()
