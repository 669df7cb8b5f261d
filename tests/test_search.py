"""Labeling search: exhaustive enumeration, annealing, certified bounds."""
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from hcwr import (AnnealParams, FieldSpec, H1Calculator, anneal_min, betti1,
                  build_complex, certified_bounds, exhaustive_min,
                  generate_circle, generate_torus, hcwr_value,
                  presentation_complex, product_complex, validate_labeling)
from hcwr import search
from hcwr.generators import parse_relator, wedge
from hcwr.morse import MorseLabeling, slab_profile, slab_state
from hcwr.search import _derive_seed

from conftest import (mask_of, members, moore_space, relabelled, rooted_at,
                      small_complexes)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def brute_force_min(K, F):
    """Unpruned reference: every valid labeling with values in [0, diam],
    translation-normalized to min = 0, evaluated via the report path."""
    calc = H1Calculator(K, F)
    best = None
    for labels in _labelings(K, _diameter(K)):
        if min(labels) != 0:
            continue
        f = MorseLabeling(labels)
        assert validate_labeling(K, f) == []
        value = hcwr_value(K, f, F, calc).max_rank
        if best is None or value < best:
            best = value
    return best


def _labelings(K, top):
    """Every labeling with values in [0, top] whose edges span at most
    one step, labeling vertices in id order."""
    labels = []

    def extend(v):
        if v == K.vertex_count:
            yield tuple(labels)
            return
        for label in range(top + 1):
            if all(abs(label - labels[w]) <= 1
                   for w in K.adjacency[v] if w < v):
                labels.append(label)
                yield from extend(v + 1)
                labels.pop()

    return extend(0)


def first_minimizer(K, F):
    """(value, labels) of the first labeling of least value in
    ``exhaustive_min``'s visiting order, unpruned: vertices in
    ``K.forest`` order from vertex 0, the root label 0..ecc(vertex
    0), every later vertex's window (the labels >= 0 within one step of
    all its labeled neighbors) lowest first; only the labelings with
    min 0 are evaluated, via the report path."""
    calc = H1Calculator(K, F)
    n = K.vertex_count
    parent = K.forest
    order = list(parent)
    depth = {}
    for v, u in parent.items():
        depth[v] = 0 if u == v else depth[u] + 1
    labels = [None] * n
    best = None

    def extend(k):
        nonlocal best
        if k == n:
            if min(labels) == 0:
                value = hcwr_value(K, MorseLabeling(labels), F,
                                   calc).max_rank
                if best is None or value < best[0]:
                    best = (value, tuple(labels))
            return
        v = order[k]
        near = [labels[w] for w in K.adjacency[v] if labels[w] is not None]
        window = (range(max(0, max(near) - 1), min(near) + 2) if near
                  else range(depth[order[-1]] + 1))
        for label in window:
            labels[v] = label
            extend(k + 1)
        labels[v] = None

    extend(0)
    return best


def _diameter(K):
    n = K.vertex_count
    diam = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in K.adjacency[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        diam = max(diam, max(dist.values()))
    return diam


SMALL_CASES = [
    build_complex([(0, 1, 2)], 3),                # filled triangle: width 0
    generate_circle(3),                           # hollow 3-cycle: forced 1
    generate_circle(4),
    generate_circle(5),
    generate_circle(6),
    build_complex([(0, 1, 2), (1, 2, 3), (0, 3)], 4),  # pinched band
    build_complex([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4),  # theta
    generate_torus(2, 3),                         # 9-vertex torus: forced 2
    # two squares sharing the edge (0, 3), one triangle filled: a bound
    # grown in slab l + 1 instead of l - 1 misses the minimum 0 here
    build_complex([(0, 1, 5), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5)], 6),
    # two hollow triangles sharing the edge (0, 2), and a pendant edge: a
    # labeling that only ties the best value found is reached here, and
    # must not replace it
    build_complex([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)], 5),
]


@pytest.mark.parametrize("K", SMALL_CASES)
def test_normalization_soundness(K):
    # the pruned enumeration must agree with unpruned brute force
    res = exhaustive_min(K, Q)
    assert res.exhaustive
    assert res.best_value == brute_force_min(K, Q)


@given(small_complexes(max_vertices=8, connected=True, min_vertices=4),
       st.sampled_from([Q, F2, F3]))
@settings(max_examples=100)
def test_pruning_matches_unpruned_enumeration(K, F):
    res = exhaustive_min(K, F)
    assert res.exhaustive
    assert res.best_value == brute_force_min(K, F)
    assert validate_labeling(K, res.certificate) == []
    assert min(res.certificate.labels) == 0
    assert hcwr_value(K, res.certificate, F).max_rank == res.best_value


@pytest.mark.parametrize("K", SMALL_CASES)
def test_certificate_is_the_first_minimizer(K):
    res = exhaustive_min(K, Q)
    assert (res.best_value, res.certificate.labels) == first_minimizer(K, Q)


@given(small_complexes(max_vertices=7, connected=True),
       st.sampled_from([Q, F2, F3]))
@settings(max_examples=100)
def test_certificate_is_the_first_minimizer_of_random_complexes(K, F):
    res = exhaustive_min(K, F)
    assert (res.best_value, res.certificate.labels) == first_minimizer(K, F)


def test_known_exhaustive_values():
    assert exhaustive_min(build_complex([(0, 1, 2)], 3), Q).best_value == 0
    assert exhaustive_min(generate_circle(3), Q).best_value == 1
    sq = exhaustive_min(generate_circle(4), Q)
    assert sq.best_value == 0
    assert sq.certificate.labels == (0, 1, 2, 1)
    assert exhaustive_min(generate_circle(6), Q).best_value == 0


def test_certificate_invariants():
    for K in SMALL_CASES:
        res = exhaustive_min(K, Q)
        assert validate_labeling(K, res.certificate) == []
        assert hcwr_value(K, res.certificate, Q).max_rank == res.best_value
        assert res.best_value <= betti1(K, Q)


def test_worker_count_does_not_change_result():
    K = generate_circle(6)
    seq = exhaustive_min(K, Q, workers=1)
    par = exhaustive_min(K, Q, workers=4)
    assert (seq.best_value, seq.certificate.labels) == \
        (par.best_value, par.certificate.labels)


def test_budget_expiry_is_not_an_error():
    res = exhaustive_min(generate_torus(2, 3), Q, time_budget=0.0)
    assert not res.exhaustive
    assert res.best_value >= 0  # upper bound only


def test_budget_expiry_falls_back_to_the_constant_labeling():
    # a budget of 0 runs out before the lower bound, which would prove
    # this torus's minimum betti1 at once
    K = generate_torus(2, 3)
    res = exhaustive_min(K, Q, time_budget=0)
    assert not res.exhaustive
    assert res.best_value == betti1(K, Q) == 2
    assert res.certificate.labels == (0,) * 9
    # the constant labeling counts as visited: its value is betti1
    assert res.labelings_visited == 1


def test_searches_start_without_ranking_the_full_mask(monkeypatch):
    # the constant labeling's one slab is K, whose rank is betti1
    masks = []
    component_ranks = H1Calculator.component_ranks

    def recording(calc, mask):
        masks.append(mask)
        return component_ranks(calc, mask)

    monkeypatch.setattr(H1Calculator, "component_ranks", recording)
    exhaustive_min(generate_torus(2, 3), Q)
    assert (1 << 9) - 1 not in masks
    # a first move from the constant labeling leaves one interior slab,
    # all of K, so the anneal is checked on a complex of width 0, on
    # which it makes no move
    res = anneal_min(build_complex([(0, 1, 2)], 3), Q,
                     AnnealParams(steps=1, restarts=1))
    assert res.best_value == 0 and masks == []


def test_budget_must_be_a_number_at_least_0():
    # NaN never compares past a deadline, so it would never cut the search
    C = generate_circle(4)
    for budget in (float("nan"), -1, -0.5, float("-inf"), "1", True, [1]):
        with pytest.raises(ValueError, match="must be a number >= 0"):
            exhaustive_min(C, Q, time_budget=budget)
    assert exhaustive_min(C, Q, time_budget=float("inf")).exhaustive


def test_budget_returns_on_deep_complexes():
    # one labeling position per vertex: 3000 would overflow a recursion
    C = generate_circle(3000)
    res = exhaustive_min(C, Q, time_budget=10)
    assert res.exhaustive and res.best_value == 0
    assert validate_labeling(C, res.certificate) == []
    # 1089 positions, and proving the minimum of torus(2,33) takes far
    # longer than the budget
    K = generate_torus(2, 33)
    res = exhaustive_min(K, Q, time_budget=2)
    assert not res.exhaustive
    assert validate_labeling(K, res.certificate) == []


def test_disconnected_rejected():
    K = build_complex([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError, match="requires a connected complex"):
        exhaustive_min(K, Q)
    with pytest.raises(ValueError, match="requires a connected complex"):
        anneal_min(K, Q)


def test_single_vertex_complex():
    res = exhaustive_min(build_complex([], 1), Q)
    assert res.best_value == 0 and res.exhaustive


# the search's seams, each stubbed out: ``root_orbit`` reporting vertex 0
# alone, which enumerates every root label, and the lower bound finding
# nothing, which runs the enumeration
SEAMS_OFF = {
    "root_orbit": lambda K, deadline: 1,
    "_constant_is_minimal": lambda K, calc: False,
}


def _with_and_without(seam, K, F):
    """``exhaustive_min(K, F)`` as JSON, and the same with the search's
    ``seam`` stubbed out as in ``SEAMS_OFF``."""
    res = exhaustive_min(K, F).to_json()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, seam, SEAMS_OFF[seam])
        return res, exhaustive_min(K, F).to_json()


ORBIT_CASES = [
    ("relabelled torus(2,3)", lambda: relabelled(generate_torus(2, 3), 1), Q),
    ("relabelled torus(2,4)", lambda: relabelled(generate_torus(2, 4), 1), Q),
    ("<a|a^3> ring", lambda: rooted_at(moore_space(), 3), F3),
    ("<a|a^3> wedge", moore_space, F3),
    ("<a|a^3> cone", lambda: rooted_at(moore_space(), 12), F3),
    ("circle(6)", lambda: generate_circle(6), Q),
    ("circle(3)xcircle(5)", lambda: product_complex(generate_circle(3),
                                                    generate_circle(5)), Q),
    ("<a,b|[a,b]>", lambda: presentation_complex(
        2, [parse_relator("abAB", 2)]), Q),
    # no labeling with vertex 0 at 0 is a minimizer, so the root labels
    # >= 1 evaluate leaves, and an orbit that wrongly takes in vertices
    # of vertex 0's degree (1, 3 and 5) hides the minimum
    ("two squares, one filled triangle", lambda: SMALL_CASES[8], Q),
]


@pytest.mark.parametrize("make, F", [c[1:] for c in ORBIT_CASES],
                         ids=[c[0] for c in ORBIT_CASES])
def test_root_orbit_leaves_the_result_unchanged(make, F):
    # every skipped labeling is the image of a root label 0 leaf, so the
    # evaluated leaves, the certificate and the visit count stay the same
    with_orbit, without = _with_and_without("root_orbit", make(), F)
    assert with_orbit == without


def test_root_orbit_skips_only_labelings_with_0_on_the_orbit(monkeypatch):
    # a 5-cycle with a pendant edge at vertex 3: the reflection that fixes
    # 3 swaps 0 and 1, a neighbour of the root, so the root's windows are
    # both narrowed and raised and must come back whole at each root label
    K = build_complex([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (3, 5)], 6)
    assert search.root_orbit(K, None) == 0b11
    # no bound and no improving leaf: every enumerated labeling with
    # min 0 is evaluated
    monkeypatch.setattr(H1Calculator, "image_rank_of_vertices",
                        lambda calc, mask: 0)
    monkeypatch.setattr(search, "slab_profile", lambda calc, labels: (1,))
    kept = sum(1 for f in _labelings(K, _diameter(K))
               if min(f) == 0 and (f[0] == 0 or f[1] != 0))
    assert exhaustive_min(K, Q).labelings_visited == 1 + kept


@given(small_complexes(max_vertices=8, connected=True, min_vertices=2),
       st.sampled_from([Q, F2, F3]))
@settings(max_examples=100)
def test_subtrees_without_label_0_skip_no_min_0_labeling(K, F):
    # with the root orbit off, no bound and no improving leaf, the search
    # evaluates exactly the labelings with min 0: the subtrees it skips
    # under a root label >= 1, once every window is above 0, hold none
    assume(betti1(K, F) >= 1)  # at 0, the bound prunes every node
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "root_orbit", lambda K, deadline: 1)
        m.setattr(H1Calculator, "image_rank_of_vertices",
                  lambda calc, mask: 0)
        m.setattr(search, "slab_profile", lambda calc, labels: (1,))
        visited = exhaustive_min(K, F).labelings_visited
    kept = sum(1 for f in _labelings(K, _diameter(K)) if min(f) == 0)
    assert visited == 1 + kept


def _ranked_masks(monkeypatch, K, F):
    """The result of ``exhaustive_min(K, F)`` and the set of vertex masks
    whose image rank it asked for."""
    masks = set()
    image_rank = H1Calculator.image_rank_of_vertices

    def recording(calc, mask):
        masks.add(mask)
        return image_rank(calc, mask)

    monkeypatch.setattr(H1Calculator, "image_rank_of_vertices", recording)
    return exhaustive_min(K, F), masks


@pytest.mark.parametrize("root, loop", [(3, (1, 2, 3)), (0, (0, 1, 2)),
                                        (12, (1, 2, 12))],
                         ids=["ring", "wedge", "cone"])
def test_moore_space_ranks_only_masks_that_can_prune(monkeypatch, root,
                                                      loop):
    # <a|a^3> over F3 has betti1 1, the first incumbent, and its generator
    # loop is a hollow 3-cycle of image rank 1, which every labeling puts
    # in one slab: that one mask ends the proof before the enumeration
    res, masks = _ranked_masks(monkeypatch, rooted_at(moore_space(), root),
                               F3)
    assert (res.best_value, res.labelings_visited) == (1, 1)
    assert masks == {mask_of(loop)}


def test_hollow_triangle_ranks_only_its_vertex_mask(monkeypatch):
    res, masks = _ranked_masks(monkeypatch, generate_circle(3), Q)
    assert (res.best_value, res.labelings_visited) == (1, 1)
    assert masks == {0b111}


@pytest.mark.parametrize("m", [12, 3000])
def test_circle_ranks_only_its_full_vertex_mask(monkeypatch, m):
    # every forced component short of the whole circle is a path, of
    # cycle rank 0, below the incumbent betti1 = 1; the whole circle's
    # cycle rank equals it, so that mask is ranked, and it prunes
    res, masks = _ranked_masks(monkeypatch, generate_circle(m), Q)
    assert (res.best_value, res.labelings_visited) == (0, 2)
    assert masks == {(1 << m) - 1}


@given(small_complexes(max_vertices=8, connected=True, min_vertices=2),
       st.sampled_from([Q, F2, F3]))
@settings(max_examples=100)
def test_root_orbit_leaves_random_results_unchanged(K, F):
    with_orbit, without = _with_and_without("root_orbit", K, F)
    assert with_orbit == without


MOORE_ROOTS = {"ring": 3, "wedge": 0, "cone": 12}


@pytest.mark.parametrize(
    "K, F", [(K, Q) for K in SMALL_CASES]
    + [(rooted_at(moore_space(), r), F3) for r in MOORE_ROOTS.values()],
    ids=[f"small {i}" for i in range(len(SMALL_CASES))]
    + [f"<a|a^3> {name}" for name in MOORE_ROOTS])
def test_clique_bound_leaves_the_result_unchanged(K, F):
    # the bound's half at betti1 1: with the incumbent at the bound, the
    # enumeration prunes every node whose forced set holds the clique,
    # so it evaluates no leaf either
    with_bound, without = _with_and_without("_constant_is_minimal", K, F)
    assert with_bound == without


def test_a_clique_that_bounds_a_disk_does_not_end_the_search():
    # the hollow triangle (0, 1, 2) is coned off by vertex 3, so its image
    # rank is 0; the one cycle of H1 is the square 0-4-5-6, which has no
    # 3-clique, so the enumeration runs and finds width 0 below betti1 1
    K = build_complex([(0, 1, 3), (1, 2, 3), (0, 2, 3),
                       (0, 4), (4, 5), (5, 6), (0, 6)], 7)
    assert betti1(K, Q) == 1
    assert not search._constant_is_minimal(K, H1Calculator(K, Q))
    res = exhaustive_min(K, Q)
    assert res.exhaustive and res.best_value == brute_force_min(K, Q) == 0
    assert hcwr_value(K, res.certificate, Q).max_rank == 0


def test_clique_bound_waits_for_the_budget():
    # a budget of 0 runs out before the bound, which ends no search then
    res = exhaustive_min(moore_space(), F3, time_budget=0)
    assert (res.best_value, res.exhaustive, res.labelings_visited) == \
        (1, False, 1)


def test_clique_bound_ends_the_search_before_the_root_orbit(monkeypatch):
    def no_orbit(K, deadline):
        raise AssertionError("root_orbit called")

    monkeypatch.setattr(search, "root_orbit", no_orbit)
    res = exhaustive_min(moore_space(), F3)
    assert (res.best_value, res.exhaustive) == (1, True)


STAR_CASES = {
    **{f"small {i}": K for i, K in enumerate(SMALL_CASES)},
    "relabelled torus(2,3)": relabelled(generate_torus(2, 3), 1),
    "relabelled torus(3,3)": relabelled(generate_torus(3, 3), 1),
    "relabelled circle(3)xcircle(3)": relabelled(
        product_complex(generate_circle(3), generate_circle(3)), 1),
    # betti1 4, and every star but the wedge vertex's carries only its own
    # torus's rank 2: the bound stops at vertex 1, and the enumeration
    # finds width 2
    "torus(2,3) v torus(2,3)": wedge(generate_torus(2, 3), 0,
                                     generate_torus(2, 3), 0),
}


@pytest.mark.parametrize("K", STAR_CASES.values(), ids=list(STAR_CASES))
def test_star_bound_leaves_the_result_unchanged(K):
    # the bound's half at betti1 >= 2: the node that gives a vertex label
    # 0 grows a forced set holding its closed star, so with every star
    # at betti1 no leaf is evaluated
    with_bound, without = _with_and_without("_constant_is_minimal", K, Q)
    assert with_bound == without


@given(small_complexes(max_vertices=8, connected=True, min_vertices=2),
       st.sampled_from([Q, F2, F3]))
@settings(max_examples=100)
def test_lower_bound_leaves_random_results_unchanged(K, F):
    with_bound, without = _with_and_without("_constant_is_minimal", K, F)
    assert with_bound == without


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_star_bound_ends_torus_proofs_before_the_root_orbit(monkeypatch,
                                                            shape):
    # every closed star of these coarse tori holds all of H1
    def no_orbit(K, deadline):
        raise AssertionError("root_orbit called")

    monkeypatch.setattr(search, "root_orbit", no_orbit)
    K = relabelled(generate_torus(*shape), 1)
    res = exhaustive_min(K, Q)
    assert (res.best_value, res.exhaustive, res.labelings_visited) == \
        (betti1(K, Q), True, 1)
    assert res.certificate.labels == (0,) * K.vertex_count


def test_a_failed_star_bound_ranks_no_extra_mask(monkeypatch):
    # star 0 of torus(2,4) falls short, so the bound ranks that one star
    # itself and stops; star 0 is also the root's label-0 forced set, so
    # the enumeration asks for the same set of masks either way
    K = relabelled(generate_torus(2, 4), 1)
    res, masks = _ranked_masks(monkeypatch, K, Q)
    masks = frozenset(masks)  # the next recording wraps this one
    monkeypatch.setattr(search, "_constant_is_minimal",
                        SEAMS_OFF["_constant_is_minimal"])
    res_without, masks_without = _ranked_masks(monkeypatch, K, Q)
    assert res.to_json() == res_without.to_json()
    assert masks == masks_without


class Lcg:
    """The anneal's 64-bit linear congruential generator, as an object:
    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64.
    """

    def __init__(self, seed: int):
        self.state = seed % 2 ** 64

    def next_u64(self) -> int:
        self.state = (6364136223846793005 * self.state
                      + 1442695040888963407) % 2 ** 64
        return self.state

    def next_below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def next_unit(self) -> float:
        return self.next_u64() / 2.0 ** 64


class TestLcg:
    def test_recurrence(self):
        rng = Lcg(1)
        a = (6364136223846793005 * 1 + 1442695040888963407) % 2 ** 64
        assert rng.next_u64() == a
        assert rng.next_u64() == (6364136223846793005 * a
                                  + 1442695040888963407) % 2 ** 64

    def test_next_below_range(self):
        rng = Lcg(42)
        draws = [rng.next_below(7) for _ in range(1000)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7  # all residues reachable

    def test_restart_streams_differ(self):
        assert _derive_seed(0, 0) != _derive_seed(0, 1)


class TestAnnealParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealParams(steps=0)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            AnnealParams(restarts=0)
        # a float passes the range checks and fails only inside
        # anneal_min, after the precompute; True would run one step
        for name, value in [("steps", 1.5), ("steps", float("nan")),
                            ("steps", True), ("restarts", 2.0),
                            ("seed", 1.5)]:
            with pytest.raises(ValueError, match=f"{name} .* is not an int"):
                AnnealParams(**{name: value})


class TestAnneal:
    def test_deterministic_across_workers(self):
        K = generate_circle(8)
        p = AnnealParams(steps=500, restarts=3, seed=11)
        a = anneal_min(K, Q, p, workers=1)
        b = anneal_min(K, Q, p, workers=3)
        assert a.to_json() == b.to_json()

    def test_certificate_valid(self):
        K = generate_torus(2, 3)
        res = anneal_min(K, Q, AnnealParams(steps=2000, restarts=2, seed=5))
        assert validate_labeling(K, res.certificate) == []
        assert hcwr_value(K, res.certificate, Q).max_rank == res.best_value
        assert not res.exhaustive
        assert res.seed == 5

    def test_upper_bounds_exhaustive(self):
        K = generate_circle(5)
        exact = exhaustive_min(K, Q).best_value
        heur = anneal_min(K, Q, AnnealParams(steps=3000, restarts=2,
                                             seed=3)).best_value
        assert heur >= exact
        assert heur <= betti1(K, Q)

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10)
    def test_hexagon_always_reaches_zero(self, seed):
        res = anneal_min(generate_circle(6), Q,
                         AnnealParams(steps=5000, restarts=2, seed=seed))
        assert res.best_value == 0


# seeded anneal results, recorded before the search kept per-slab state;
# every draw, accept/reject decision and certificate must stay the same
ANNEAL_GOLDEN = [
    ("torus(2,4)", lambda: generate_torus(2, 4), Q, AnnealParams(seed=7),
     1, [-7, -7, -7, -7, -6, -6, -6, -6, -5, -5, -5, -5, -6, -6, -6, -6]),
    ("torus(2,5)", lambda: generate_torus(2, 5), Q,
     AnnealParams(steps=3000, restarts=2, seed=7),
     2, [-2, -1, -1, -1, -1, -1, -1, 0, -1, 0, -1, 0, 0, -1, 0, -1, -1, 0,
         0, 0, -1, -1, 0, 0, -1]),
    ("torus(2,4) F3", lambda: generate_torus(2, 4), F3,
     AnnealParams(steps=20000, restarts=2, seed=7),
     2, [-6, -6, -6, -6, -6, -6, -5, -6, -6, -5, -6, -6, -5, -6, -5, -5]),
    ("relabelled circle(3)xcircle(5)",
     lambda: relabelled(product_complex(generate_circle(3),
                                        generate_circle(5)), 11), Q,
     AnnealParams(steps=3000, restarts=2, seed=7),
     1, [-2, -2, -2, -2, 0, -1, -1, -1, -2, -1, 0, 0, -1, -2, -1]),
    # reaches 0 in its first restart and takes the early break
    ("circle(6)", lambda: generate_circle(6), Q, AnnealParams(seed=7),
     0, [0, -1, 0, 0, 1, 0]),
]


@pytest.mark.parametrize("name, make, F, params, value, certificate",
                         ANNEAL_GOLDEN, ids=[c[0] for c in ANNEAL_GOLDEN])
def test_anneal_matches_recorded_results(name, make, F, params, value,
                                         certificate):
    assert anneal_min(make(), F, params).to_json() == {
        "best_value": value, "certificate": certificate,
        "exhaustive": False,
        "labelings_visited": params.steps * params.restarts,
        "seed": params.seed}


def reference_anneal(K, F, params):
    """``anneal_min``'s schedule, result as ``to_json``: draws from
    ``Lcg``, a move on a copy of the labels, checked edge by edge, and
    ``slab_profile`` recomputed at every valid step."""
    calc = H1Calculator(K, F)
    n = K.vertex_count

    def energy(mx, cnt, total):
        return mx * 100_000 + min(cnt, 999) * 100 + min(total, 99)

    results = []
    for r in range(params.restarts):
        rng = Lcg(_derive_seed(params.seed, r))
        labels = [0] * n
        mx, cnt, total = slab_profile(calc, labels)
        cur_e = energy(mx, cnt, total)
        best = (mx, tuple(labels))
        temp = search._INITIAL_TEMPERATURE
        for _ in range(params.steps):
            if best[0] == 0:
                break
            v = rng.next_below(n)
            delta = 1 if rng.next_u64() >> 63 else -1
            moved = list(labels)
            moved[v] += delta
            if all(abs(moved[v] - moved[w]) <= 1 for w in K.adjacency[v]):
                mx, cnt, total = slab_profile(calc, moved)
                e = energy(mx, cnt, total)
                if e <= cur_e or rng.next_unit() < math.exp(
                        (cur_e - e) / max(temp, 1e-9)):
                    labels, cur_e = moved, e
                    best = min(best, (mx, tuple(labels)))
            temp *= search._COOLING_RATE
        results.append(best)
    value, certificate = min(results)
    return {"best_value": value, "certificate": list(certificate),
            "exhaustive": False,
            "labelings_visited": params.steps * params.restarts,
            "seed": params.seed}


# small complexes on which short runs create and empty extreme levels
# and pass between one and two levels
DIFFERENTIAL_CASES = [
    *[(f"circle({m})", generate_circle(m), Q) for m in range(3, 8)],
    ("torus(2,3)", generate_torus(2, 3), Q),
    ("torus(2,3) F2", generate_torus(2, 3), F2),
    ("relabelled circle(3)xcircle(4)",
     relabelled(product_complex(generate_circle(3), generate_circle(4)),
                5), Q),
    ("<a|a^3> F3", presentation_complex(1, [parse_relator("aaa", 1)]), F3),
    # the hollow triangle keeps the value at 1 and the tail lets the
    # labels spread over up to six levels, so a move meets three slabs
    ("circle(3) with a 4-edge tail",
     build_complex([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
                   7), Q),
    ("one vertex", build_complex([], 1), Q),
    ("one edge", build_complex([(0, 1)], 2), Q),
    # the filled triangle (0, 1, 2) and the hollow (0, 3, 4) meet at 0:
    # vertex 0's link in a slab is connected with 1 and 2 alone and
    # disconnected once 3 or 4 is there too
    ("bowtie with a tail", build_complex(
        [(0, 1, 2), (0, 3), (0, 4), (3, 4), (4, 5), (5, 6)], 7), Q),
    ("<a,b|abaB> F2", presentation_complex(2, [parse_relator("abaB", 2)]),
     F2),
]


@given(st.sampled_from(DIFFERENTIAL_CASES),
       st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=2))
@settings(max_examples=80)
def test_anneal_matches_reference_anneal(case, seed, steps, restarts):
    _, K, F = case
    params = AnnealParams(steps=steps, restarts=restarts, seed=seed)
    assert anneal_min(K, F, params).to_json() == \
        reference_anneal(K, F, params)


@pytest.mark.parametrize("name", ["bowtie with a tail", "<a,b|abaB> F2"])
def test_reference_anneal_meets_both_link_outcomes(monkeypatch, name):
    # on a slab-state miss the anneal tests the moved vertex's link, and
    # on these complexes it finds the link both connected (the old state
    # is reused) and disconnected (the slab is ranked)
    _, K, F = next(c for c in DIFFERENTIAL_CASES if c[0] == name)
    params = AnnealParams(steps=300, restarts=2, seed=1)
    outcomes = []
    components = search.components  # the anneal calls it for links only

    def recording(link, near):
        comps = components(link, near)
        outcomes.append(comps == [near])
        return comps

    monkeypatch.setattr(search, "components", recording)
    assert anneal_min(K, F, params).to_json() == \
        reference_anneal(K, F, params)
    assert True in outcomes and False in outcomes


def test_full_search_memo_is_emptied(monkeypatch):
    K = generate_torus(2, 4)
    params = AnnealParams(steps=3000, restarts=2, seed=7)
    uncapped = (anneal_min(K, Q, params).to_json(),
                exhaustive_min(K, Q).to_json())
    sizes = []

    def recording_store(memo, key, value):
        dict.__setitem__(memo, key, value)
        sizes.append(len(memo))

    monkeypatch.setattr(search._Memo, "__setitem__", recording_store)
    monkeypatch.setattr(search, "CACHE_LIMIT", 2)
    # the anneal's slab states, then the enumeration's forced ranks: every
    # store is recorded, a miss's and a reused state's alike, so a store
    # that skipped the cap would leave a size above 2; each memo fills to
    # the cap and is emptied
    for run, result in zip((lambda: anneal_min(K, Q, params),
                            lambda: exhaustive_min(K, Q)), uncapped):
        sizes.clear()
        assert run().to_json() == result
        assert max(sizes) == 2 and sizes.count(1) > 1


def _link_predicate(links, K, v, mask):
    """Whether v's neighbours in ``mask`` without v are nonempty and
    connected through the triangles at v: the anneal's link test."""
    near = K.neighbours[v] & mask & ~(1 << v)
    return search.components(links[v], near) == [near]


def _link_oracle(K, v, mask):
    """``_link_predicate`` from the closure's triangles and vertex sets:
    the triangles at v, grown from one neighbour until nothing changes."""
    near = members(K.neighbours[v] & mask) - {v}
    edges = [set(t) - {v} for t in K.simplices if len(t) == 3 and v in t]
    reached = {min(near)} if near else set()
    grown = True
    while grown:
        grown = False
        for e in edges:
            if e <= near and e & reached and not e <= reached:
                reached |= e
                grown = True
    return bool(near) and reached == near


def test_links_are_those_of_the_closure_triangles():
    K = relabelled(generate_torus(3, 3), 7)
    links = [dict.fromkeys(members(K.neighbours[v]), 0)
             for v in range(K.vertex_count)]
    for t in K.simplices:
        if len(t) == 3:
            for v in t:
                x, y = set(t) - {v}
                links[v][x] |= 1 << y
                links[v][y] |= 1 << x
    assert search._links(K) == links


def _assert_link_keeps_states(K, F, masks):
    """For every vertex v and mask in ``masks``, the link predicate
    agrees with ``_link_oracle``, and where it holds ``slab_state`` is
    the same with and without v; returns the number of (v, mask) at
    which it held."""
    calc = H1Calculator(K, F)
    links = search._links(K)
    held = 0
    for mask in masks:
        for v in range(K.vertex_count):
            connected = _link_predicate(links, K, v, mask)
            assert connected == _link_oracle(K, v, mask), (v, mask)
            if connected:
                held += 1
                assert slab_state(calc, mask | 1 << v) == \
                    slab_state(calc, mask & ~(1 << v)), (v, mask)
    return held


@given(small_complexes(), st.sampled_from([Q, F2, F3]), st.data())
@settings(max_examples=200)
def test_connected_link_keeps_the_slab_state(K, F, data):
    masks = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << K.vertex_count) - 1),
        min_size=1, max_size=4))
    _assert_link_keeps_states(K, F, masks)


@pytest.mark.parametrize("make", [
    moore_space,
    lambda: presentation_complex(2, [parse_relator("abaB", 2)]),
], ids=["<a|a^3>", "<a,b|abaB>"])
@pytest.mark.parametrize("F", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_connected_link_keeps_the_slab_state_under_relations(make, F):
    # relators that give nonzero relations: a^3 over Q and F2, abaB
    # over Q and F3
    K = make()
    rng = random.Random(5)
    masks = [rng.getrandbits(K.vertex_count) for _ in range(150)]
    assert _assert_link_keeps_states(K, F, masks) > 100


@pytest.mark.parametrize("K, v, mask, without, with_v", [
    # the vertex that closes a circle: its neighbours 0 and 2 span no
    # triangle with it, and it adds a cycle
    (generate_circle(4), 3, 0b0111, (0, 1, 0), (1, 1, 1)),
    # the pinch vertex of two filled triangles: the two edges of its link
    # are apart, and it joins two components
    (build_complex([(0, 1, 2), (0, 3, 4)], 5), 0, 0b11110, (0, 2, 0),
     (0, 1, 0)),
], ids=["closes a circle", "pinch"])
def test_disconnected_link_changes_the_slab_state(K, v, mask, without,
                                                  with_v):
    assert not _link_predicate(search._links(K), K, v, mask)
    calc = H1Calculator(K, Q)
    assert slab_state(calc, mask) == without
    assert slab_state(calc, mask | 1 << v) == with_v


_BOWTIE = next(K for name, K, _ in DIFFERENTIAL_CASES
               if name == "bowtie with a tail")


@pytest.mark.parametrize("K, v, near, comps", [
    # the vertex that closes circle(4): neither neighbour shares a
    # triangle with it
    (generate_circle(4), 3, 0b0101, [0b0001, 0b0100]),
    # the bowtie's pinch vertex with 1 and 2 of its filled triangle and 3
    # of its hollow one
    (_BOWTIE, 0, 0b1110, [0b0110, 0b1000]),
    # the bowtie's tail: vertex 5 between 4 and 6, in no triangle
    (_BOWTIE, 5, 0b1010000, [0b0010000, 0b1000000]),
], ids=["circle(4) closing vertex", "bowtie pinch", "bowtie tail"])
def test_a_neighbour_in_no_triangle_at_v_is_its_own_link_component(
        K, v, near, comps):
    # every neighbour is keyed in v's link, with mask 0 when it shares no
    # triangle with v, so the link test meets it as a component of its own
    links = search._links(K)
    assert set(links[v]) == members(K.neighbours[v])
    assert search.components(links[v], near) == comps
    assert not _link_predicate(links, K, v, near)


class TestCertifiedBounds:
    def test_exhaustive_pins_both(self):
        lo, hi, details = certified_bounds(generate_circle(6), Q)
        assert (lo, hi) == (0, 0)
        assert details["method"] == "exhaustive"

    def test_agrees_with_exhaustive(self):
        K = generate_torus(2, 3)
        lo, hi, _ = certified_bounds(K, Q)
        exact = exhaustive_min(K, Q).best_value
        assert lo == hi == exact

    def test_budget_truncation_shape(self):
        K = generate_torus(2, 3)
        lo, hi, details = certified_bounds(K, Q, time_budget=0.0)
        assert lo == 0
        assert hi >= exhaustive_min(K, Q).best_value
        assert details["method"] == "partial"

    def test_budget_is_honoured(self):
        t0 = time.monotonic()
        lo, hi, details = certified_bounds(generate_torus(2, 12), Q,
                                           time_budget=1)
        assert time.monotonic() - t0 < 10
        assert lo == 0 and details["method"] == "partial"
