"""Labeling search: exhaustive enumeration, annealing, certified bounds."""
import time

import pytest
from hypothesis import given, settings, strategies as st

from hcwr import (AnnealParams, FieldSpec, H1Calculator, anneal_min, betti1,
                  build_complex, certified_bounds, exhaustive_min,
                  generate_circle, generate_torus, hcwr_value,
                  validate_labeling)
from hcwr.morse import MorseLabeling, NotConnected
from hcwr.search import Lcg, _derive_seed

from conftest import small_complexes

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
    with pytest.raises(NotConnected):
        exhaustive_min(K, Q)
    with pytest.raises(NotConnected):
        anneal_min(K, Q)


def test_single_vertex_complex():
    res = exhaustive_min(build_complex([], 1), Q)
    assert res.best_value == 0 and res.exhaustive


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
