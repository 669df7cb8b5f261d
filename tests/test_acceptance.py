"""Acceptance gate: the headline width theorems at desk scale.

Each test pins exact integer values and a runtime budget.  One test per
numbered claim, in order, so a red line points at exactly one claim.
"""
import time
from itertools import product as iproduct

from hcwr import (AnnealParams, FieldSpec, LabeledComplex, anneal_min, betti1,
                  build_complex, circle_tent_labeling, constant_labeling,
                  euler_characteristic, exhaustive_min, generate_circle,
                  generate_torus, hcwr_value, labeled_torus,
                  presentation_complex, product_complex, pullback_labeling,
                  spread_wedge, validate_labeling)
from hcwr.generators import parse_relator
from hcwr.morse import MorseLabeling
from hcwr.verify import run_cases

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


class Budget:
    """Context manager asserting wall-clock runtime."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.1f}s exceeds budget {self.seconds}s"


def test_1_torus_width_k2():
    with Budget(1):
        L = labeled_torus(2, 4)
        rep = hcwr_value(L.complex, L.labeling, Q)
        assert rep.max_rank == 1
        assert rep.qf["betti1"] == 1 and rep.qf["class"] == "circle"


def test_2_torus_width_k3():
    with Budget(30):
        L = labeled_torus(3, 4)
        rep = hcwr_value(L.complex, L.labeling, Q)
        assert rep.max_rank == 2


def test_3_torus_desk_scale_lower_bound():
    with Budget(30):
        # w(Z^2) = 1, proven on the 16-vertex torus: no labeling reaches 0
        # and the certificate reaches 1.
        T4 = generate_torus(2, 4)
        res = exhaustive_min(T4, Q)
        assert res.exhaustive
        assert res.best_value == 1
        assert validate_labeling(T4, res.certificate) == []
        assert hcwr_value(T4, res.certificate, Q).max_rank == 1
        # Resolution artifact: the 9-vertex torus has minimum 2.  Its
        # 1-skeleton has diameter 2, so labels lie in {0, 1, 2}.  The
        # non-adjacent pairs form three disjoint triangles and no 0 is
        # adjacent to a 2, so the 0s and the 2s share one triangle and one
        # of the two classes has at most one vertex.  The slab that leaves
        # it out is the torus minus at most one open vertex star, whose H1
        # maps onto H1(T^2): rank 2.  test_search checks this value against
        # an unpruned brute force.
        res3 = exhaustive_min(generate_torus(2, 3), Q)
        assert res3.exhaustive
        assert res3.best_value == 2


def test_4_free_groups_achieve_zero():
    with Budget(60):
        hexa = exhaustive_min(generate_circle(6), Q)
        assert hexa.best_value == 0
        assert validate_labeling(generate_circle(6), hexa.certificate) == []
        assert exhaustive_min(generate_circle(3), Q).best_value == 1
        h = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
        h2 = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
        sw = spread_wedge(h, 0, h2, 0, arc_len=5)
        assert hcwr_value(sw.complex, sw.labeling, Q).max_rank == 0


def test_5_finite_abelian_over_f3():
    with Budget(600):
        P = presentation_complex(1, [parse_relator("aaa", 1)])
        assert betti1(P, F3) == 1
        assert betti1(P, Q) == 0
        assert hcwr_value(P, constant_labeling(P), F3).max_rank == 1
        res = exhaustive_min(P, F3, time_budget=590)
        assert res.exhaustive
        assert res.best_value == 1


def test_6_free_product_upper_bound():
    with Budget(60):
        sw = spread_wedge(labeled_torus(2, 4), 0, labeled_torus(2, 4), 0,
                          arc_len=4)
        assert hcwr_value(sw.complex, sw.labeling, Q).max_rank == 1


def test_7_product_bound():
    with Budget(60):
        c4 = generate_circle(4)
        P = product_complex(c4, c4)
        f = pullback_labeling(circle_tent_labeling(4), 4)
        assert hcwr_value(P, f, Q).max_rank == 1
        assert euler_characteristic(P) == 0
        assert betti1(P, Q) == 2


def test_8_property_suite_spot_checks():
    """Fast representatives of the property families; the full families
    (hypothesis-driven) live in the per-module test files."""
    with Budget(120):
        # face closure
        K = build_complex([(0, 1, 2), (2, 3, 4)], 5)
        assert (0, 2) in K.simplices and (2, 4) in K.simplices
        # d1 . d2 = 0
        from hcwr import boundary
        for t in (s for s in K.simplices if len(s) == 3):
            dd = {}
            for e, x in boundary(t):
                for v, y in boundary(e):
                    dd[v] = dd.get(v, 0) + x * y
            assert not any(dd.values())
        # image-rank monotonicity
        from hcwr import H1Calculator
        T = generate_torus(2, 3)
        calc = H1Calculator(T, Q)
        inner = (1 << 5) - 1
        assert calc.image_rank_of_vertices(inner) <= \
            calc.image_rank_of_vertices((1 << 9) - 1)
        # translation / reflection invariance
        f = circle_tent_labeling(6)
        C6 = generate_circle(6)
        v = hcwr_value(C6, f, Q).max_rank
        shifted = MorseLabeling(tuple(l + 5 for l in f.labels))
        reflected = MorseLabeling(tuple(-l for l in f.labels))
        assert hcwr_value(C6, shifted, Q).max_rank == v
        assert hcwr_value(C6, reflected, Q).max_rank == v
        # normalization soundness vs unpruned brute force (<= 6 vertices)
        C5 = generate_circle(5)
        brute = min(
            hcwr_value(C5, MorseLabeling(ls), Q).max_rank
            for ls in iproduct(range(3), repeat=5)
            if min(ls) == 0 and not validate_labeling(C5, MorseLabeling(ls)))
        assert exhaustive_min(C5, Q).best_value == brute
        # search determinism across worker counts under a pinned seed
        p = AnnealParams(steps=400, restarts=3, seed=13)
        a = anneal_min(C6, Q, p, workers=1)
        b = anneal_min(C6, Q, p, workers=3)
        assert a.to_json() == b.to_json()
        assert exhaustive_min(C6, Q, workers=1).best_value == \
            exhaustive_min(C6, Q, workers=4).best_value


def test_9_annealing_reaches_known_optima():
    with Budget(60):
        t2 = anneal_min(generate_torus(2, 4), Q, AnnealParams(seed=7))
        assert t2.best_value == 1
        c6 = anneal_min(generate_circle(6), Q, AnnealParams(seed=7))
        assert c6.best_value == 0


def test_10_torus_k3_desk_scale_lower_bound():
    with Budget(60):
        # w(Z^3) = 2, proven on the 64-vertex torus through the verify case
        case, = run_cases("torus-k3-lower-bound")["cases"]
        assert case["status"] == "pass"
        assert case["actual"] == {"best_value": 2, "exhaustive": True}
        # resolution artifacts: at n = 3 the minima exceed k - 1
        assert exhaustive_min(generate_torus(3, 3), Q).best_value == 3
        assert exhaustive_min(generate_torus(2, 3), Q).best_value == 2
