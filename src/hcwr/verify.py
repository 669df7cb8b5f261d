"""Verification harness: replays the desk-scale width theorems.

Each case builds a witness complex and labeling, evaluates it, and
compares against the known theorem value by exact integer comparison.
Cases whose estimated cost exceeds the budget report ``skipped(budget)``
instead of failing, keeping proven and heuristic results separate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .complexes import euler_characteristic
from .generators import (circle_tent_labeling, generate_circle, generate_torus,
                         labeled_torus, parse_relator, presentation_complex,
                         product_complex, pullback_labeling, spread_wedge,
                         LabeledComplex)
from .homology import FieldSpec, betti1
from .morse import constant_labeling, hcwr_value
from .search import exhaustive_min

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped(budget)"


@dataclass
class CaseResult:
    name: str
    status: str
    claim: str
    expected: dict
    actual: dict
    seconds: float


@dataclass
class VerificationCase:
    name: str
    claim: str
    cost_hint: float  # rough seconds on a desk machine
    runner: Callable[[float], CaseResult]


def _case(name, claim, cost_hint):
    def deco(fn):
        def runner(budget):
            t0 = time.monotonic()
            expected, actual, skipped = fn(budget)
            status = SKIPPED if skipped else (PASS if expected == actual else FAIL)
            return CaseResult(name, status, claim, expected, actual,
                              time.monotonic() - t0)
        return VerificationCase(name, claim, cost_hint, runner)
    return deco


@_case("torus-k2",
       "the 2-torus tent labeling realizes width 1 = rank(Z^2) - 1, "
       "with a circle quotient graph", 2)
def _torus_k2(budget):
    L = labeled_torus(2, 4)
    rep = hcwr_value(L.complex, L.labeling, FieldSpec.rationals())
    return ({"max_rank": 1, "qf_betti1": 1},
            {"max_rank": rep.max_rank, "qf_betti1": rep.qf_betti1}, False)


@_case("torus-k3",
       "the 3-torus tent labeling realizes width 2 = rank(Z^3) - 1", 5)
def _torus_k3(budget):
    L = labeled_torus(3, 4)
    rep = hcwr_value(L.complex, L.labeling, FieldSpec.rationals())
    return ({"max_rank": 2}, {"max_rank": rep.max_rank}, False)


def _torus_minimum(n, budget):
    res = exhaustive_min(generate_torus(2, n), FieldSpec.rationals(),
                         time_budget=budget)
    if not res.exhaustive:
        return {}, {}, True
    return ({"best_value": 1, "exhaustive": True},
            {"best_value": res.best_value, "exhaustive": res.exhaustive},
            False)


@_case("torus-lower-bound",
       "the minimum width over all labelings of the 16-vertex 2-torus is "
       "exactly rank(Z^2) - 1 = 1, proven by exhaustive search", 0.05)
def _torus_lower(budget):
    return _torus_minimum(4, budget)


@_case("torus-2-5-lower-bound",
       "the minimum width over all labelings of the 25-vertex 2-torus is "
       "exactly rank(Z^2) - 1 = 1, proven by exhaustive search", 10)
def _torus_lower_25(budget):
    return _torus_minimum(5, budget)


@_case("free-width-zero",
       "free fundamental groups achieve width 0 on suitable witnesses; "
       "the 3-cycle shows the value depends on the subdivision", 5)
def _free_zero(budget):
    q = FieldSpec.rationals()
    hexa = exhaustive_min(generate_circle(6), q, time_budget=budget)
    tri = exhaustive_min(generate_circle(3), q, time_budget=budget)
    h1 = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
    h2 = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
    sw = spread_wedge(h1, 0, h2, 0, arc_len=5)
    rep = hcwr_value(sw.complex, sw.labeling, q)
    return ({"circle6": 0, "circle3": 1, "spread_wedge_hexagons": 0},
            {"circle6": hexa.best_value, "circle3": tri.best_value,
             "spread_wedge_hexagons": rep.max_rank}, False)


@_case("infinite-abelian-z",
       "width of Z is rank(Z) - 1 = 0, realized on a subdivided circle", 5)
def _inf_ab_z(budget):
    res = exhaustive_min(generate_circle(6), FieldSpec.rationals(),
                         time_budget=budget)
    return ({"best_value": 0}, {"best_value": res.best_value}, False)


@_case("moore-f3",
       "the presentation complex of <a | a^3> detects Z/3 over F_3 but "
       "not over Q, and any labeling carries width >= 1 over F_3", 10)
def _moore(budget):
    P = presentation_complex(1, [parse_relator("aaa", 1)])
    b3 = betti1(P, FieldSpec.prime(3))
    bq = betti1(P, FieldSpec.rationals())
    rep = hcwr_value(P, constant_labeling(P), FieldSpec.prime(3))
    return ({"betti1_f3": 1, "betti1_q": 0, "constant_hcwr_f3": 1},
            {"betti1_f3": b3, "betti1_q": bq, "constant_hcwr_f3": rep.max_rank},
            False)


@_case("abelian-f3-search",
       "exhaustive search over labelings of the <a | a^3> complex cannot "
       "beat width 1 over F_3 (rank(Z/3) = 1)", 10)
def _abelian_search(budget):
    P = presentation_complex(1, [parse_relator("aaa", 1)])
    res = exhaustive_min(P, FieldSpec.prime(3), time_budget=budget)
    if not res.exhaustive:
        return {}, {}, True
    return ({"at_least_one": True},
            {"at_least_one": res.best_value >= 1}, False)


@_case("free-product-max",
       "joining two width-1 torus witnesses by a spread arc keeps width "
       "max(1, 1) = 1 (free-product upper bound)", 10)
def _free_product(budget):
    t1 = labeled_torus(2, 4)
    t2 = labeled_torus(2, 4)
    sw = spread_wedge(t1, 0, t2, 0, arc_len=4)
    rep = hcwr_value(sw.complex, sw.labeling, FieldSpec.rationals())
    return ({"max_rank": 1}, {"max_rank": rep.max_rank}, False)


@_case("product-bound",
       "a product with a circle, labeled through the first factor, has "
       "width <= 0 + rank(Z) = 1", 10)
def _product_bound(budget):
    c4 = generate_circle(4)
    P = product_complex(c4, c4)
    f = pullback_labeling(circle_tent_labeling(4), c4.vertex_count)
    rep = hcwr_value(P, f, FieldSpec.rationals())
    return ({"max_rank": 1, "chi": 0, "betti1": 2},
            {"max_rank": rep.max_rank, "chi": euler_characteristic(P),
             "betti1": betti1(P, FieldSpec.rationals())}, False)


def all_cases() -> list:
    return [_torus_k2, _torus_k3, _torus_lower, _torus_lower_25, _free_zero,
            _inf_ab_z, _moore, _abelian_search, _free_product, _product_bound]


def run_cases(case_filter: Optional[str] = None, budget: float = 120.0) -> dict:
    """Run all (or name-filtered) cases; returns a JSON-ready summary."""
    results = []
    for case in all_cases():
        if case_filter is not None and case.name != case_filter:
            continue
        if case.cost_hint > budget:
            results.append(CaseResult(case.name, SKIPPED, case.claim,
                                      {}, {}, 0.0))
            continue
        results.append(case.runner(budget))
    failures = sum(1 for r in results if r.status == FAIL)
    return {
        "cases": [
            {"name": r.name, "status": r.status, "claim": r.claim,
             "expected": r.expected, "actual": r.actual,
             "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "failures": failures,
    }
