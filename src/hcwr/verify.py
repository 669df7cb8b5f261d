"""Verification harness: replays the desk-scale width theorems.

Each case builds a witness complex and labeling, evaluates it, and
compares against the known theorem value by exact integer comparison.
A case whose exhaustive search does not finish inside the budget
reports ``skipped(budget)`` instead of failing, keeping proven and
heuristic results separate.
"""
from __future__ import annotations

import time
from typing import Optional

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

# name -> (claim, case); a case maps the budget in seconds to
# (expected, actual), or to None when a search it ran was cut by the budget
_CASES = {}


def _case(name, claim):
    def deco(fn):
        _CASES[name] = (claim, fn)
        return fn
    return deco


def _proven_min(K, F, budget) -> Optional[int]:
    """Minimum width of K over F, or None if the search runs out of budget."""
    res = exhaustive_min(K, F, time_budget=budget)
    return res.best_value if res.exhaustive else None


@_case("torus-k2",
       "the 2-torus tent labeling realizes width 1 = rank(Z^2) - 1, "
       "with a circle quotient graph")
def _torus_k2(budget):
    L = labeled_torus(2, 4)
    rep = hcwr_value(L.complex, L.labeling, FieldSpec.rationals())
    return ({"max_rank": 1, "qf_betti1": 1},
            {"max_rank": rep.max_rank, "qf_betti1": rep.qf_betti1})


@_case("torus-k3",
       "the 3-torus tent labeling realizes width 2 = rank(Z^3) - 1")
def _torus_k3(budget):
    L = labeled_torus(3, 4)
    rep = hcwr_value(L.complex, L.labeling, FieldSpec.rationals())
    return ({"max_rank": 2}, {"max_rank": rep.max_rank})


def _torus_minimum(n, budget):
    value = _proven_min(generate_torus(2, n), FieldSpec.rationals(), budget)
    if value is None:
        return None
    return ({"best_value": 1, "exhaustive": True},
            {"best_value": value, "exhaustive": True})


@_case("torus-lower-bound",
       "the minimum width over all labelings of the 16-vertex 2-torus is "
       "exactly rank(Z^2) - 1 = 1, proven by exhaustive search")
def _torus_lower(budget):
    return _torus_minimum(4, budget)


@_case("torus-2-5-lower-bound",
       "the minimum width over all labelings of the 25-vertex 2-torus is "
       "exactly rank(Z^2) - 1 = 1, proven by exhaustive search")
def _torus_lower_25(budget):
    return _torus_minimum(5, budget)


@_case("free-width-zero",
       "free fundamental groups achieve width 0 on suitable witnesses; "
       "the 3-cycle shows the value depends on the subdivision")
def _free_zero(budget):
    q = FieldSpec.rationals()
    hexa = _proven_min(generate_circle(6), q, budget)
    tri = _proven_min(generate_circle(3), q, budget)
    if hexa is None or tri is None:
        return None
    h1 = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
    h2 = LabeledComplex(generate_circle(6), circle_tent_labeling(6))
    sw = spread_wedge(h1, 0, h2, 0, arc_len=5)
    rep = hcwr_value(sw.complex, sw.labeling, q)
    return ({"circle6": 0, "circle3": 1, "spread_wedge_hexagons": 0},
            {"circle6": hexa, "circle3": tri,
             "spread_wedge_hexagons": rep.max_rank})


@_case("infinite-abelian-z",
       "width of Z is rank(Z) - 1 = 0, realized on a subdivided circle")
def _inf_ab_z(budget):
    value = _proven_min(generate_circle(6), FieldSpec.rationals(), budget)
    if value is None:
        return None
    return ({"best_value": 0}, {"best_value": value})


@_case("moore-f3",
       "the presentation complex of <a | a^3> detects Z/3 over F_3 but "
       "not over Q, and any labeling carries width >= 1 over F_3")
def _moore(budget):
    P = presentation_complex(1, [parse_relator("aaa", 1)])
    b3 = betti1(P, FieldSpec.prime(3))
    bq = betti1(P, FieldSpec.rationals())
    rep = hcwr_value(P, constant_labeling(P), FieldSpec.prime(3))
    return ({"betti1_f3": 1, "betti1_q": 0, "constant_hcwr_f3": 1},
            {"betti1_f3": b3, "betti1_q": bq, "constant_hcwr_f3": rep.max_rank})


@_case("abelian-f3-search",
       "exhaustive search over labelings of the <a | a^3> complex cannot "
       "beat width 1 over F_3 (rank(Z/3) = 1)")
def _abelian_search(budget):
    P = presentation_complex(1, [parse_relator("aaa", 1)])
    value = _proven_min(P, FieldSpec.prime(3), budget)
    if value is None:
        return None
    return ({"at_least_one": True}, {"at_least_one": value >= 1})


@_case("free-product-max",
       "joining two width-1 torus witnesses by a spread arc keeps width "
       "max(1, 1) = 1 (free-product upper bound)")
def _free_product(budget):
    t1 = labeled_torus(2, 4)
    t2 = labeled_torus(2, 4)
    sw = spread_wedge(t1, 0, t2, 0, arc_len=4)
    rep = hcwr_value(sw.complex, sw.labeling, FieldSpec.rationals())
    return ({"max_rank": 1}, {"max_rank": rep.max_rank})


@_case("product-bound",
       "a product with a circle, labeled through the first factor, has "
       "width <= 0 + rank(Z) = 1")
def _product_bound(budget):
    c4 = generate_circle(4)
    P = product_complex(c4, c4)
    f = pullback_labeling(circle_tent_labeling(4), c4.vertex_count)
    rep = hcwr_value(P, f, FieldSpec.rationals())
    return ({"max_rank": 1, "chi": 0, "betti1": 2},
            {"max_rank": rep.max_rank, "chi": euler_characteristic(P),
             "betti1": betti1(P, FieldSpec.rationals())})


def run_cases(case_filter: Optional[str] = None, budget: float = 120.0) -> dict:
    """Run all cases, or the one named ``case_filter``, giving each search
    ``budget`` seconds; returns a JSON-ready summary.  Raises ValueError
    on an unknown case name."""
    if case_filter is not None and case_filter not in _CASES:
        raise ValueError(f"unknown case {case_filter!r}; known cases: "
                         f"{', '.join(_CASES)}")
    cases = []
    for name, (claim, fn) in _CASES.items():
        if case_filter not in (None, name):
            continue
        t0 = time.monotonic()
        outcome = fn(budget)
        expected, actual = outcome or ({}, {})
        status = (SKIPPED if outcome is None
                  else PASS if expected == actual else FAIL)
        cases.append({"name": name, "status": status, "claim": claim,
                      "expected": expected, "actual": actual,
                      "seconds": round(time.monotonic() - t0, 3)})
    return {"cases": cases,
            "failures": sum(1 for c in cases if c["status"] == FAIL)}
