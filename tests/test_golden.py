"""Recorded width reports and exhaustive-search results.

Each value was recorded once from the library and is compared exactly, so
a change to a kernel (vertex-set format, elimination step, spanning tree)
that alters any reported integer, any component order or any certificate
fails here.  The inputs are seeded and built only from public generators.
"""
import pytest

from hcwr import (FieldSpec, constant_labeling, exhaustive_min,
                  generate_circle, generate_torus, hcwr_value,
                  presentation_complex, product_complex, pullback_labeling,
                  tent_labeling)
from hcwr.generators import circle_tent_labeling, parse_relator
from hcwr.morse import MorseLabeling

from conftest import random_walk, relabelled

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
FIELDS = {"Q": Q, "F3": F3}


def _report_inputs():
    for k, n in ((2, 5), (3, 4)):
        K = generate_torus(k, n)
        yield f"torus({k},{n}) tent", K, tent_labeling(k, n)
        yield f"torus({k},{n}) constant", K, constant_labeling(K)
        yield (f"torus({k},{n}) walk", K,
               MorseLabeling(random_walk(K, (0,) * K.vertex_count,
                                         10 * k + n)))
    K = product_complex(generate_circle(4), generate_torus(2, 4))
    yield ("circle(4)xtorus(2,4) pullback", K,
           pullback_labeling(circle_tent_labeling(4), 16))


REPORT_INPUTS = {name: (K, f) for name, K, f in _report_inputs()}

SEARCH_INPUTS = {
    "circle(3) Q": (lambda: generate_circle(3), Q),
    "circle(6) Q": (lambda: generate_circle(6), Q),
    "torus(2,3) Q": (lambda: generate_torus(2, 3), Q),
    "torus(2,4) Q": (lambda: generate_torus(2, 4), Q),
    "torus(3,4) Q": (lambda: generate_torus(3, 4), Q),
    "relabelled torus(2,4) Q": (lambda: relabelled(generate_torus(2, 4), 5),
                                Q),
    "<a|a^3> F3": (lambda: presentation_complex(1, [parse_relator("aaa", 1)]),
                   F3),
}


# (max_rank, (qf vertices, edges, betti1, class), slabs as (i, component,
# size, rank)), recorded before vertex sets became bitmasks
REPORT_GOLDEN = {
    ("torus(2,5) tent", "Q"): (
        1, (4, 4, 1, "circle"),
        [(-1, 0, 5, 1), (0, 0, 15, 1), (1, 0, 20, 1), (2, 0, 10, 1)]),
    ("torus(2,5) tent", "F3"): (
        1, (4, 4, 1, "circle"),
        [(-1, 0, 5, 1), (0, 0, 15, 1), (1, 0, 20, 1), (2, 0, 10, 1)]),
    ("torus(2,5) constant", "Q"): (
        2, (2, 1, 0, "tree"),
        [(-1, 0, 25, 2), (0, 0, 25, 2)]),
    ("torus(2,5) constant", "F3"): (
        2, (2, 1, 0, "tree"),
        [(-1, 0, 25, 2), (0, 0, 25, 2)]),
    ("torus(2,5) walk", "Q"): (
        2, (6, 5, 0, "tree"),
        [(-2, 0, 2, 0), (-2, 1, 4, 0), (-1, 0, 22, 2), (0, 0, 19, 2),
         (1, 0, 2, 0), (1, 1, 1, 0)]),
    ("torus(2,5) walk", "F3"): (
        2, (6, 5, 0, "tree"),
        [(-2, 0, 2, 0), (-2, 1, 4, 0), (-1, 0, 22, 2), (0, 0, 19, 2),
         (1, 0, 2, 0), (1, 1, 1, 0)]),
    ("torus(3,4) tent", "Q"): (
        2, (4, 4, 1, "circle"),
        [(-1, 0, 16, 2), (0, 0, 48, 2), (1, 0, 48, 2), (2, 0, 16, 2)]),
    ("torus(3,4) tent", "F3"): (
        2, (4, 4, 1, "circle"),
        [(-1, 0, 16, 2), (0, 0, 48, 2), (1, 0, 48, 2), (2, 0, 16, 2)]),
    ("torus(3,4) constant", "Q"): (
        3, (2, 1, 0, "tree"),
        [(-1, 0, 64, 3), (0, 0, 64, 3)]),
    ("torus(3,4) constant", "F3"): (
        3, (2, 1, 0, "tree"),
        [(-1, 0, 64, 3), (0, 0, 64, 3)]),
    ("torus(3,4) walk", "Q"): (
        3, (4, 3, 0, "tree"),
        [(-2, 0, 18, 3), (-1, 0, 62, 3), (0, 0, 46, 3), (1, 0, 2, 0)]),
    ("torus(3,4) walk", "F3"): (
        3, (4, 3, 0, "tree"),
        [(-2, 0, 18, 3), (-1, 0, 62, 3), (0, 0, 46, 3), (1, 0, 2, 0)]),
    ("circle(4)xtorus(2,4) pullback", "Q"): (
        2, (4, 4, 1, "circle"),
        [(-1, 0, 16, 2), (0, 0, 48, 2), (1, 0, 48, 2), (2, 0, 16, 2)]),
    ("circle(4)xtorus(2,4) pullback", "F3"): (
        2, (4, 4, 1, "circle"),
        [(-1, 0, 16, 2), (0, 0, 48, 2), (1, 0, 48, 2), (2, 0, 16, 2)]),
}

# (best_value, labelings_visited, certificate), recorded likewise
SEARCH_GOLDEN = {
    "circle(3) Q": (
        1, 1,
        [0, 0, 0]),
    "circle(6) Q": (
        0, 2,
        [0, 0, 1, 2, 1, 0]),
    "torus(2,3) Q": (
        2, 1,
        [0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "torus(2,4) Q": (
        1, 2,
        [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1]),
    "torus(3,4) Q": (
        2, 2,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1,
         1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
         2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    "relabelled torus(2,4) Q": (
        1, 2,
        [0, 2, 2, 1, 0, 0, 1, 0, 2, 1, 2, 1, 1, 1, 1, 1]),
    "<a|a^3> F3": (
        1, 1,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("name, field", sorted(REPORT_GOLDEN))
def test_report_matches_recorded(name, field):
    K, f = REPORT_INPUTS[name]
    max_rank, (vertices, edges, b1, cls), slabs = REPORT_GOLDEN[name, field]
    assert hcwr_value(K, f, FIELDS[field]).to_json() == {
        "field": FIELDS[field].label,
        "max_rank": max_rank,
        "qf": {"vertices": vertices, "edges": edges, "betti1": b1,
               "class": cls},
        "slabs": [{"i": i, "component": c, "size": size, "rank": rank}
                  for i, c, size, rank in slabs]}


@pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
def test_exhaustive_matches_recorded(name):
    make, F = SEARCH_INPUTS[name]
    value, visited, certificate = SEARCH_GOLDEN[name]
    assert exhaustive_min(make(), F).to_json() == {
        "best_value": value, "certificate": certificate, "exhaustive": True,
        "labelings_visited": visited, "seed": None}
