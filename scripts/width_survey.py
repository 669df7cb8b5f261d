#!/usr/bin/env python3
"""Survey the width landscape over small witness families.

For each family member, report betti1, the tent/constant labeling values
where applicable, and the searched minimum (exhaustive when it finishes
inside the per-complex budget, else the best labeling the enumeration
reached, an upper bound).

Usage: python3 scripts/width_survey.py [--budget SECONDS] [--field Q|Fp:p]
"""
import argparse
import sys

from hcwr import (FieldSpec, betti1, certified_bounds, circle_tent_labeling,
                  generate_circle, hcwr_value, labeled_torus,
                  presentation_complex, product_complex, pullback_labeling)
from hcwr.generators import parse_relator


def survey_rows(field):
    for m in (3, 4, 5, 6, 8):
        K = generate_circle(m)
        tent = hcwr_value(K, circle_tent_labeling(m), field).max_rank
        yield f"circle({m})", K, tent
    for (k, n) in ((2, 3), (2, 4), (2, 5)):
        L = labeled_torus(k, n)
        tent = hcwr_value(L.complex, L.labeling, field).max_rank
        yield f"torus({k},{n})", L.complex, tent
    c4 = generate_circle(4)
    P = product_complex(c4, c4)
    f = pullback_labeling(circle_tent_labeling(4), 4)
    yield "circle(4) x circle(4)", P, hcwr_value(P, f, field).max_rank
    M = presentation_complex(1, [parse_relator("aaa", 1)])
    yield "<a | a^3>", M, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=20.0,
                    help="per-complex exhaustive budget in seconds")
    ap.add_argument("--field", default="Q")
    args = ap.parse_args()
    field = FieldSpec.parse(args.field)

    header = f"{'complex':<22} {'V':>4} {'b1':>3} {'tent':>5} {'min':>5}  proof"
    print(header)
    print("-" * len(header))
    for name, K, tent in survey_rows(field):
        lo, hi, details = certified_bounds(K, field, time_budget=args.budget)
        proof = ("exhaustive" if details["method"] == "exhaustive"
                 else f"bounds [{lo},{hi}]")
        shown = hi if lo == hi else f"<={hi}"
        tent_s = "-" if tent is None else tent
        print(f"{name:<22} {K.vertex_count:>4} {betti1(K, field):>3} "
              f"{tent_s:>5} {shown:>5}  {proof}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
