"""Command-line interface: generate | analyze | search | verify.

Reports are JSON on stdout unless --out is given.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import euler_characteristic
from .generators import (circle_tent_labeling, generate_circle, generate_torus,
                         parse_relator, presentation_complex, product_complex,
                         pullback_labeling, spread_wedge, tent_labeling,
                         wedge, LabeledComplex)
from .homology import FieldSpec, betti1
from .morse import MorseLabeling, constant_labeling, hcwr_value
from .scx import MissingLabels, read_scx, to_dict, write_scx
from .search import AnnealParams, anneal_min, exhaustive_min
from .verify import run_cases

# every input error the library raises is a ValueError (malformed JSON,
# labelings, generator parameters, SCX documents) or an OSError
_INPUT_ERRORS = (ValueError, OSError)


def _emit(doc: dict, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _summary(K, labeling=None) -> dict:
    doc = {
        "vertices": K.vertex_count,
        "simplices": len(K.simplices),
        "dim": K.dim,
        "euler_characteristic": euler_characteristic(K),
        "betti1_q": betti1(K, FieldSpec.rationals()),
    }
    if labeling is not None:
        doc["labels"] = list(labeling.labels)
    return doc


def _cmd_generate(args) -> int:
    labeling = None
    meta = {}
    if args.kind == "circle":
        if args.m is None:
            raise ValueError("circle needs --m")
        K = generate_circle(args.m)
        meta = {"generator": "circle", "m": args.m}
        if args.labels == "tent":
            labeling = circle_tent_labeling(args.m)
    elif args.kind == "torus":
        if args.dim is None or args.res is None:
            raise ValueError("torus needs --dim and --res")
        K = generate_torus(args.dim, args.res)
        meta = {"generator": "torus", "k": args.dim, "n": args.res,
                "axis": args.axis}
        if args.labels == "tent":
            labeling = tent_labeling(args.dim, args.res, args.axis)
    elif args.kind == "presentation":
        if args.gens is None or not args.relator:
            raise ValueError("presentation needs --gens and --relator")
        words = [parse_relator(w, args.gens) for w in args.relator]
        K = presentation_complex(args.gens, words)
        meta = {"generator": "presentation", "gens": args.gens,
                "relators": args.relator}
    elif args.kind in ("wedge", "spread-wedge", "product"):
        if not args.in1 or not args.in2:
            raise ValueError(f"{args.kind} needs --in1 and --in2")
        L1, _ = read_scx(args.in1)
        L2, _ = read_scx(args.in2)
        if args.kind == "wedge":
            K = wedge(L1.complex, args.v1, L2.complex, args.v2)
            meta = {"generator": "wedge"}
        elif args.kind == "spread-wedge":
            if L1.labeling is None or L2.labeling is None:
                raise MissingLabels("spread-wedge inputs must carry labels")
            out = spread_wedge(L1, args.v1, L2, args.v2, args.arc_len)
            K, labeling = out.complex, out.labeling
            meta = {"generator": "spread-wedge"}
        else:
            K = product_complex(L1.complex, L2.complex)
            meta = {"generator": "product",
                    "n2": L2.complex.vertex_count}
            if args.labels == "pullback":
                if L1.labeling is None:
                    raise MissingLabels("pullback labels need a labeled --in1")
                labeling = pullback_labeling(L1.labeling,
                                             L2.complex.vertex_count)
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    if args.labels == "constant" and labeling is None:
        labeling = constant_labeling(K)
    if args.out:
        write_scx(args.out, K, labeling, meta)
        _emit(_summary(K, labeling), None)
    else:
        _emit(to_dict(K, labeling, meta), None)
        print(json.dumps(_summary(K, labeling)), file=sys.stderr)
    return 0


def _resolve_labeling(args, L: LabeledComplex, meta: dict) -> MorseLabeling:
    K = L.complex
    if args.labels in (None, "file"):
        if L.labeling is None:
            raise MissingLabels("file carries no labels; pass --labels "
                                "tent or constant")
        return L.labeling
    if args.labels == "constant":
        return constant_labeling(K)
    if args.labels == "tent":
        gen, size = meta.get("generator"), K.vertex_count
        meta = {"axis": 0, **meta}
        keys = {"torus": ("k", "n", "axis"), "circle": ("m",)}.get(gen, ())
        if not keys or not all(type(meta.get(key)) is int for key in keys):
            raise MissingLabels("--labels tent needs the integer meta k, n "
                                "(and axis) of a torus or m of a circle")
        if gen == "circle" and meta["m"] == size:
            return circle_tent_labeling(size)
        if gen == "torus" and 0 < meta["k"] <= size == meta["n"] ** meta["k"]:
            return tent_labeling(meta["k"], meta["n"], meta["axis"])
        raise MissingLabels(f"{gen} meta does not match the {size} vertices "
                            f"of the complex")
    raise ValueError(f"unknown labels source {args.labels!r}")


def _cmd_analyze(args) -> int:
    L, meta = read_scx(args.input)
    f = _resolve_labeling(args, L, meta)
    field = FieldSpec.parse(args.field)
    rep = hcwr_value(L.complex, f, field)
    _emit(rep.to_json(), args.out)
    return 0


def _cmd_search(args) -> int:
    if args.mode != "exhaustive" and args.budget_seconds is not None:
        raise ValueError("--budget-seconds applies only to --mode exhaustive")
    L, _ = read_scx(args.input)
    field = FieldSpec.parse(args.field)
    if args.mode == "exhaustive":
        res = exhaustive_min(L.complex, field, time_budget=args.budget_seconds)
    else:
        params = AnnealParams(steps=args.steps, restarts=args.restarts,
                              seed=args.seed)
        res = anneal_min(L.complex, field, params)
    _emit(res.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    budget = 120.0 if args.budget_seconds is None else args.budget_seconds
    summary = run_cases(case_filter=args.case, budget=budget)
    for case in summary["cases"]:
        print(f"{case['name']}: {case['status']} ({case['seconds']:.2f}s)",
              file=sys.stderr)
    _emit(summary, args.out)
    return 1 if summary["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcwr",
        description="homological connected width rank of labeled "
                    "simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a witness complex")
    gen.add_argument("kind", choices=["circle", "torus", "wedge",
                                      "spread-wedge", "product",
                                      "presentation"])
    gen.add_argument("--m", type=int, help="circle vertex count")
    gen.add_argument("--dim", type=int, help="torus dimension k")
    gen.add_argument("--res", type=int, help="torus grid resolution n")
    gen.add_argument("--axis", type=int, default=0)
    gen.add_argument("--gens", type=int, help="presentation generators")
    gen.add_argument("--relator", action="append", default=[],
                     help="relator word, e.g. aaa or abAB (repeatable)")
    gen.add_argument("--in1", help="first input SCX file")
    gen.add_argument("--in2", help="second input SCX file")
    gen.add_argument("--v1", type=int, default=0)
    gen.add_argument("--v2", type=int, default=0)
    gen.add_argument("--arc-len", type=int, default=3)
    gen.add_argument("--labels", choices=["tent", "constant", "pullback"])
    gen.add_argument("--out")

    ana = sub.add_parser("analyze", help="width report of a labeled complex")
    ana.add_argument("input")
    ana.add_argument("--field", default="Q")
    ana.add_argument("--labels", choices=["tent", "constant", "file"])
    ana.add_argument("--out")

    sea = sub.add_parser("search", help="minimize width over labelings")
    sea.add_argument("input")
    sea.add_argument("--field", default="Q")
    sea.add_argument("--mode", choices=["exhaustive", "anneal"],
                     default="exhaustive")
    sea.add_argument("--seed", type=int, default=0)
    sea.add_argument("--steps", type=int, default=200_000)
    sea.add_argument("--restarts", type=int, default=4)
    sea.add_argument("--budget-seconds", type=float)
    sea.add_argument("--out")

    ver = sub.add_parser("verify", help="replay the width theorems")
    ver.add_argument("--case")
    ver.add_argument("--budget-seconds", type=float)
    ver.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "analyze": _cmd_analyze,
                "search": _cmd_search, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
