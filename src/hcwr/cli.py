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
                         pullback_labeling, require_axis, spread_wedge,
                         tent_labeling, wedge, LabeledComplex)
from .homology import FieldSpec, betti1
from .morse import MorseLabeling, constant_labeling, hcwr_value
from .scx import read_scx, to_dict, write_scx
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
    labels = getattr(args, "labels", None)  # spread-wedge has no --labels
    labeling = None
    meta = {"generator": args.kind}
    if args.kind == "circle":
        K = generate_circle(args.m)
        meta["m"] = args.m
        if labels == "tent":
            labeling = circle_tent_labeling(args.m)
    elif args.kind == "torus":
        if args.dim >= 1:  # else generate_torus names the dimension
            require_axis(args.dim, args.axis)
        K = generate_torus(args.dim, args.res)
        meta.update(k=args.dim, n=args.res, axis=args.axis)
        if labels == "tent":
            labeling = tent_labeling(args.dim, args.res, args.axis)
    elif args.kind == "presentation":
        words = [parse_relator(w, args.gens) for w in args.relator]
        K = presentation_complex(args.gens, words)
        meta.update(gens=args.gens, relators=args.relator)
    else:
        L1, _ = read_scx(args.in1)
        L2, _ = read_scx(args.in2)
        if args.kind == "wedge":
            K = wedge(L1.complex, args.v1, L2.complex, args.v2)
        elif args.kind == "spread-wedge":
            out = spread_wedge(L1, args.v1, L2, args.v2, args.arc_len)
            K, labeling = out.complex, out.labeling
        else:
            K = product_complex(L1.complex, L2.complex)
            meta["n2"] = L2.complex.vertex_count
            if labels == "pullback":
                if L1.labeling is None:
                    raise ValueError("pullback labels need a labeled --in1")
                labeling = pullback_labeling(L1.labeling, meta["n2"])
    if labels == "constant":
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
            raise ValueError("file carries no labels; pass --labels "
                             "tent or constant")
        return L.labeling
    if args.labels == "constant":
        return constant_labeling(K)
    gen, size = meta.get("generator"), K.vertex_count
    meta = {"axis": 0, **meta}
    keys = ({"torus": ("k", "n", "axis"), "circle": ("m",)}.get(gen, ())
            if isinstance(gen, str) else ())
    if not keys or not all(type(meta.get(key)) is int for key in keys):
        raise ValueError("--labels tent needs the integer meta k, n "
                         "(and axis) of a torus or m of a circle")
    if gen == "circle" and meta["m"] == size:
        return circle_tent_labeling(size)
    if gen == "torus":
        k, n = meta["k"], meta["n"]
        # n^k = size forces k <= log2(size) unless |n| <= 1, so a
        # larger k is refused before a huge n is raised to it
        if 0 < k <= size.bit_length() and n ** k == size:
            return tent_labeling(k, n, meta["axis"])
    raise ValueError(f"{gen} meta does not match the {size} vertices "
                     f"of the complex")


def _cmd_analyze(args) -> int:
    L, meta = read_scx(args.input)
    f = _resolve_labeling(args, L, meta)
    field = FieldSpec.parse(args.field)
    rep = hcwr_value(L.complex, f, field)
    _emit(rep.to_json(), args.out)
    return 0


def _given(args, *names) -> dict:
    """The named options given on the command line, as keyword arguments."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _cmd_search(args) -> int:
    anneal = _given(args, "steps", "restarts", "seed")
    if args.mode == "exhaustive" and anneal:
        raise ValueError(f"--{next(iter(anneal))} applies only to "
                         f"--mode anneal")
    if args.mode != "exhaustive" and args.budget_seconds is not None:
        raise ValueError("--budget-seconds applies only to --mode exhaustive")
    L, _ = read_scx(args.input)
    field = FieldSpec.parse(args.field)
    if args.mode == "exhaustive":
        res = exhaustive_min(L.complex, field, time_budget=args.budget_seconds)
    else:
        res = anneal_min(L.complex, field, AnnealParams(**anneal))
    _emit(res.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    summary = run_cases(case_filter=args.case, **_given(args, "budget"))
    for case in summary["cases"]:
        print(f"{case['name']}: {case['status']} ({case['seconds']:.2f}s)",
              file=sys.stderr)
    _emit(summary, args.out)
    return 1 if summary["failures"] else 0


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, which ``main`` reports as
    it reports input errors; subparsers are made of the same class, so
    each names the (sub)command it met, unrecognized arguments too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcwr",
        description="homological connected width rank of labeled "
                    "simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a witness complex")
    kinds = gen.add_subparsers(dest="kind", required=True)
    circle = kinds.add_parser("circle", help="simplicial circle")
    circle.add_argument("--m", type=int, required=True, help="vertex count")
    torus = kinds.add_parser("torus", help="Freudenthal torus on (Z/n)^k")
    torus.add_argument("--dim", type=int, required=True, help="dimension k")
    torus.add_argument("--res", type=int, required=True, help="resolution n")
    torus.add_argument("--axis", type=int, default=0, help="tent label axis")
    pres = kinds.add_parser("presentation", help="presentation 2-complex")
    pres.add_argument("--gens", type=int, required=True, help="generators")
    pres.add_argument("--relator", action="append", required=True,
                      help="relator word, e.g. aaa or abAB (repeatable)")
    for name, text in [("wedge", "wedge at vertices --v1 and --v2"),
                       ("spread-wedge", "labeled inputs joined by an arc"),
                       ("product", "staircase product")]:
        p = kinds.add_parser(name, help=text)
        p.add_argument("--in1", required=True, help="first input SCX file")
        p.add_argument("--in2", required=True, help="second input SCX file")
        if name != "product":
            p.add_argument("--v1", type=int, default=0)
            p.add_argument("--v2", type=int, default=0)
        if name == "spread-wedge":
            p.add_argument("--arc-len", type=int, default=3)
    labels = {"circle": ["tent", "constant"], "torus": ["tent", "constant"],
              "presentation": ["constant"], "wedge": ["constant"],
              "product": ["pullback", "constant"]}
    for name, p in kinds.choices.items():
        if name in labels:
            p.add_argument("--labels", choices=labels[name])
        p.add_argument("--out")

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
    sea.add_argument("--seed", type=int, help="anneal only")
    sea.add_argument("--steps", type=int, help="anneal only")
    sea.add_argument("--restarts", type=int, help="anneal only")
    sea.add_argument("--budget-seconds", type=float, help="exhaustive only")
    sea.add_argument("--out")

    ver = sub.add_parser("verify", help="replay the width theorems")
    ver.add_argument("--case")
    ver.add_argument("--budget-seconds", type=float, dest="budget")
    ver.add_argument("--out")
    return parser


def main(argv=None) -> int:
    handlers = {"generate": _cmd_generate, "analyze": _cmd_analyze,
                "search": _cmd_search, "verify": _cmd_verify}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
