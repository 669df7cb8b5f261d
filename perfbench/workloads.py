"""Seeded inputs, operations and output checks of the three workloads.

Every input is derived from the benchmark seed during set-up; the timed
phase only replays library calls on them.  One *op* is one top-level
library call (for ``analyze``, the call sequence of one ``hcwr analyze``
invocation).  A workload's inputs form a pool of rounds: each round is a
fixed list of ops of the same composition with fresh seeded inputs, and
the timed phase always runs whole rounds, so the latency mix of a run
does not depend on where its time ran out.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

@dataclass
class Op:
    label: str
    vertices: int
    call: Callable[[], object]
    expect: object
    check: Callable[["Op", object], Optional[str]]  # message when wrong


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (modules, rng, tmpdir, round_index, tiny) -> [Op]
    pool_rounds: int  # distinct seeded rounds; the timed phase cycles them


def _relabel(m, K, rng):
    """The same complex with its vertex ids permuted by ``rng``."""
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    simplices = [[perm[v] for v in s] for s in m.complexes.maximal_simplices(K)]
    return m.complexes.build_complex(simplices, K.vertex_count)


def _random_walk(m, K, start, moves, rng):
    """``moves`` attempted single-vertex +-1 steps from ``start``; a step
    is taken only when the labeling stays valid."""
    labels = list(start.labels)
    adjacency = K.adjacency
    n = K.vertex_count
    for _ in range(moves):
        v = rng.randrange(n)
        new = labels[v] + rng.choice((-1, 1))
        if all(abs(new - labels[w]) <= 1 for w in adjacency[v]):
            labels[v] = new
    return m.morse.MorseLabeling(tuple(labels))


# --- analyze ---------------------------------------------------------------

# Ops come in cost tiers sized so that p50 (op 20 of 40) falls among the
# medium ops and p90 (op 36) among the heavy ones, away from tier edges.
# (family, size, field, labels).  Families: torus(k, n); product of
# circle(a) and circle(b); product of circle(a) and torus(2, b).  Labels:
# "tent" and "constant" are resolved by the op as `hcwr analyze --labels`
# does; "pullback" (a circle tent pulled back to the product) and "walk"
# are stored in the SCX file.
_ANALYZE_ROUND = [
    # 16 light ops: 2-tori and circle x circle
    *[("torus", (2, n), f, l) for n in range(8, 13)
      for f, l in (("Q", "tent"), ("F3", "constant"))],
    ("torus", (2, 8), "Q", "walk"), ("torus", (2, 10), "F3", "walk"),
    ("torus", (2, 12), "Q", "walk"),
    ("circle_circle", (4, 8), "Q", "pullback"),
    ("circle_circle", (4, 8), "F3", "walk"),
    ("circle_circle", (5, 9), "Q", "constant"),
    # 16 medium ops: torus(3,4) and circle x 2-torus
    *[("torus", (3, 4), f, l) for f, l in (
        ("Q", "tent"), ("F3", "tent"), ("Q", "constant"), ("F3", "constant"),
        ("Q", "walk"), ("F3", "walk"))],
    *[("circle_torus", (4, 4), f, l) for f, l in (
        ("Q", "pullback"), ("F3", "pullback"), ("F3", "constant"),
        ("Q", "walk"))],
    ("circle_torus", (5, 4), "Q", "walk"),
    ("circle_torus", (5, 4), "F3", "pullback"),
    ("circle_torus", (5, 4), "Q", "constant"),
    ("circle_torus", (4, 5), "F3", "pullback"),
    ("circle_torus", (4, 5), "Q", "walk"),
    ("circle_torus", (4, 5), "F3", "constant"),
    # 8 heavy ops: torus(3,5..7)
    *[("torus", (3, 5), f, l) for f, l in (
        ("Q", "tent"), ("Q", "constant"), ("F3", "tent"), ("F3", "constant"),
        ("F3", "walk"), ("F3", "walk"))],
    ("torus", (3, 6), "F3", "tent"), ("torus", (3, 7), "F3", "tent"),
]
_ANALYZE_TINY = [
    ("torus", (2, 4), "Q", "tent"), ("torus", (2, 5), "F3", "constant"),
    ("torus", (2, 6), "Q", "walk"), ("circle_circle", (4, 4), "Q", "pullback"),
]
_FIELD_TEXT = {"Q": "Q", "F3": "Fp:3"}


def _analyze_call(m, path, field_text, labels):
    """One `hcwr analyze PATH --field F [--labels tent|constant]`."""
    L, meta = m.scx.read_scx(path)
    K = L.complex
    if labels == "tent":
        f = m.generators.tent_labeling(meta["k"], meta["n"], meta.get("axis", 0))
    elif labels == "constant":
        f = m.morse.constant_labeling(K)
    else:
        f = L.labeling
    bad = m.morse.validate_labeling(K, f)
    if bad:
        raise m.morse.InvalidLabeling(bad)
    F = m.homology.FieldSpec.parse(field_text)
    calc = m.homology.H1Calculator(K, F)
    report = m.morse.hcwr_value(K, f, F, calc)
    return json.dumps(report.to_json(), indent=2)


def _check_analyze(op, out):
    lo, hi = op.expect
    value = json.loads(out)["max_rank"]
    if not lo <= value <= hi:
        want = lo if lo == hi else f"{lo}..{hi}"
        return f"max_rank {value}, expected {want}"
    return None


def _analyze_input(m, family, size, cache):
    """(complex, meta, betti1, pullback labeling or None).  betti1 is the
    known topological value: k for the k-torus, 2 for circle x circle and
    3 for circle x 2-torus, over every field."""
    key = (family, size)
    if key in cache:
        return cache[key]
    g = m.generators
    if family == "torus":
        k, n = size
        K = g.generate_torus(k, n)
        out = (K, {"generator": "torus", "k": k, "n": n, "axis": 0}, k, None)
    else:
        a, b = size
        second = g.generate_circle(b) if family == "circle_circle" \
            else g.generate_torus(2, b)
        K = g.product_complex(g.generate_circle(a), second)
        pullback = g.pullback_labeling(g.circle_tent_labeling(a),
                                       second.vertex_count)
        b1 = 2 if family == "circle_circle" else 3
        out = (K, {"generator": "product", "n2": second.vertex_count}, b1,
               pullback)
    cache[key] = out
    return out


def build_analyze(m, rng, tmpdir, round_index, tiny):
    ops = []
    cache = {}
    base_docs = {}
    for j, (family, size, field, labels) in enumerate(
            _ANALYZE_TINY if tiny else _ANALYZE_ROUND):
        K, meta, b1, pullback = _analyze_input(m, family, size, cache)
        if (family, size) not in base_docs:
            base_docs[(family, size)] = m.scx.to_dict(K, None, meta)
        doc = dict(base_docs[(family, size)])
        source = labels
        if labels == "tent":
            expect = (size[0] - 1, size[0] - 1)  # tent of torus(k, n): k - 1
        elif labels == "constant":
            expect = (b1, b1)  # one slab: all of H1
        elif labels == "pullback":
            # slab components are (arc x second factor): betti1 of that factor
            expect = (b1 - 1, b1 - 1)
            doc["labels"] = list(pullback.labels)
            source = "file"
        else:
            f = _random_walk(m, K, m.morse.constant_labeling(K),
                             4 * K.vertex_count, rng)
            expect = (0, b1)
            doc["labels"] = list(f.labels)
            source = "file"
        path = tmpdir / f"analyze-{round_index}-{j}.scx"
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        name = f"{family}{size} {field} {labels}"
        call = (lambda p=path, ft=_FIELD_TEXT[field], s=source:
                _analyze_call(m, p, ft, s))
        ops.append(Op(name, K.vertex_count, call, expect, _check_analyze))
    return ops


# --- exhaustive ------------------------------------------------------------

# (name, constructor, field, proven minimum).  torus(2,3) = 2 is the
# enumerated truth at that resolution (the theorem value 1 needs n >= 4).
# Cost rises along the ladder, so p50 (op 8 of 16) falls among the
# torus(2,3) proofs and p75 (op 12) among the <a|a^3> ones.
def _exhaustive_ladder(m, tiny):
    g = m.generators
    circles = (3, 5) if tiny else (3, 4, 12)
    ladder = [(f"circle({c})", lambda c=c: g.generate_circle(c), "Q",
               1 if c == 3 else 0) for c in circles]
    if tiny:
        return ladder + [("torus(2,3)", lambda: g.generate_torus(2, 3), "Q", 2)]
    moore = (lambda: g.presentation_complex(1, [g.parse_relator("aaa", 1)]))
    return (ladder
            + [("torus(2,3)", lambda: g.generate_torus(2, 3), "Q", 2)] * 6
            + [("<a|a^3>", moore, "F3", 1)] * 6
            + [("torus(2,4)", lambda: g.generate_torus(2, 4), "Q", 1)])


def _check_certificate(m, K, F, res):
    f = res.certificate
    if m.morse.validate_labeling(K, f):
        return "certificate is not a valid labeling"
    value = m.morse.hcwr_value(K, f, F).max_rank
    if value != res.best_value:
        return f"certificate evaluates to {value}, best_value {res.best_value}"
    return None


def build_exhaustive(m, rng, tmpdir, round_index, tiny):
    ops = []
    for name, make, field, minimum in _exhaustive_ladder(m, tiny):
        K = _relabel(m, make(), rng)
        F = m.homology.FieldSpec.parse(_FIELD_TEXT[field])

        def check(op, res, K=K, F=F):
            if not res.exhaustive:
                return "search did not complete"
            if res.best_value != op.expect:
                return f"best_value {res.best_value}, proven minimum {op.expect}"
            if min(res.certificate.labels) != 0:
                return "certificate is not normalized to min 0"
            return _check_certificate(m, K, F, res)

        call = lambda K=K, F=F: m.search.exhaustive_min(K, F, workers=1)
        ops.append(Op(f"{name} {field}", K.vertex_count, call, minimum, check))
    return ops


# --- anneal ----------------------------------------------------------------

ANNEAL_STEPS, ANNEAL_RESTARTS = 1500, 2
_ANNEAL_TINY_STEPS = 200


def build_anneal(m, rng, tmpdir, round_index, tiny):
    g = m.generators
    # Every complex is a 2-torus, whose minimum is 1 at every resolution,
    # so no op stops early and the work per op is steps x restarts.  In
    # rising cost, p50 (op 15 of 30) falls among the torus(2,4) ops and
    # p90 (op 27) among the torus(2,5) ones.
    inputs = [("circle(3)xcircle(5)", lambda: g.product_complex(
                  g.generate_circle(3), g.generate_circle(5))),
              ("torus(2,4)", lambda: g.generate_torus(2, 4)),
              ("torus(2,5)", lambda: g.generate_torus(2, 5))]
    steps = _ANNEAL_TINY_STEPS if tiny else ANNEAL_STEPS
    repeats = 1 if tiny else 10
    F = m.homology.FieldSpec.rationals()
    ops = []
    for name, make in [i for i in inputs for _ in range(repeats)]:
        K = _relabel(m, make(), rng)
        params = m.search.AnnealParams(steps=steps, restarts=ANNEAL_RESTARTS,
                                       seed=rng.getrandbits(32))

        def check(op, res, K=K, params=params):
            if res.labelings_visited != params.steps * params.restarts:
                return f"labelings_visited {res.labelings_visited}"
            if res.best_value < op.expect:
                return f"best_value {res.best_value} below minimum {op.expect}"
            return _check_certificate(m, K, F, res)

        call = lambda K=K, params=params: m.search.anneal_min(K, F, params,
                                                              workers=1)
        ops.append(Op(name, K.vertex_count, call, 1, check))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("analyze",
             "Cold width reports: every op builds a new calculator, so H1 "
             "precompute, first-time queries and the quotient graph dominate; "
             "search never runs and only this workload reads SCX.",
             build_analyze, pool_rounds=4),
    Workload("exhaustive",
             "Proven minima on a fixed ladder: the enumeration loop and hot, "
             "heavily repeated image-rank queries dominate; no SCX or "
             "quotient graph.",
             build_exhaustive, pool_rounds=4),
    Workload("anneal",
             "Fixed-step annealing on 2-tori: the move loop, the LCG and the "
             "unbounded profile memo dominate, so memory moves here first.",
             # The cost of an anneal op depends on its seed, so a run
             # covers as many distinct rounds as it has time for.
             build_anneal, pool_rounds=8),
)}


def round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    """Independent input stream per (seed, workload, round)."""
    return random.Random(f"{seed}:{workload}:{round_index}")
