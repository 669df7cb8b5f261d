"""Minimize the homological width value over all morse labelings of a
fixed complex: exhaustive enumeration with pruning at desk scale,
simulated annealing beyond it.

Both searches are deterministic: the enumeration visits labelings in a
fixed breadth-first/lexicographic order and annealing draws from a fully
specified 64-bit linear congruential generator, so identical inputs
and seeds produce identical results.  Both run in one thread: under the
interpreter lock, thread pools over root branches and restarts measured
no speed-up, so the ``workers`` keyword is accepted and has no effect.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import SimplicialComplex, bfs_parents
from .homology import FieldSpec, H1Calculator
from .morse import MorseLabeling, require_connected, slab_profile

_MASK64 = (1 << 64) - 1
# Knuth MMIX multiplier / increment.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
# odd constant used to derive independent per-restart streams
_STREAM_STEP = 0x9E3779B97F4A7C15


class Lcg:
    """64-bit linear congruential generator:
    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return self.state

    def next_below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def next_unit(self) -> float:
        return self.next_u64() / 2.0 ** 64


@dataclass(frozen=True)
class AnnealParams:
    steps: int = 200_000
    initial_temperature: Fraction = Fraction(200)
    cooling_rate: Fraction = Fraction(99_999, 100_000)
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must lie in (0, 1)")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")


@dataclass
class SearchResult:
    best_value: int
    certificate: MorseLabeling
    exhaustive: bool
    labelings_visited: int
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "best_value": self.best_value,
            "certificate": list(self.certificate.labels),
            "exhaustive": self.exhaustive,
            "labelings_visited": self.labelings_visited,
            "seed": self.seed,
        }


def exhaustive_min(K: SimplicialComplex, F: FieldSpec,
                   time_budget: Optional[float] = None,
                   workers: int = 1) -> SearchResult:
    """Proven minimum over all morse labelings, normalized to min label 0.

    Labels are assigned in breadth-first order from vertex 0, each
    constrained to the window forced by already-labeled neighbors and to
    be nonnegative; the root label ranges over 0..ecc(vertex 0), which
    covers every translation-normalized labeling.  Returns exhaustive =
    False (best so far is only an upper bound) when the time budget runs
    out first.  Runs in one thread; ``workers`` has no effect.
    """
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    n = K.vertex_count
    adjacency = [sorted(nbrs) for nbrs in K.adjacency]
    parent = bfs_parents(adjacency, range(n))  # K is connected: one root, 0
    order = list(parent)
    dist = {}
    for v, u in parent.items():
        dist[v] = 0 if u == v else dist[u] + 1
    ecc = max(dist.values())
    earlier = []  # labeled neighbors of order[pos] at each position
    placed = set()
    for v in order:
        earlier.append([w for w in adjacency[v] if w in placed])
        placed.add(v)
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def run_branch(root_label):
        labels = [0] * n
        labels[order[0]] = root_label
        best = None  # (value, labels tuple)
        visited = 0
        if n == 1:
            # single vertex: the only slab is the vertex itself
            return ((0, (0,)), 1, True) if root_label == 0 else (None, 0, True)
        # stack[i] yields the labels left to try at order[i + 1]; a loop,
        # not recursion, so deep complexes stay under the recursion limit
        stack = []
        pos = 1
        while best is None or best[0] != 0:
            if deadline is not None and time.monotonic() > deadline:
                return best, visited, False
            if pos == n:
                if min(labels) == 0:
                    visited += 1
                    cand = (slab_profile(calc, labels)[0], tuple(labels))
                    if best is None or cand < best:
                        best = cand
            else:
                nbrs = earlier[pos]
                lo = max(labels[w] for w in nbrs) - 1
                hi = min(labels[w] for w in nbrs) + 1
                stack.append(iter(range(max(lo, 0), hi + 1)))
            while stack:
                label = next(stack[-1], None)
                if label is not None:
                    labels[order[len(stack)]] = label
                    pos = len(stack) + 1
                    break
                stack.pop()
            else:
                break
        return best, visited, True

    best = None
    visited = 0
    completed = True
    for b, vis, comp in map(run_branch, range(ecc + 1)):
        visited += vis
        completed = completed and comp
        if b is not None and (best is None or b < best):
            best = b
    if best is None:
        # budget expired before any complete labeling: fall back to constant
        labels = (0,) * n
        best = (slab_profile(calc, labels)[0], labels)
        completed = False
    return SearchResult(best_value=best[0],
                        certificate=MorseLabeling(best[1]),
                        exhaustive=completed,
                        labelings_visited=visited)


def _derive_seed(seed: int, restart: int) -> int:
    return (seed + _STREAM_STEP * (restart + 1)) & _MASK64


def anneal_min(K: SimplicialComplex, F: FieldSpec,
               params: Optional[AnnealParams] = None,
               workers: int = 1) -> SearchResult:
    """Simulated annealing over labelings with single-vertex +-1 moves.

    The energy is lexicographic (max rank, #components at max, sum of
    ranks) to smooth the plateaus of the raw objective; the reported
    value is always the plain max rank of the certificate.  Restarts use
    independent LCG streams derived from the seed and run one after
    another in one thread; ``workers`` has no effect.
    """
    if params is None:
        params = AnnealParams()
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    adjacency = K.adjacency
    n = K.vertex_count
    t0 = float(params.initial_temperature)
    rate = float(params.cooling_rate)

    def energy(profile):
        mx, cnt, total = profile
        return mx * 100_000 + min(cnt, 999) * 100 + min(total, 99)

    memo = {}  # translation-normalized labels -> slab profile

    def profile_of(labels):
        m = min(labels)
        key = tuple(l - m for l in labels)
        prof = memo.get(key)
        if prof is None:
            prof = slab_profile(calc, labels)
            memo[key] = prof
        return prof

    def run_restart(r):
        rng = Lcg(_derive_seed(params.seed, r))
        labels = [0] * n
        cur = profile_of(labels)
        cur_e = energy(cur)
        best = (cur[0], tuple(labels))
        temp = t0
        for _ in range(params.steps):
            if best[0] == 0:
                break
            v = rng.next_below(n)
            # top bit: the low bits of an LCG modulo 2^64 are short-period
            delta = 1 if rng.next_u64() >> 63 else -1
            new_l = labels[v] + delta
            if any(abs(new_l - labels[w]) > 1 for w in adjacency[v]):
                temp *= rate
                continue
            old_l = labels[v]
            labels[v] = new_l
            prof = profile_of(labels)
            e = energy(prof)
            if e <= cur_e or rng.next_unit() < math.exp((cur_e - e) / max(temp, 1e-9)):
                cur, cur_e = prof, e
                cand = (prof[0], tuple(labels))
                if cand < best:
                    best = cand
            else:
                labels[v] = old_l
            temp *= rate
        return best

    best = min(map(run_restart, range(params.restarts)))
    return SearchResult(best_value=best[0],
                        certificate=MorseLabeling(best[1]),
                        exhaustive=False,
                        labelings_visited=params.steps * params.restarts,
                        seed=params.seed)


def certified_bounds(K: SimplicialComplex, F: FieldSpec,
                     time_budget: Optional[float] = None):
    """(lower, upper, details) for the labeling-minimal width value.

    Exhaustive completion pins both bounds; when the time budget cuts the
    enumeration, the lower bound is the trivial 0 and the upper bound the
    best labeling the enumeration reached (method ``"partial"``).
    """
    exh = exhaustive_min(K, F, time_budget=time_budget)
    details = {"method": "exhaustive" if exh.exhaustive else "partial",
               "visited": exh.labelings_visited,
               "certificate": list(exh.certificate.labels)}
    lower = exh.best_value if exh.exhaustive else 0
    return lower, exh.best_value, details
