"""Minimize the homological width value over all morse labelings of a
fixed complex: branch-and-bound exhaustive search at desk scale,
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
# annealing schedule: temperature at step 0, multiplied by the rate per step
_INITIAL_TEMPERATURE = 200.0
_COOLING_RATE = 0.99999


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
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


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

    Labels are assigned in breadth-first order from vertex 0; the root
    label ranges over 0..ecc(vertex 0), which covers every
    translation-normalized labeling, and every later vertex takes the
    labels, lowest first, of its *window*: the nonnegative labels within
    one step of all its labeled neighbors.  The windows are kept per
    vertex and restored on backtrack.

    Branch and bound: after a vertex gets label l, its partial component
    in slab l - 1 and in slab l is grown through the labeled vertices of
    the slab and through the unlabeled ones whose window already lies in
    the slab.  Every completion puts that set inside one slab component,
    and image rank is monotone under vertex inclusion, so when its rank
    reaches the best value found so far the subtree is skipped.  A
    boundary slab lies inside the adjacent interior slab, so the bound
    needs no special case for it.

    The certificate is the first minimizer in this visiting order (not
    necessarily the lexicographically smallest one), and
    ``labelings_visited`` counts the complete labelings evaluated in the
    pruned tree.  Returns exhaustive = False (best so far is only an
    upper bound) when the time budget runs out first; a budget of 0
    runs out before the first label, whatever the clock's resolution.
    Runs in one thread; ``workers`` has no effect.
    """
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    n = K.vertex_count
    adjacency = [sorted(nbrs) for nbrs in K.adjacency]
    parent = bfs_parents(adjacency, range(n))  # K is connected: one root, 0
    order = list(parent)
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    dist = {}
    for v, u in parent.items():
        dist[v] = 0 if u == v else dist[u] + 1
    ecc = dist[order[-1]]
    # neighbors labeled after order[k], whose windows its label narrows
    later = [[w for w in adjacency[v] if position[w] > k]
             for k, v in enumerate(order)]
    labels = [0] * n
    lo = [0] * n
    hi = [math.inf] * n  # no labeled neighbor yet: unbounded above
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def forced_rank(v, k, a):
        """Image rank of v's partial component in slab ``a`` while
        positions 0..k are labeled."""
        comp = {v}
        todo = [v]
        while todo:
            for w in adjacency[todo.pop()]:
                if w not in comp and (
                        a <= labels[w] <= a + 1 if position[w] <= k
                        else a <= lo[w] and hi[w] <= a + 1):
                    comp.add(w)
                    todo.append(w)
        return calc.image_rank_of_vertices(frozenset(comp))

    best = None  # (value, labels tuple)
    visited = 0
    completed = True
    # stack[k] yields the labels left to try at order[k] and undo[k] the
    # windows its current label overwrote; a loop, not recursion, so deep
    # complexes stay under the recursion limit
    stack = [iter(range(ecc + 1))]
    undo = [[] for _ in range(n)]
    while stack:
        if deadline is not None and time.monotonic() >= deadline:
            completed = False
            break
        k = len(stack) - 1
        for w, old_lo, old_hi in undo[k]:
            lo[w] = old_lo
            hi[w] = old_hi
        undo[k].clear()
        label = next(stack[k], None)
        if label is None:
            stack.pop()
            continue
        v = order[k]
        labels[v] = label
        for w in later[k]:
            undo[k].append((w, lo[w], hi[w]))
            lo[w] = max(lo[w], label - 1)
            hi[w] = min(hi[w], label + 1)
        if best is not None and (forced_rank(v, k, label - 1) >= best[0]
                                 or forced_rank(v, k, label) >= best[0]):
            continue
        if k + 1 < n:
            w = order[k + 1]
            stack.append(iter(range(lo[w], hi[w] + 1)))
        elif min(labels) == 0:
            visited += 1
            value = slab_profile(calc, labels)[0]
            if best is None or value < best[0]:
                best = (value, tuple(labels))
                if value == 0:
                    break
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
        temp = _INITIAL_TEMPERATURE
        for _ in range(params.steps):
            if best[0] == 0:
                break
            v = rng.next_below(n)
            # top bit: the low bits of an LCG modulo 2^64 are short-period
            delta = 1 if rng.next_u64() >> 63 else -1
            new_l = labels[v] + delta
            if any(abs(new_l - labels[w]) > 1 for w in adjacency[v]):
                temp *= _COOLING_RATE
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
            temp *= _COOLING_RATE
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
