"""Minimize the homological width value over all morse labelings of a
fixed complex: branch-and-bound exhaustive search at desk scale,
simulated annealing beyond it.

Both score a labeling with the one objective of ``morse``: the states
(max rank, #components at max, sum of ranks) of its interior slabs,
combined.  Vertex sets are bitmasks, and each search keeps one bounded
memo (``_Memo``, emptied at ``CACHE_LIMIT`` keys): the enumeration of
the image ranks of the forced components it bounds by, annealing of the
slab states of its level bitmasks (a move changes two slabs).

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
from .morse import (MorseLabeling, combine_slab_states, require_connected,
                    slab_masks, slab_profile, slab_state)

_MASK64 = (1 << 64) - 1
# Knuth MMIX multiplier / increment.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
# odd constant used to derive independent per-restart streams
_STREAM_STEP = 0x9E3779B97F4A7C15
# annealing schedule: temperature at step 0, multiplied by the rate per step
_INITIAL_TEMPERATURE = 200.0
_COOLING_RATE = 0.99999
# Keys a search memo holds; it is emptied when full, so a long search
# holds at most this many.  No benchmark op comes near it.
CACHE_LIMIT = 1 << 16


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
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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


def require_budget(time_budget: Optional[float]) -> None:
    """Raise ValueError unless ``time_budget`` is None or a number >= 0."""
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"budget must be a number >= 0, got {time_budget}")


def exhaustive_min(K: SimplicialComplex, F: FieldSpec,
                   time_budget: Optional[float] = None,
                   workers: int = 1) -> SearchResult:
    """Proven minimum over all morse labelings, normalized to min label 0.

    Labels are assigned in breadth-first order from vertex 0; the root
    label ranges over 0..ecc(vertex 0), which covers every
    translation-normalized labeling, and every later vertex takes the
    labels, lowest first, of its *window*: the nonnegative labels within
    one step of all its labeled neighbors.  The windows are kept per
    vertex and restored on backtrack; a label is a window of width zero.

    Branch and bound: after a vertex gets label l, its partial component
    in slab l - 1 and in slab l is grown through the vertices whose
    window already lies in the slab.  Every completion puts that set
    inside one slab component, and image rank is monotone under vertex
    inclusion, so when its rank reaches the best value found so far the
    subtree is skipped.  A boundary slab lies inside the adjacent
    interior slab, so the bound needs no special case for it.  The ranks
    of these sets are memoized by vertex mask: most of them recur across
    sibling subtrees.

    The certificate is the first minimizer in this visiting order (not
    necessarily the lexicographically smallest one), and
    ``labelings_visited`` counts the complete labelings evaluated in the
    pruned tree.  Returns exhaustive = False (best so far is only an
    upper bound) when the time budget runs out first; a budget of 0
    runs out before the first label, whatever the clock's resolution.
    Raises ValueError for a budget that is not a number >= 0 (NaN would
    never run out).
    Runs in one thread; ``workers`` has no effect.
    """
    require_budget(time_budget)
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    ranks = _Memo(calc.image_rank_of_vertices)
    n = K.vertex_count
    adjacency = K.adjacency
    bit = [1 << v for v in range(n)]
    seen = [None] * n  # per vertex, the stamp of the walk that last met it
    parent = bfs_parents(K.neighbours, (1 << n) - 1)  # connected: root 0
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
    # per vertex its window, lo[v] = hi[v] = the label once labeled
    lo = [0] * n
    hi = [math.inf] * n  # no labeled neighbor yet: unbounded above
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def forced_rank(v, a):
        """Image rank of v's partial component in slab ``a``."""
        comp = bit[v]
        todo = [v]
        seen[v] = stamp = object()  # marks this walk's vertices
        while todo:
            for w in adjacency[todo.pop()]:
                if seen[w] is not stamp and a <= lo[w] and hi[w] <= a + 1:
                    seen[w] = stamp
                    comp |= bit[w]
                    todo.append(w)
        return ranks[comp]

    best = None  # (value, labels tuple)
    visited = 0
    completed = True
    # stack[k] yields the labels left to try at order[k] and undo[k] the
    # windows its current label overwrote, its own among them; a loop,
    # not recursion, so deep complexes stay under the recursion limit
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
        undo[k].append((v, lo[v], hi[v]))
        lo[v] = hi[v] = label
        for w in later[k]:
            undo[k].append((w, lo[w], hi[w]))
            lo[w] = max(lo[w], label - 1)
            hi[w] = min(hi[w], label + 1)
        if best is not None and (forced_rank(v, label - 1) >= best[0]
                                 or forced_rank(v, label) >= best[0]):
            continue
        if k + 1 < n:
            w = order[k + 1]
            stack.append(iter(range(lo[w], hi[w] + 1)))
        elif min(lo) == 0:  # every window is a label now
            visited += 1
            value = slab_profile(calc, lo)[0]
            if best is None or value < best[0]:
                best = (value, tuple(lo))
                if value == 0:
                    break
    if best is None:
        # no leaf within the budget: the constant labeling, of value betti1
        best = (calc.betti1, (0,) * n)
        completed = False
    return SearchResult(best_value=best[0],
                        certificate=MorseLabeling(best[1]),
                        exhaustive=completed,
                        labelings_visited=visited)


def _derive_seed(seed: int, restart: int) -> int:
    return (seed + _STREAM_STEP * (restart + 1)) & _MASK64


class _Memo(dict):
    """``fn(key)`` by key; emptied when it holds ``CACHE_LIMIT`` keys."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= CACHE_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


def anneal_min(K: SimplicialComplex, F: FieldSpec,
               params: Optional[AnnealParams] = None,
               workers: int = 1) -> SearchResult:
    """Simulated annealing over labelings with single-vertex +-1 moves.

    The energy is lexicographic (max rank, #components at max, sum of
    ranks) to smooth the plateaus of the raw objective; the reported
    value is always the plain max rank of the certificate.  Restarts use
    independent LCG streams derived from the seed and run one after
    another in one thread; ``workers`` has no effect.

    A restart keeps the labeling as level bitmasks (label -> vertex
    mask); a move updates two masks of a copy, kept if it is accepted.
    A move of v from l by delta is invalid iff a neighbour of v has
    label l - delta.  The energy's three integers combine the states
    of the interior slabs (``morse.slab_masks``), each looked up by its
    vertex mask in a memo shared by the restarts and emptied when it
    holds ``CACHE_LIMIT`` masks; a move changes two slab masks,
    and long runs revisit slab states far more often than labelings.
    """
    if params is None:
        params = AnnealParams()
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    states = _Memo(lambda mask: slab_state(calc, mask))
    n = K.vertex_count
    neighbours = K.neighbours

    def energy(profile):
        mx, cnt, total = profile
        return mx * 100_000 + min(cnt, 999) * 100 + min(total, 99)

    def profile_of(level):
        return combine_slab_states(map(states.__getitem__, slab_masks(level)))

    def run_restart(r):
        rng = Lcg(_derive_seed(params.seed, r))
        labels = [0] * n
        level = {0: (1 << n) - 1}
        start = profile_of(level)
        cur_e = energy(start)
        best = (start[0], tuple(labels))
        temp = _INITIAL_TEMPERATURE
        for _ in range(params.steps):
            if best[0] == 0:
                break
            v = rng.next_below(n)
            # top bit: the low bits of an LCG modulo 2^64 are short-period
            delta = 1 if rng.next_u64() >> 63 else -1
            old_l = labels[v]
            if level.get(old_l - delta, 0) & neighbours[v]:
                temp *= _COOLING_RATE
                continue
            new_l = old_l + delta
            bit = 1 << v
            moved = dict(level)
            moved[new_l] = moved.get(new_l, 0) | bit
            moved[old_l] ^= bit
            if not moved[old_l]:
                del moved[old_l]
            prof = profile_of(moved)
            e = energy(prof)
            if e <= cur_e or rng.next_unit() < math.exp((cur_e - e) / max(temp, 1e-9)):
                level = moved
                cur_e = e
                labels[v] = new_l
                if prof[0] <= best[0]:
                    best = min(best, (prof[0], tuple(labels)))
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
