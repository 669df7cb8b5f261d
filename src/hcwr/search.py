"""Minimize the homological width value over all morse labelings of a
fixed complex: branch-and-bound exhaustive search at desk scale,
simulated annealing beyond it.

Both score a labeling with the one objective of ``morse``: (max rank,
#components at max, sum of ranks) over the components of its interior
slabs.  Both start from the constant labeling, whose one slab is K and
whose value is therefore ``betti1``.  Vertex sets are bitmasks, and
each search keeps one bounded memo (``_Memo``, emptied at
``CACHE_LIMIT`` keys).

``exhaustive_min`` proves a minimum.  It first computes a lower bound,
which ends the proof at once when it reaches ``betti1``, then enumerates
the labelings up to the first that reaches the bound, pruned by the
image ranks of the vertex sets that every completion keeps
in one slab (memoized), by vertex 0's orbit under the automorphisms of
K and by the constraint min f = 0.  Its docstring proves that none of
these changes an output.  ``anneal_min`` finds an upper bound by
single-vertex +-1 moves.  It keeps the state of each slab, memoized by
vertex mask, so a step updates the three slabs a move touches, and it
ranks such a slab only when the moved vertex's link in it is
disconnected; its docstring proves that rule.  The anneal is a library
function only: ``hcwr search`` runs the enumeration, whose budget-cut
best labeling is the command line's upper bound.

Both searches are deterministic: the enumeration visits labelings in a
fixed breadth-first/lexicographic order and annealing draws from the
64-bit linear congruential recurrence
state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
(``_LCG_MULT`` and ``_LCG_INC``, stepped inline), so identical inputs
and seeds produce identical results.  Both run in one thread: under the
interpreter lock, thread pools over root branches and restarts measured
no speed-up, so the ``workers`` keyword is accepted and has no effect.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .complexes import SimplicialComplex, components, root_orbit
from .homology import FieldSpec, H1Calculator
from .morse import (MorseLabeling, require_connected, slab_profile,
                    slab_state)

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


@dataclass(frozen=True)
class AnnealParams:
    steps: int = 200_000
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an int")
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
    # exhaustive_min's lower bound, a width no labeling goes below; not
    # in to_json
    floor: int = 0

    def to_json(self) -> dict:
        return {
            "best_value": self.best_value,
            "certificate": list(self.certificate.labels),
            "exhaustive": self.exhaustive,
            "labelings_visited": self.labelings_visited,
            "seed": self.seed,
        }


def require_budget(time_budget: Optional[float]) -> None:
    """Raise ValueError unless ``time_budget`` is None or an int or float
    >= 0."""
    if time_budget is not None and (type(time_budget) not in (int, float)
                                    or not time_budget >= 0):
        raise ValueError(f"budget must be a number >= 0, got {time_budget!r}")


def exhaustive_min(K: SimplicialComplex, F: FieldSpec,
                   time_budget: Optional[float] = None,
                   workers: int = 1) -> SearchResult:
    """Proven minimum over all morse labelings, normalized to min label 0.

    Labels are assigned in the ``K.forest`` order from vertex 0; the root
    label ranges over 0..ecc(vertex 0), which covers every
    translation-normalized labeling, and every later vertex takes the
    labels, lowest first, of its *window*: the nonnegative labels within
    one step of all its labeled neighbors.  The windows are kept per
    vertex and restored on backtrack; a label is a window of width zero.

    Branch and bound: the first complete labeling in this order, the
    constant one, is the first incumbent, its value ``betti1`` read from
    the precompute, so the bound prunes from the first label on.  After
    a vertex gets label l, its partial component in slab l - 1 and in
    slab l is grown through the vertices whose window already lies in
    the slab.  Every completion puts that set inside one slab component,
    and image rank is monotone under vertex inclusion, so when its rank
    reaches the best value found so far the subtree is skipped.  A
    boundary slab lies inside the adjacent interior slab, so the bound
    needs no special case for it; at label 0 only slab 0 is grown, since
    windows are nonnegative and slab -1's part, the vertices fixed at 0,
    lies inside slab 0's.  The ranks of these sets are memoized by
    vertex mask: most of them recur across sibling subtrees.  The image
    rank is at most the cycle rank E - V + 1 of the set's 1-skeleton,
    which the walk that grows it counts, so a set whose cycle rank is
    below the best value is neither ranked nor memoized; every bound
    comparison comes out as it would with the rank.  A complete
    labeling can still tie an incumbent that improved after an ancestor
    passed the bound, so only a smaller value replaces it.

    Under a root label >= 1, a node at which every window lies above 0
    is skipped: windows only narrow, so none of its leaves has min 0
    (forward checking of the constraint min f = 0; Haralick and Elliott,
    AI 1980).  The search without this skip walks those subtrees and
    evaluates none of their leaves, so every leaf that reaches
    evaluation has min 0, and the evaluated leaves, the certificate and
    ``labelings_visited`` are the same either way.

    The certificate is the first minimizer in this visiting order (not
    necessarily the lexicographically smallest one), and
    ``labelings_visited`` counts the constant labeling and the complete
    labelings evaluated in the pruned tree before the search ends.

    Symmetry: the first time the root takes label 1, ``root_orbit``
    gives vertex 0's orbit under the automorphisms of K that it
    verifies.  If that is every vertex the search ends there, complete;
    otherwise, under every root label >= 1, the window of each other
    orbit vertex starts at 1.  This skips only labelings whose value the
    root label 0 subtree has already matched (symmetry breaking by orbit
    representatives; Crawford, Ginsberg, Luks and Roy, KR 1996), and
    changes no output:
    - A skipped labeling f has f(u) = 0 at an orbit vertex u, so with
      an automorphism s, s(0) = u, f o s is a root label 0 leaf of the
      same value.
    - Once that subtree is done, such a leaf cannot pass the bound.
      Every leaf that reaches evaluation has all its slab components
      below the incumbent, and the incumbent is at most that subtree's
      minimum.
    - The evaluated leaves, their order and the incumbent history are
      therefore those of the search without the orbit.  So are
      ``best_value``, the certificate, ``exhaustive`` and
      ``labelings_visited``.
    - Windows only narrow, so forced sets stay inside the slab
      components of every enumerated completion, and the bound stays
      valid.
    A search that ends inside root label 0 (a leaf at the lower bound,
    or the budget), or whose incumbent is 0 from the start (betti1 = 0:
    the bound prunes every node), never computes the orbit.

    Lower bound: before the deadline, and before the memo and the orbit,
    ``_lower_bound`` computes a floor, a width that no labeling goes
    below.  When the floor is ``betti1`` the search returns at once: best
    value ``betti1``, the constant labeling, complete,
    ``labelings_visited`` 1.  Otherwise the enumeration ends at the first
    leaf whose value reaches the floor.  Every labeling f keeps two kinds
    of connected vertex set inside one interior slab: every 3-clique,
    since labels of adjacent vertices differ by at most 1, and the
    closed star N[u], u and its neighbours, of a vertex u of label
    min f, since its neighbours carry min f or min f + 1.  The slab
    component holding such a set has image rank at least the set's, by
    monotonicity, and so has the width of f.
    - At ``betti1`` 1 the floor is 1 when a 3-clique a < b < c of the
      1-skeleton spans no triangle of K and has image rank 1.  This
      decides the stars too: every cycle of N[v] is a sum of the
      3-cycles v, x, y over the edges xy between neighbours, so a star
      of rank >= 1 holds a hollow 3-clique of rank 1.  The cliques are
      found from the edges and their common neighbours, with no cost per
      vertex, and measured faster than ranking the stars.
    - At ``betti1`` >= 2 a 3-clique's full subcomplex, a 3-cycle or a
      filled triangle, has image rank at most 1 and cannot reach
      ``betti1``.  The floor is ``betti1`` when every closed star N[0],
      N[1], ... has rank ``betti1``; the stars are ranked up to the first
      that falls short.
    - Otherwise the floor is 1 when ``H1Calculator.nonzero_cup_product``
      finds classes alpha, beta of H^1(K; F) with alpha u beta != 0, and
      else 0 (the two-set case of the Lusternik-Schnirelmann cup-length
      bound; Cornea, Lupton, Oprea and Tanre, "Lusternik-Schnirelmann
      Category", AMS 2003).  Proof: let f have width 0, and A and B be
      the unions of its even and of its odd interior slabs.  Slabs of
      one parity share no vertex, so each component of A or B is a slab
      component, of image rank 0, on which every class of H^1(K; F)
      restricts to 0 (over a field, H^1 is the dual of H_1).  So alpha
      and beta can be moved by coboundaries to alpha' vanishing on A and
      beta' vanishing on B.  Each triangle (v0, v1, v2) lies in one
      interior slab, in A or in B, so alpha'(v0 v1) * beta'(v1 v2) = 0:
      alpha u beta is cohomologous to alpha' u beta' = 0.
    Sameness, at floor ``betti1`` >= 1: without the bound, the node that
    labels the clique's last vertex grows a forced set holding all three,
    and the node that gives a vertex u label 0 narrows every neighbour's
    window to within [0, 1], so the forced set it grows in slab 0 holds
    N[u].  Either set's cycle rank and image rank reach ``betti1``, the
    incumbent, so that node is pruned.  Every path to a leaf labels the
    clique, and every evaluated leaf gives some vertex label 0, so no
    leaf is evaluated and only the constant labeling is counted: the same
    output.  At ``betti1`` 0 the incumbent 0 prunes every node, so the
    enumeration too counts only the constant labeling.  Below ``betti1``,
    no leaf goes below the floor, and the certificate is the first leaf
    of least value, which no later leaf replaces; so the enumeration
    that ends at the first leaf reaching the floor has the
    ``best_value``, certificate and ``exhaustive`` of the one that runs
    on, and ``labelings_visited`` counts the leaves evaluated up to it.

    Returns exhaustive = False (best so far is only an upper bound) when
    the time budget runs out first; a budget of 0 runs out before the
    first label, whatever the clock's resolution, and returns the
    constant labeling.  ``floor`` is the lower bound below, 0 when the
    budget ran out before it was computed.
    Raises ValueError for a budget that is not a number >= 0 (NaN would
    never run out).
    Runs in one thread; ``workers`` has no effect.
    """
    require_budget(time_budget)
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    n = K.vertex_count
    deadline = None if time_budget is None else time.monotonic() + time_budget
    floor = 0  # a width no labeling goes below
    if deadline is None or time.monotonic() < deadline:
        floor = _lower_bound(K, calc)
        if floor == calc.betti1:  # the constant labeling is minimal
            return SearchResult(best_value=floor,
                                certificate=MorseLabeling((0,) * n),
                                exhaustive=True, labelings_visited=1,
                                floor=floor)
    ranks = _Memo(calc.image_rank_of_vertices)
    adjacency = K.adjacency
    bit = [1 << v for v in range(n)]
    seen = [None] * n  # per vertex, the stamp of the walk that last met it
    parent = K.forest  # connected: root 0
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
    orbit = None  # vertex 0's orbit but 0, once the root takes label 1

    def forced(v, a):
        """Whether v's partial component in slab ``a`` has image rank at
        least ``best[0]``; its mask is ranked only when its cycle rank
        E - V + 1 reaches ``best[0]``, as the image rank is at most that."""
        comp = bit[v]
        size = 1
        ends = 0  # edge ends met inside the component: 2E
        todo = [v]
        seen[v] = stamp = object()  # marks this walk's vertices
        while todo:
            for w in adjacency[todo.pop()]:
                if seen[w] is stamp:  # in the component
                    ends += 1
                elif a <= lo[w] and hi[w] <= a + 1:
                    ends += 1
                    seen[w] = stamp
                    comp |= bit[w]
                    size += 1
                    todo.append(w)
        return ends // 2 - size + 1 >= best[0] and ranks[comp] >= best[0]

    # the first leaf: the root label and each window's lowest label are 0
    best = (calc.betti1, (0,) * n)  # (value, labels tuple)
    visited = 1
    completed = True
    # stack[k] yields the labels left to try at order[k] and undo[k] the
    # windows its current label overwrote, its own among them, restored
    # newest first (the root's list can hold a vertex twice); a loop,
    # not recursion, so deep complexes stay under the recursion limit
    stack = [iter(range(ecc + 1))]
    undo = [[] for _ in range(n)]
    while stack:
        if deadline is not None and time.monotonic() >= deadline:
            completed = False
            break
        k = len(stack) - 1
        for w, old_lo, old_hi in reversed(undo[k]):
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
        if not k and label and best[0]:  # at 0, every node is pruned
            if orbit is None:
                mask = root_orbit(K, deadline)
                if mask == (1 << n) - 1:
                    break
                orbit = [w for w in range(1, n) if mask >> w & 1]
            for w in orbit:  # label 0 there is root label 0's image
                undo[0].append((w, lo[w], hi[w]))
                lo[w] = max(lo[w], 1)
        if lo[0] and 0 not in lo:  # windows only narrow: no leaf has min 0
            continue
        if label and forced(v, label - 1) or forced(v, label):
            continue
        if k + 1 < n:
            w = order[k + 1]
            stack.append(iter(range(lo[w], hi[w] + 1)))
        else:  # every window is a label now, and one of them is 0
            visited += 1
            value = slab_profile(calc, lo)[0]
            if value < best[0]:
                best = (value, tuple(lo))
                if value == floor:  # no labeling is narrower
                    break
    return SearchResult(best_value=best[0],
                        certificate=MorseLabeling(best[1]),
                        exhaustive=completed,
                        labelings_visited=visited, floor=floor)


def _lower_bound(K: SimplicialComplex, calc: H1Calculator) -> int:
    """A width that no labeling of K goes below (the proofs are
    ``exhaustive_min``'s): ``calc.betti1`` when a vertex set that every
    labeling keeps in one interior slab has that image rank, else 1 when
    ``calc.nonzero_cup_product()``, else 0.  At betti1 1 the sets are
    the three pairwise adjacent vertices a < b < c that span no triangle
    of K, listed from ``K.edges`` and ``K.adjacency`` so the work follows
    the edges and their common neighbours, not n; at betti1 >= 2 every
    closed star, v and its neighbours, stopping at the first that falls
    short."""
    betti1, rank = calc.betti1, calc.image_rank_of_vertices
    if betti1 == 1:
        adjacency, filled = K.adjacency, None
        for a, b in K.edges:
            for c in adjacency[a] & adjacency[b]:
                if c > b:
                    if filled is None:  # built at the first 3-clique
                        filled = {t for s in K.maximal
                                  for t in combinations(s, 3)}
                    if (a, b, c) not in filled and rank(1 << a | 1 << b
                                                        | 1 << c):
                        return 1
    elif betti1 >= 2 and all(rank(near | 1 << v) >= betti1
                             for v, near in enumerate(K.neighbours)):
        return betti1
    return 1 if calc.nonzero_cup_product() else 0


def _derive_seed(seed: int, restart: int) -> int:
    return (seed + _STREAM_STEP * (restart + 1)) & _MASK64


class _Memo(dict):
    """``fn(key)`` by key; emptied when it holds ``CACHE_LIMIT`` keys."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        return self.put(key, self.fn(key))

    def put(self, key, value):
        """Store ``value`` at ``key``, emptying the memo first when full."""
        if len(self) >= CACHE_LIMIT:
            self.clear()
        self[key] = value
        return value


def _links(K: SimplicialComplex) -> list:
    """Per vertex v, a map from each neighbour x to the mask of the
    vertices y with {v, x, y} a triangle (0 when none is): v's link as
    the neighbour masks that ``components`` reads."""
    links = [{} for _ in range(K.vertex_count)]
    for a, b in K.edges:
        links[a][b] = links[b][a] = 0
    for a, b, c in (t for s in K.maximal for t in combinations(s, 3)):
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            link = links[v]
            link[x] |= 1 << y
            link[y] |= 1 << x
    return links


def _energy(mx: int, cnt: int, total: int) -> int:
    """Lexicographic (max rank, #components at max, sum of ranks)."""
    return mx * 100_000 + min(cnt, 999) * 100 + min(total, 99)


def anneal_min(K: SimplicialComplex, F: FieldSpec,
               params: Optional[AnnealParams] = None,
               workers: int = 1) -> SearchResult:
    """Simulated annealing over labelings with single-vertex +-1 moves.

    The energy is lexicographic (max rank, #components at max, sum of
    ranks) to smooth the plateaus of the raw objective; the reported
    value is always the plain max rank of the certificate.  Restarts use
    independent LCG streams derived from the seed and run one after
    another in one thread; ``workers`` has no effect.

    A step draws a vertex v and a direction delta from the recurrence
    state' = (_LCG_MULT * state + _LCG_INC) mod 2^64, stepped inline.
    The move of v from l to l + delta is
    invalid iff a neighbour of v has label l - delta.  A restart keeps
    the labeling as level bitmasks (label -> vertex mask), the state of
    each interior slab (the one level of a constant labeling), the number
    of slab maxima per rank and the sum of ranks; the energy reads the
    highest rank in use.  A move of v between a and a + 1 changes only
    slabs a - 1, a and a + 1: it updates two level masks in place,
    trades the three old slab states for new ones and restores the masks
    and counts if it is rejected.  Slab states are looked up by vertex
    mask in a memo shared by the restarts and emptied when it holds
    ``CACHE_LIMIT`` masks; long runs revisit slab states far more often
    than labelings.

    Slabs a - 1 and a + 1 each gain or lose v alone.  When the memo
    misses such a slab, interior before and after the move, let N be
    v's neighbours in the slab without v, two of them joined when they
    span a triangle with v (v's link, ``_links``).  If N is nonempty and
    connected (``components`` of the link on N is N alone), the slab's
    state is its state before the move, and the memo stores that;
    otherwise ``slab_state`` ranks the slab.  Proof:
    N lies in one component, which v joins or leaves, and every cycle
    through v, x -> v -> y, differs from a path x -> ... -> y in N by
    boundaries of triangles at v, which are zero in H1(K; F) for every
    field and every set of relations; so no component and no image rank
    changes (the link condition for simple points of digital topology;
    Kong and Rosenfeld, CVGIP 1989).

    The certificate is the smallest (value, labels)
    that a restart reached, its constant start included.
    ``labelings_visited`` is the step budget, steps x restarts, even when
    a restart stops early at width 0.
    """
    if params is None:
        params = AnnealParams()
    require_connected(K, "search")
    calc = H1Calculator(K, F)
    states = _Memo(lambda mask: slab_state(calc, mask))
    n = K.vertex_count
    neighbours = K.neighbours
    links = _links(K)
    full = (1 << n) - 1
    top = calc.betti1
    absent = (0, 0, 0)  # the state of a slab outside the interior

    def moved(mask, old, v):
        """The state of an interior slab whose vertex mask gained or lost
        v in this move; ``old`` is its state before the move."""
        state = states.get(mask)
        if state is None:
            near = neighbours[v] & mask & ~(1 << v)
            if old is not absent and components(links[v], near) == [near]:
                state = states.put(mask, old)
            else:
                state = states.put(mask, slab_state(calc, mask))
        return state

    def run_restart(r):
        s = _derive_seed(params.seed, r)  # the LCG state
        labels = [0] * n
        level = defaultdict(int, {0: full})  # label -> mask, 0 if unused
        start = (top, 1, top)  # K is connected: one component, rank betti1
        slab = {0: start}  # index -> state
        # per rank, the components at their slab's max: each slab counts
        # at its own max, so the energy's max is the highest rank in use
        at_max = [0] * (top + 1)
        at_max[start[0]] = start[1]
        total = start[2]
        best_v, best_l = start[0], labels[:]
        cur_e = _energy(*start)
        temp = _INITIAL_TEMPERATURE
        for _ in range(params.steps if best_v else 0):
            s = (_LCG_MULT * s + _LCG_INC) & _MASK64
            v = (s * n) >> 64
            s = (_LCG_MULT * s + _LCG_INC) & _MASK64
            # top bit: the low bits of an LCG modulo 2^64 are short-period
            delta = 1 if s >> 63 else -1
            old_l = labels[v]
            if level[old_l - delta] & neighbours[v]:
                temp *= _COOLING_RATE
                continue
            new_l = old_l + delta
            bit = 1 << v
            level[new_l] |= bit
            level[old_l] ^= bit
            a = old_l if delta > 0 else new_l
            l0 = level[a - 1]
            l1 = level[a]
            l2 = level[a + 1]
            l3 = level[a + 2]
            o0 = slab.get(a - 1, absent)
            o1 = slab.get(a, absent)
            o2 = slab.get(a + 1, absent)
            # slab i is interior iff levels i and i + 1 are in use (K is
            # connected, so the labels in use are a range), or level i
            # is everything (a constant labeling)
            n0 = moved(l0 | l1, o0, v) if l0 and (l1 or l0 == full) else absent
            n1 = states[l1 | l2] if l1 and (l2 or l1 == full) else absent
            n2 = moved(l2 | l3, o2, v) if l2 and (l3 or l2 == full) else absent
            at_max[o0[0]] -= o0[1]
            at_max[o1[0]] -= o1[1]
            at_max[o2[0]] -= o2[1]
            at_max[n0[0]] += n0[1]
            at_max[n1[0]] += n1[1]
            at_max[n2[0]] += n2[1]
            new_total = total + n0[2] + n1[2] + n2[2] - o0[2] - o1[2] - o2[2]
            m = top
            while not at_max[m]:
                m -= 1
            c = at_max[m]
            e = (m * 100_000 + (c if c < 999 else 999) * 100
                 + (new_total if new_total < 99 else 99))  # _energy
            if e > cur_e:
                s = (_LCG_MULT * s + _LCG_INC) & _MASK64
                if not s / 2.0 ** 64 < math.exp((cur_e - e)
                                                / max(temp, 1e-9)):
                    at_max[n0[0]] -= n0[1]
                    at_max[n1[0]] -= n1[1]
                    at_max[n2[0]] -= n2[1]
                    at_max[o0[0]] += o0[1]
                    at_max[o1[0]] += o1[1]
                    at_max[o2[0]] += o2[1]
                    level[old_l] |= bit
                    level[new_l] ^= bit
                    temp *= _COOLING_RATE
                    continue
            slab[a - 1] = n0
            slab[a] = n1
            slab[a + 1] = n2
            total, cur_e = new_total, e
            labels[v] = new_l
            if m < best_v or m == best_v and labels < best_l:
                best_v, best_l = m, labels[:]
                if not m:
                    break
            temp *= _COOLING_RATE
        return best_v, tuple(best_l)

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
    enumeration, the lower bound is the search's floor (0 when the budget
    ran out before the floor was computed) and the upper bound the best
    labeling the enumeration reached (method ``"partial"``).
    """
    exh = exhaustive_min(K, F, time_budget=time_budget)
    details = {"method": "exhaustive" if exh.exhaustive else "partial",
               "visited": exh.labelings_visited,
               "certificate": list(exh.certificate.labels)}
    lower = exh.best_value if exh.exhaustive else exh.floor
    return lower, exh.best_value, details
