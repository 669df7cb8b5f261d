"""A second H1 kernel, mod p, and a seeded differential of the calculator
against it.

The kernel shares no code with ``hcwr.homology``: it lists its own edges
and triangles from ``K.maximal``, grows its own breadth-first spanning
forest, orients the edge (a, b), a < b, from a to b and eliminates mod p
with modular inverses.  The image rank of a vertex set S is
rank [d2 | fundamental cycles of S] - rank d2.  It is exact over F_p
only, so Q stays on the sympy oracle of ``conftest``.
"""
from collections import Counter
from itertools import combinations

import pytest

from hcwr import (FieldSpec, H1Calculator, generate_torus,
                  presentation_complex, tent_labeling)
from hcwr.generators import parse_relator

from conftest import mask_of, random_walk

P31 = 2 ** 31 - 1


class ModP:
    """H1 image ranks of the full subcomplexes of ``K`` over F_p."""

    def __init__(self, K, p):
        self.p = p
        edges, triangles = set(), set()
        for s in K.maximal:
            edges.update(combinations(s, 2))
            triangles.update(combinations(s, 3))
        self.edge = {e: j for j, e in enumerate(sorted(edges))}
        self.nbrs = [[] for _ in range(K.vertex_count)]
        for a, b in self.edge:
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        self.d2 = {}  # pivot column -> row with 1 at the pivot
        for a, b, c in sorted(triangles):
            e = self.edge
            self._add(self.d2, {e[b, c]: 1, e[a, c]: p - 1, e[a, b]: 1})
        trees = self.cycles(range(K.vertex_count))
        # rank d1 = #vertices - #components
        self.betti1 = (len(self.edge) - K.vertex_count + len(trees)
                       - len(self.d2))

    def _add(self, pivots, row) -> bool:
        """Reduce ``row`` against ``pivots`` and keep it if it is not 0."""
        p = self.p
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in row.items()}
                return True
            f = row[c]
            for k, x in prow.items():
                y = (row.get(k, 0) - f * x) % p
                if y:
                    row[k] = y
                else:
                    del row[k]
        return False

    def cycles(self, S) -> list:
        """(vertices, fundamental cycles) of each tree of a breadth-first
        spanning forest of the graph on S, by smallest vertex; a cycle is
        the potential of a + (a, b) - the potential of b for a non-tree
        edge (a, b), a potential the path from the root."""
        S, pot, parent, trees = set(S), {}, {}, []
        for root in sorted(S):
            if root in pot:
                continue
            pot[root], parent[root], queue = {}, root, [root]
            for v in queue:
                for w in self.nbrs[v]:
                    if w in S and w not in pot:
                        e = self.edge[min(v, w), max(v, w)]
                        pot[w] = {**pot[v], e: 1 if v < w else self.p - 1}
                        parent[w] = v
                        queue.append(w)
            trees.append((queue, []))
            for a in queue:
                for b in self.nbrs[a]:
                    if a < b and b in S and parent[a] != b and parent[b] != a:
                        c = Counter(pot[a])
                        c[self.edge[a, b]] += 1
                        c.subtract(pot[b])
                        trees[-1][1].append({k: x % self.p for k, x
                                             in c.items() if x % self.p})
        return trees

    def rank(self, cycles) -> int:
        """rank [d2 | cycles] - rank d2."""
        pivots = dict(self.d2)
        return sum(self._add(pivots, dict(c)) for c in cycles)

    def ranks(self, S) -> tuple:
        """(vertex set, image rank) of each component of S, and the image
        rank of S."""
        trees = self.cycles(S)
        per = [(verts, self.rank(cycles)) for verts, cycles in trees]
        if len(per) == 1:
            return per, per[0][1]
        return per, self.rank([c for _, cycles in trees for c in cycles])


def _slabs_and_levels(labels) -> list:
    """Vertex sets of the interior slabs and of the levels of a labeling
    (the one level of a constant labeling)."""
    lo, hi = min(labels), max(labels)
    return [{v for v, l in enumerate(labels) if i <= l <= i + span}
            for span in (0, 1) for i in range(lo, hi + 1 - span)]


def _inputs(name):
    """(complex, vertex sets) of each differential input."""
    loops = []
    if name == "torus(3,5)":
        K, tent = generate_torus(3, 5), tent_labeling(3, 5).labels
        walks = [tent, random_walk(K, tent, 1), random_walk(K, tent, 2)]
    elif name == "torus(4,4)":
        K, walks = generate_torus(4, 4), [tent_labeling(4, 4).labels]
    else:
        # <a, b | abaB>, the Klein bottle.  2a is a relation, so the loop
        # of a ({0, 1, 2}) reads 0 in odd characteristic only through the
        # relation rows; b's loop is {0, 3, 4}
        K = presentation_complex(2, [parse_relator("abaB", 2)])
        walks = [random_walk(K, (0,) * K.vertex_count, seed)
                 for seed in range(3)]
        loops = [{0, 1, 2}, {0, 3, 4}]
    return K, loops + [S for labels in walks
                       for S in _slabs_and_levels(labels)]


@pytest.mark.parametrize("name, p", [
    ("torus(3,5)", 2), ("torus(3,5)", 3), ("torus(3,5)", P31),
    ("klein", 2), ("klein", 3), ("klein", P31), ("torus(4,4)", P31),
])
def test_calculator_matches_the_mod_p_kernel(name, p):
    K, sets = _inputs(name)
    kernel, calc = ModP(K, p), H1Calculator(K, FieldSpec.prime(p))
    assert calc.betti1 == kernel.betti1
    seen = Counter()
    for S in sets:
        per, total = kernel.ranks(S)
        assert calc.image_rank_of_vertices(mask_of(S)) == total
        assert calc.component_ranks(mask_of(S)) == [r for _, r in per]
        for verts, r in per:
            assert calc.image_rank_of_vertices(mask_of(verts)) == r
            seen[r] += 1
    if name == "torus(3,5)":
        # not every set reads betti1, which a query that stops at the cap
        # would report for all of them
        assert min(seen) < kernel.betti1 == 3
