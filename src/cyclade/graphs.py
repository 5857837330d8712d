"""Finite ADE and affine-ADE rooted bipartite multigraphs and loop counting."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Tuple

# the four parametrized series: (least parameter, must be even, error message)
_SERIES = {
    "A": (2, False, "A needs at least 2 vertices"),
    "Atilde": (2, True, "Atilde needs an even vertex count >= 2"),
    "D": (3, False, "D needs at least 3 vertices"),
    "Dtilde": (4, False, "Dtilde needs parameter >= 4"),
}

# branch arms (vertex counts beyond the branch vertex), longest first;
# the root sits at the far end of the first arm
_ARMS = {
    "E6": (2, 2, 1),
    "E7": (3, 2, 1),
    "E8": (4, 2, 1),
    "E6tilde": (2, 2, 2),
    "E7tilde": (3, 3, 1),
    "E8tilde": (5, 2, 1),
}

EXCEPTIONAL_TAGS = tuple(_ARMS)
FAMILY_TAGS = tuple(_SERIES) + EXCEPTIONAL_TAGS


class UnsupportedFamily(ValueError):
    """No table entry or construction for the requested family."""


class ParameterOutOfRange(UnsupportedFamily):
    """Family parameter violates its lower bound or parity constraint."""


@dataclass(frozen=True)
class GraphFamily:
    """One of the ten graph shapes; param is the vertex count for the four
    parametrized series and the digit in the tag for an exceptional one
    (E7tilde: 7), which the default 0 stands for."""

    tag: str
    param: int = 0

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise UnsupportedFamily(f"unknown family tag {self.tag!r}")
        if self.tag in _SERIES:
            least, even, message = _SERIES[self.tag]
            if self.param < least or (even and self.param % 2):
                raise ParameterOutOfRange(message)
        elif self.param in (0, int(self.tag[1])):
            object.__setattr__(self, "param", int(self.tag[1]))
        else:
            raise ParameterOutOfRange(f"{self.tag} has parameter {self.tag[1]}")

    @property
    def label(self) -> str:
        if self.tag in EXCEPTIONAL_TAGS:
            return self.tag
        return f"{self.tag}{self.param}"


@dataclass(frozen=True)
class RootedBipartiteGraph:
    """Multigraph with a distinguished root of parity 0; neighbours[v] lists
    each neighbour of v once per edge between them."""

    vertex_count: int
    neighbours: Tuple[Tuple[int, ...], ...]
    root: int
    parity: Tuple[int, ...]

    def degree(self, v: int) -> int:
        return len(self.neighbours[v])


def _finish(edges, n, root) -> RootedBipartiteGraph:
    neighbours = [[] for _ in range(n)]
    for u, v, mult in edges:
        neighbours[u] += [v] * mult
        neighbours[v] += [u] * mult
    # two-coloring by distance from the root; also certifies connectivity
    parity = [-1] * n
    parity[root] = 0
    queue = [root]
    while queue:
        u = queue.pop()
        for v in neighbours[u]:
            if parity[v] == -1:
                parity[v] = 1 - parity[u]
                queue.append(v)
    if -1 in parity:
        raise ValueError("graph is not connected")
    for u, v, _ in edges:
        if u == v:
            raise ValueError("self-loop in adjacency")
        if parity[u] == parity[v]:
            raise ValueError("edge inside one parity class")
    return RootedBipartiteGraph(n, tuple(map(tuple, neighbours)), root, tuple(parity))


def build_ade(family: GraphFamily) -> RootedBipartiteGraph:
    """Construct the rooted graph for the family, root at the marked vertex."""
    tag, m = family.tag, family.param
    if tag == "A":
        edges = [(i, i + 1, 1) for i in range(m - 1)]
        return _finish(edges, m, 0)
    if tag == "Atilde":
        if m == 2:
            return _finish([(0, 1, 2)], 2, 0)
        edges = [(i, (i + 1) % m, 1) for i in range(m)]
        return _finish(edges, m, 0)
    if tag == "D":
        # path of m-2 vertices with two tips on its far end, root at the near end
        edges = [(i, i + 1, 1) for i in range(m - 3)]
        edges += [(m - 3, m - 2, 1), (m - 3, m - 1, 1)]
        return _finish(edges, m, 0)
    if tag == "Dtilde":
        # central path of m-3 vertices, a two-tip fork at each end, m+1 vertices
        c = m - 3
        edges = [(i, i + 1, 1) for i in range(c - 1)]
        edges += [(0, c, 1), (0, c + 1, 1), (c - 1, c + 2, 1), (c - 1, c + 3, 1)]
        return _finish(edges, m + 1, c)
    edges = []
    nxt = 1
    arm_ends = []
    for length in _ARMS[tag]:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt, 1))
            prev = nxt
            nxt += 1
        arm_ends.append(prev)
    return _finish(edges, nxt, arm_ends[0])


def loop_counts(graph: RootedBipartiteGraph, count: int) -> list:
    """Numbers of closed walks of even length based at the root.

    Entry k counts the 2k-walks, (A^(2k))_rr.  The adjacency A is symmetric,
    so that is |A^k e_r|^2: one exact product of A with the vector per entry
    and a sum of squares.  Each vertex sums over its neighbour list, in which
    a neighbour appears once per edge.

    A^k e_r lives on the parity class k mod 2 and within distance k of the
    root.  One BFS lists each class by distance, so step k recomputes only
    a prefix of class k mod 2, reading the other class, whose entries
    beyond its own ball are still zero; once the ball holds the whole
    class, every step takes all of it.
    """
    nbrs = graph.neighbours
    dist = [-1] * graph.vertex_count
    dist[graph.root] = 0
    bfs = [graph.root]
    for u in bfs:
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                bfs.append(v)
    classes = [[v for v in bfs if dist[v] % 2 == c] for c in (0, 1)]
    pos = [0] * graph.vertex_count
    for cls in classes:
        for i, v in enumerate(cls):
            pos[v] = i
    rows = [[[pos[u] for u in nbrs[v]] for v in cls] for cls in classes]
    radii = [[dist[v] for v in cls] for cls in classes]
    vals = [[0] * len(cls) for cls in classes]
    vals[0][0] = 1
    depth = dist[bfs[-1]]
    out = [1]
    for k in range(1, count + 1):
        c = k % 2
        old = vals[1 - c]
        if k < depth:
            cut = bisect_right(radii[c], k)
            new = [sum([old[p] for p in row]) for row in islice(rows[c], cut)]
            vals[c][:cut] = new
        else:
            vals[c] = new = [sum([old[p] for p in row]) for row in rows[c]]
        out.append(sum(map(mul, new, new)))
    return out
