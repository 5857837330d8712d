"""Finite ADE and affine-ADE rooted bipartite multigraphs and loop counting."""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import add, itemgetter, mul
from typing import Tuple

from ._value import FrozenValue
from .exact import _check_order

# the four parametrized series: (least parameter, must be even, error message)
_SERIES = {
    "A": (2, False, "A needs at least 2 vertices"),
    "Atilde": (2, True, "Atilde needs an even vertex count >= 2"),
    "D": (3, False, "D needs at least 3 vertices"),
    "Dtilde": (4, False, "Dtilde needs parameter >= 4"),
}

# tree family at parameter m -> (spine length, ((spine vertex, path length), ...))
_TREES = {
    "A": lambda m: (m, ()),
    "D": lambda m: (m - 1, ((m - 3, 1),)),
    "Dtilde": lambda m: (m - 1, ((1, 1), (m - 3, 1))),
    "E6": lambda m: (5, ((2, 1),)),
    "E7": lambda m: (6, ((3, 1),)),
    "E8": lambda m: (7, ((4, 1),)),
    "E6tilde": lambda m: (5, ((2, 2),)),
    "E7tilde": lambda m: (7, ((3, 1),)),
    "E8tilde": lambda m: (8, ((5, 1),)),
}

EXCEPTIONAL_TAGS = tuple(tag for tag in _TREES if tag not in _SERIES)
FAMILY_TAGS = tuple(_SERIES) + EXCEPTIONAL_TAGS


class UnsupportedFamily(ValueError):
    """No table entry or construction for the requested family."""


class ParameterOutOfRange(UnsupportedFamily):
    """Family parameter violates its lower bound or parity constraint."""


class GraphFamily(FrozenValue):
    """One of the ten graph shapes; param is the vertex count for the four
    parametrized series and the digit in the tag for an exceptional one
    (E7tilde: 7), which the default 0 stands for."""

    __slots__ = ("tag", "param")

    def __init__(self, tag: str, param: int = 0):
        if tag not in FAMILY_TAGS:
            raise UnsupportedFamily(f"unknown family tag {tag!r}")
        if not isinstance(param, int):
            raise ParameterOutOfRange(f"{tag} parameter must be an int, got {param!r}")
        if tag in _SERIES:
            least, even, message = _SERIES[tag]
            if param < least or (even and param % 2):
                raise ParameterOutOfRange(message)
        elif param in (0, int(tag[1])):
            param = int(tag[1])
        else:
            raise ParameterOutOfRange(f"{tag} has parameter {tag[1]}")
        self._freeze(tag, param)

    @property
    def label(self) -> str:
        if self.tag in EXCEPTIONAL_TAGS:
            return self.tag
        return f"{self.tag}{self.param}"


class RootedBipartiteGraph(FrozenValue):
    """Connected bipartite multigraph with a distinguished root;
    neighbours[v] lists each neighbour of v once per edge between them."""

    __slots__ = ("vertex_count", "neighbours", "root")

    def __init__(self, vertex_count: int, neighbours: Tuple[Tuple[int, ...], ...], root: int):
        self._freeze(vertex_count, neighbours, root)


def _distances(neighbours, root) -> Tuple[list, list]:
    """The distance of each vertex from the root, -1 if unreached, and the
    reached vertices in breadth-first order."""
    dist = [-1] * len(neighbours)
    dist[root] = 0
    order = [root]
    for u in order:
        for v in neighbours[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    return dist, order


def build_ade(family: GraphFamily) -> RootedBipartiteGraph:
    """Construct the rooted graph for the family, the root at vertex 0, from
    plain edge pairs: the even cycle for Atilde (Atilde2 the 2-cycle, whose two
    edges list each vertex twice among the other's neighbours), else a tree of
    _TREES, its spine numbered 0..s-1 from the root, so spine vertex i is i
    steps from it, and its hanging paths numbered on from s in table order."""
    tag, m = family.tag, family.param
    if tag == "Atilde":
        edges = [(i, (i + 1) % m) for i in range(m)]
    else:
        spine, paths = _TREES[tag](m)
        edges = [(i, i + 1) for i in range(spine - 1)]
        for at, length in paths:
            n = len(edges) + 1  # a tree has one vertex more than it has edges
            edges += [(at, n)] + [(v, v + 1) for v in range(n, n + length - 1)]
        m = len(edges) + 1
    neighbours = [[] for _ in range(m)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return RootedBipartiteGraph(m, tuple(map(tuple, neighbours)), 0)


def loop_counts(graph: RootedBipartiteGraph, count: int) -> list:
    """Numbers of closed walks of even length based at the root.

    Entry k counts the 2k-walks, (A^(2k))_rr.  The adjacency A is symmetric,
    so that is |A^k e_r|^2: one exact product of A with the vector per entry
    and a sum of squares.

    A^k e_r lives on the parity class k mod 2 and within distance k of the
    root.  One BFS lists each class by distance, so step k recomputes only
    a prefix of class k mod 2, reading the other class, whose entries
    beyond its own ball are still zero; once the ball holds the whole
    class, every step takes all of it.  A step adds two gathers in C, the
    first and the second neighbours (map over islice on a prefix, a prebuilt
    itemgetter on a whole class); a missing one reads the zero that each
    class keeps in a last row with no neighbours, and a branch vertex adds
    its further neighbours one by one.
    """
    _check_order(count)
    nbrs = graph.neighbours
    dist, bfs = _distances(nbrs, graph.root)
    classes = [[v for v in bfs if dist[v] % 2 == c] for c in (0, 1)]
    pos = [0] * graph.vertex_count
    for cls in classes:
        for i, v in enumerate(cls):
            pos[v] = i
    slots, extra = [], []
    for cls, pad in zip(classes, (len(classes[1]), len(classes[0]))):
        rows = [[pos[u] for u in nbrs[v]] + [pad] for v in cls] + [[pad, pad]]
        slots.append(tuple(zip(*rows)))  # the shortest rows have two entries
        extra.append([(i, p) for i, r in enumerate(rows) for p in r[2:-1]])
    gets = [[itemgetter(*slot) for slot in pair] for pair in slots]
    radii = [[dist[v] for v in cls] for cls in classes]
    vals = [[0] * (len(cls) + 1) for cls in classes]
    vals[0][0] = 1
    depth = dist[bfs[-1]]
    out = [1]
    for k in range(1, count + 1):
        c = k % 2
        old = vals[1 - c]
        if k < depth:
            cut = bisect_right(radii[c], k)
            first, second = (map(old.__getitem__, islice(slot, cut)) for slot in slots[c])
            new = list(map(add, first, second))
        else:
            first, second = gets[c]
            vals[c] = new = list(map(add, first(old), second(old)))
        for i, p in extra[c]:
            if i < len(new):
                new[i] += old[p]
        if k < depth:  # the prefix is a copy, written back once complete
            vals[c][:cut] = new
        out.append(sum(map(mul, new, new)))
    return out
