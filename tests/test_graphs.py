import tracemalloc

import pytest

from cyclade import cli
from cyclade.exprs import MAX_VERTICES
from cyclade.graphs import (
    FAMILY_TAGS,
    GraphFamily,
    ParameterOutOfRange,
    UnsupportedFamily,
    _finish,
    build_ade,
    loop_counts,
)
from oracles import loop_counts_two_products


def walks_by_enumeration(graph, length):
    """Count root-based closed walks by direct recursion over edge choices."""
    def go(v, remaining):
        if remaining == 0:
            return 1 if v == graph.root else 0
        return sum(go(u, remaining - 1) for u in graph.neighbours[v])

    return go(graph.root, length)


@pytest.mark.parametrize("tag,param", [
    ("A", 3), ("A", 5), ("D", 4), ("Dtilde", 4), ("Atilde", 4), ("E6", 6),
])
def test_loop_counts_against_enumeration(tag, param):
    g = build_ade(GraphFamily(tag, param))
    got = loop_counts(g, 4)
    assert got == [walks_by_enumeration(g, 2 * k) for k in range(5)]


@pytest.mark.parametrize("tag,param", [
    ("A", 9), ("Atilde", 2), ("Atilde", 10), ("D", 9), ("Dtilde", 21), ("E6", 0),
    ("E7", 0), ("E8", 0), ("E6tilde", 0), ("E7tilde", 0), ("E8tilde", 0),
])
def test_loop_counts_match_two_product_oracle(tag, param):
    g = build_ade(GraphFamily(tag, param))
    assert loop_counts(g, 160) == loop_counts_two_products(g, 160)


@pytest.mark.parametrize("tag,param,order", [
    ("A", MAX_VERTICES, 64), ("Atilde", MAX_VERTICES, 64), ("D", MAX_VERTICES, 64),
    ("Dtilde", MAX_VERTICES - 1, 64), ("E6", 0, 512), ("E7", 0, 512), ("E8", 0, 512),
])
def test_loop_counts_at_the_cap(tag, param, order):
    # the ball stays below the whole graph at the vertex cap, and the
    # exceptional graphs fill theirs within a few steps
    g = build_ade(GraphFamily(tag, param))
    assert loop_counts(g, order) == loop_counts_two_products(g, order)


def test_finish_rejects_bad_edge_lists():
    for edges, n, message in (
            ([(0, 1, 1)], 3, "graph is not connected"),
            ([(0, 1, 1), (1, 1, 1)], 2, "self-loop in adjacency"),
            ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3, "edge inside one parity class")):
        with pytest.raises(ValueError, match=message):
            _finish(edges, n, 0)


def test_loop_count_examples():
    assert loop_counts(build_ade(GraphFamily("A", 2)), 4) == [1, 1, 1, 1, 1]
    assert loop_counts(build_ade(GraphFamily("Atilde", 2)), 3) == [1, 4, 16, 64]
    assert loop_counts(build_ade(GraphFamily("A", 3)), 4) == [1, 1, 2, 4, 8]


def test_a2_shape():
    g = build_ade(GraphFamily("A", 2))
    assert g.vertex_count == 2
    assert g.neighbours == ((1,), (0,))
    assert g.degree(g.root) == 1


def test_atilde2_double_edge():
    g = build_ade(GraphFamily("Atilde", 2))
    assert g.vertex_count == 2
    assert g.neighbours[0] == (1, 1)


def test_e8_shape():
    g = build_ade(GraphFamily("E8", 8))
    assert g.vertex_count == 8
    degrees = sorted(g.degree(v) for v in range(8))
    assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]
    assert g.degree(g.root) == 1
    # root sits four steps from the branch vertex
    dist = {g.root: 0}
    frontier = [g.root]
    while frontier:
        v = frontier.pop()
        for u in g.neighbours[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    branch = next(v for v in range(8) if g.degree(v) == 3)
    assert dist[branch] == 4


def test_d3_root_is_branch():
    g = build_ade(GraphFamily("D", 3))
    assert g.vertex_count == 3
    assert g.degree(g.root) == 2


def test_dtilde4_star():
    g = build_ade(GraphFamily("Dtilde", 4))
    assert g.vertex_count == 5
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
    assert g.degree(g.root) == 1


def test_vertex_counts():
    assert build_ade(GraphFamily("A", 7)).vertex_count == 7
    assert build_ade(GraphFamily("D", 9)).vertex_count == 9
    assert build_ade(GraphFamily("Atilde", 10)).vertex_count == 10
    assert build_ade(GraphFamily("Dtilde", 8)).vertex_count == 9
    for tag, n in (("E6", 6), ("E7", 7), ("E8", 8)):
        assert build_ade(GraphFamily(tag, n)).vertex_count == n
        assert build_ade(GraphFamily(tag + "tilde", n)).vertex_count == n + 1


def test_bipartite_odd_powers_vanish():
    for tag, param in (("A", 4), ("D", 5), ("E7", 7), ("Dtilde", 6)):
        g = build_ade(GraphFamily(tag, param))
        n = g.vertex_count
        vec = [0] * n
        vec[g.root] = 1
        for step in range(1, 6):
            vec = [sum(vec[v] for v in g.neighbours[u]) for u in range(n)]
            if step % 2:
                assert vec[g.root] == 0
        assert all(g.parity[u] != g.parity[v]
                   for u in range(n) for v in g.neighbours[u])
        assert g.parity[g.root] == 0


def test_count_bounds():
    series_params = {"A": 5, "Atilde": 6, "D": 6, "Dtilde": 6}
    for tag in FAMILY_TAGS:
        param = series_params[tag] if tag in series_params else int(tag[1])
        g = build_ade(GraphFamily(tag, param))
        counts = loop_counts(g, 12)
        n = g.vertex_count
        # column v of A^2 sums to the degrees of v's neighbours
        col_norm = max(sum(g.degree(w) for w in g.neighbours[v]) for v in range(n))
        for k, c in enumerate(counts):
            assert c >= 1
            assert c <= 4 ** k
        for k in range(len(counts) - 1):
            assert counts[k + 1] <= col_norm * counts[k]


def test_build_memory_is_linear_in_vertices():
    # a dense n x n adjacency at the vertex cap peaks at about 245 MiB here
    tracemalloc.start()
    try:
        build_ade(GraphFamily("Atilde", MAX_VERTICES))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_parameter_errors():
    with pytest.raises(ParameterOutOfRange):
        build_ade(GraphFamily("A", 1))
    with pytest.raises(ParameterOutOfRange):
        build_ade(GraphFamily("D", 2))
    with pytest.raises(ParameterOutOfRange):
        build_ade(GraphFamily("Atilde", 3))
    with pytest.raises(ParameterOutOfRange):
        build_ade(GraphFamily("Dtilde", 3))
    with pytest.raises(UnsupportedFamily):
        GraphFamily("F4", 4)


@pytest.mark.parametrize("tag,param,message", [
    ("A", 1, "A needs at least 2 vertices"),
    ("Atilde", 3, "Atilde needs an even vertex count >= 2"),
    ("Atilde", 0, "Atilde needs an even vertex count >= 2"),
    ("D", 2, "D needs at least 3 vertices"),
    ("Dtilde", 3, "Dtilde needs parameter >= 4"),
])
def test_bad_parameter_raises_at_family(capsys, tag, param, message):
    with pytest.raises(ParameterOutOfRange) as exc:
        GraphFamily(tag, param)
    assert isinstance(exc.value, UnsupportedFamily)
    assert str(exc.value) == message
    code = cli.main(["graph-tseries", "--family", tag, "--param", str(param)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_exceptional_family_has_one_value():
    # the parameter of an exceptional family is the digit in its tag; the
    # default 0 stands for it and any other value is refused
    for tag in ("E6", "E7", "E8", "E6tilde", "E7tilde", "E8tilde"):
        assert GraphFamily(tag) == GraphFamily(tag, int(tag[1]))
        assert GraphFamily(tag).param == int(tag[1])
    for param in (99, -5, 8):
        with pytest.raises(ParameterOutOfRange, match="^E7 has parameter 7$"):
            GraphFamily("E7", param)
