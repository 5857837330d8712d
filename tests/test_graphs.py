import tracemalloc

import pytest

from cyclade import cli
from cyclade.cli import MAX_VERTICES
from cyclade.graphs import (
    FAMILY_TAGS,
    GraphFamily,
    ParameterOutOfRange,
    UnsupportedFamily,
    _TREES,
    build_ade,
    loop_counts,
)
from cyclade.verify import DEFAULT_SIZE_MATRIX
from oracles import _finish, build_ade_by_cases, loop_counts_two_products


def distances(graph):
    """The distance of each vertex from the root, by breadth-first search,
    -1 if unreached."""
    dist = {graph.root: 0}
    queue = [graph.root]
    for v in queue:
        for u in graph.neighbours[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return [dist.get(v, -1) for v in range(graph.vertex_count)]


def families_up_to(tag, top):
    """The families of the tag at every valid parameter up to top."""
    families = set()
    for param in range(top + 1):
        try:
            families.add(GraphFamily(tag, param))
        except ParameterOutOfRange:
            pass
    assert families
    return families


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


@pytest.mark.parametrize("order", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("tag,param", [
    ("A", 2), ("A", 3), ("D", 3), ("D", 4), ("Atilde", 2), ("Atilde", 4), ("Dtilde", 4),
    ("Dtilde", 5),
])
def test_loop_counts_at_the_least_parameters(tag, param, order):
    # one-vertex parity classes (A2, Atilde2, D3, Dtilde4), a double edge
    # (Atilde2) and a degree-4 vertex (Dtilde4); the orders run from inside
    # the ball depth (at most 3 here) to well past it
    g = build_ade(GraphFamily(tag, param))
    assert loop_counts(g, order) == loop_counts_two_products(g, order)


@pytest.mark.parametrize("tag,param,order", [
    ("A", MAX_VERTICES, 64), ("Atilde", MAX_VERTICES, 64), ("D", MAX_VERTICES, 64),
    ("Dtilde", MAX_VERTICES - 1, 64), ("E6", 0, 512), ("E7", 0, 512), ("E8", 0, 512),
])
def test_loop_counts_at_the_cap(tag, param, order):
    # the ball stays below the whole graph at the vertex cap, and the
    # exceptional graphs fill theirs within a few steps
    g = build_ade(GraphFamily(tag, param))
    assert loop_counts(g, order) == loop_counts_two_products(g, order)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_builder_matches_the_builder_by_cases(tag):
    # every parameter up to 30: the same rooted graph up to relabelling, as
    # far as vertex counts, loop counts and the degrees at each distance from
    # the root tell; A, D and Atilde keep the very same neighbour lists
    for fam in families_up_to(tag, 30):
        g, ref = build_ade(fam), build_ade_by_cases(fam)
        assert g.vertex_count == ref.vertex_count
        assert loop_counts(g, 80) == loop_counts(ref, 80)
        assert (sorted(zip(distances(g), map(len, g.neighbours)))
                == sorted(zip(distances(ref), map(len, ref.neighbours))))
        if tag in ("A", "D", "Atilde"):
            assert g.neighbours == ref.neighbours


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_built_graph_is_rooted_connected_and_bipartite(tag):
    # the builder refuses nothing, so every family up to parameter 40 (and
    # the six exceptional graphs) must come out connected from vertex 0, with
    # no self-loop, every edge joining the two parity classes of the distance
    # from the root, and each edge listed at both of its ends
    for fam in families_up_to(tag, 40):
        g = build_ade(fam)
        assert g.root == 0
        assert g.vertex_count == len(g.neighbours)
        dist = distances(g)
        assert -1 not in dist
        for u, nbrs in enumerate(g.neighbours):
            assert u not in nbrs
            for v in nbrs:
                assert (dist[u] - dist[v]) % 2 == 1
                assert nbrs.count(v) == g.neighbours[v].count(u)


def test_root_is_vertex_0_and_spine_vertex_i_is_i_steps_out():
    # the spine of a tree reaches as far from the root as any vertex does
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for param in params:
            g = build_ade(GraphFamily(tag, param))
            assert g.root == 0
            dist = distances(g)
            if tag == "Atilde":
                assert dist == [min(i, param - i) for i in range(param)]
            else:
                spine = _TREES[tag](param)[0]
                assert dist[:spine] == list(range(spine))
                assert max(dist) == spine - 1


@pytest.mark.parametrize("tag,param,neighbours", [
    ("Dtilde", 4, ((1,), (0, 2, 3, 4), (1,), (1,), (1,))),
    ("Dtilde", 5, ((1,), (0, 2, 4), (1, 3, 5), (2,), (1,), (2,))),
    ("E6", 0, ((1,), (0, 2), (1, 3, 5), (2, 4), (3,), (2,))),
    ("E7", 0, ((1,), (0, 2), (1, 3), (2, 4, 6), (3, 5), (4,), (3,))),
    ("E8", 0, ((1,), (0, 2), (1, 3), (2, 4), (3, 5, 7), (4, 6), (5,), (4,))),
    ("E6tilde", 0, ((1,), (0, 2), (1, 3, 5), (2, 4), (3,), (2, 6), (5,))),
    ("E7tilde", 0, ((1,), (0, 2), (1, 3), (2, 4, 7), (3, 5), (4, 6), (5,), (3,))),
    ("E8tilde", 0, ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6, 8), (5, 7), (6,), (5,))),
])
def test_tree_layout(tag, param, neighbours):
    # the spine from the root first, then each hanging path in table order
    g = build_ade(GraphFamily(tag, param))
    assert (g.vertex_count, g.neighbours, g.root) == (len(neighbours), neighbours, 0)


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
    assert len(g.neighbours[g.root]) == 1


def test_atilde2_double_edge():
    g = build_ade(GraphFamily("Atilde", 2))
    assert g.vertex_count == 2
    assert g.neighbours[0] == (1, 1)


def test_e8_shape():
    g = build_ade(GraphFamily("E8", 8))
    assert g.vertex_count == 8
    degrees = sorted(len(g.neighbours[v]) for v in range(8))
    assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]
    assert len(g.neighbours[g.root]) == 1
    # root sits four steps from the branch vertex
    dist = {g.root: 0}
    frontier = [g.root]
    while frontier:
        v = frontier.pop()
        for u in g.neighbours[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    branch = next(v for v in range(8) if len(g.neighbours[v]) == 3)
    assert dist[branch] == 4


def test_d3_root_is_branch():
    g = build_ade(GraphFamily("D", 3))
    assert g.vertex_count == 3
    assert len(g.neighbours[g.root]) == 2


def test_dtilde4_star():
    g = build_ade(GraphFamily("Dtilde", 4))
    assert g.vertex_count == 5
    assert sorted(len(g.neighbours[v]) for v in range(5)) == [1, 1, 1, 1, 4]
    assert len(g.neighbours[g.root]) == 1


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
        # a two-colouring by distance from the root has no edge inside a class
        side = {g.root: 0}
        queue = [g.root]
        for u in queue:
            for v in g.neighbours[u]:
                if v not in side:
                    side[v] = 1 - side[u]
                    queue.append(v)
        assert len(side) == n
        assert all(side[u] != side[v] for u in range(n) for v in g.neighbours[u])


def test_count_bounds():
    series_params = {"A": 5, "Atilde": 6, "D": 6, "Dtilde": 6}
    for tag in FAMILY_TAGS:
        param = series_params[tag] if tag in series_params else int(tag[1])
        g = build_ade(GraphFamily(tag, param))
        counts = loop_counts(g, 12)
        n = g.vertex_count
        # column v of A^2 sums to the degrees of v's neighbours
        col_norm = max(sum(len(g.neighbours[w]) for w in g.neighbours[v]) for v in range(n))
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


@pytest.mark.parametrize("tag,param", [("A", 3.5), ("A", "3"), ("Atilde", 4.0), ("E7", 7.0)])
def test_non_int_parameter_is_refused(tag, param):
    # refused by GraphFamily itself, not a TypeError from the bound check or
    # a float that reaches build_ade
    with pytest.raises(ParameterOutOfRange, match=f"^{tag} parameter must be an int, got "):
        GraphFamily(tag, param)


def test_family_and_graph_are_hashable_frozen_values():
    # equal families hash equally, the exceptional default included, so a
    # family built either way finds the same dict entry (as in the verify
    # run's memo); no field can be reassigned
    e7 = GraphFamily("E7")
    assert e7 == GraphFamily("E7", 7) == GraphFamily(tag="E7", param=0)
    assert hash(e7) == hash(GraphFamily("E7", 7))
    assert e7 != GraphFamily("E8") and e7 != ("E7", 7)
    assert {("counts", e7): 1}[("counts", GraphFamily("E7", 7))] == 1
    assert repr(e7) == "GraphFamily(tag='E7', param=7)"
    g = build_ade(GraphFamily("D", 4))
    assert g == build_ade(GraphFamily("D", 4)) and hash(g) == hash(build_ade(GraphFamily("D", 4)))
    assert g != build_ade(GraphFamily("Dtilde", 4))
    assert {g: 1}[build_ade(GraphFamily("D", 4))] == 1
    assert repr(g) == ("RootedBipartiteGraph(vertex_count=4, neighbours=((1,), (0, 2, 3), (1,), "
                       "(1,)), root=0)")
    for value, name in ((e7, "param"), (g, "root"), (g, "vertex_count")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (e7.param, g.root, g.vertex_count) == (7, 0, 4)
    with pytest.raises(UnsupportedFamily, match="unknown family tag 'F4'"):
        GraphFamily("F4")
