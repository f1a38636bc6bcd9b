"""Graph construction, parsing, subdivision, and named families."""

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import (
    DisconnectedError,
    EdgeListSyntaxError,
    EmptyGraphError,
    GraphError,
    LoopEdgeError,
)


def test_parse_banana():
    g = cf.parse_graph("a b\na b\na b")
    assert g.vertices == ("a", "b")
    assert len(g.edges) == 3
    assert g.multiplicity("a", "b") == 3


def test_parse_rejects_loop():
    with pytest.raises(LoopEdgeError):
        cf.parse_graph("a a")


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        cf.parse_graph("a b\nc d")


def test_parse_rejects_empty():
    with pytest.raises(EmptyGraphError):
        cf.parse_graph("# only a comment\n\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(EdgeListSyntaxError) as err:
        cf.parse_graph("a b\na b c d")
    assert err.value.line == 2


def test_parse_skips_comments_and_blanks():
    g = cf.parse_graph("# header\n\na b\n  \n# trailing\nb c\n")
    assert g.vertices == ("a", "b", "c")
    assert len(g.edges) == 2


def test_serialize_round_trip():
    g = cf.parse_graph("a b\nb c\na b\nc a")
    again = cf.parse_graph(cf.serialize_graph(g))
    assert again.vertices == g.vertices
    assert sorted(map(tuple, again.edges)) == sorted(map(tuple, g.edges))


def test_vertex_header_pins_canonical_order():
    # canonical order can differ from edge-appearance order; the header wins
    g = cf.MultiGraph(["x", "y", "z"], [("y", "z"), ("z", "x")])
    again = cf.parse_graph(cf.serialize_graph(g))
    assert again.vertices == ("x", "y", "z")
    assert again == g
    with pytest.raises(cf.EdgeListSyntaxError):
        cf.parse_graph("# vertices: a a\na b")


def test_genus_tree_is_zero():
    assert cf.genus(cf.path_graph(5)) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_genus_banana(n):
    assert cf.genus(cf.banana_graph(n)) == n - 1


def test_genus_complete_4():
    assert cf.genus(cf.complete_graph(4)) == 3  # 6 - 4 + 1


@pytest.mark.parametrize("n", range(2, 8))
def test_family_complete_counts(n):
    g = cf.complete_graph(n)
    assert len(g.vertices) == n
    assert len(g.edges) == n * (n - 1) // 2


def test_family_banana_labels():
    g = cf.banana_graph(3)
    assert g.vertices == ("Q1", "Q2")
    assert all(sorted(e) == ["Q1", "Q2"] for e in g.edges)


def test_family_banana_lengths():
    g = cf.banana_lengths_graph([2, 1, 1])
    assert len(g.vertices) == 3  # Q1, Q2, R1_1
    assert len(g.edges) == 4
    assert cf.genus(g) == 2
    assert g.has_vertex("R1_1")


def test_family_dispatcher():
    assert cf.family("banana", 4) == cf.banana_graph(4)
    assert cf.family("banana_lengths", 2, 2, 2) == cf.banana_lengths_graph([2, 2, 2])
    with pytest.raises(GraphError):
        cf.family("moebius", 5)
    with pytest.raises(GraphError):
        cf.family("complete", 1)


def test_subdivide_banana_matches_lengths_family():
    sub, vmap = cf.subdivide(cf.banana_graph(3), 2)
    direct = cf.banana_lengths_graph([2, 2, 2])
    assert len(sub.vertices) == len(direct.vertices)
    assert len(sub.edges) == len(direct.edges)
    assert sorted(sub.degrees()) == sorted(direct.degrees())
    assert cf.genus(sub) == cf.genus(direct) == 2
    assert cf.spanning_tree_count(sub) == cf.spanning_tree_count(direct)
    assert vmap == {"Q1": "Q1", "Q2": "Q2"}


def test_subdivide_identity():
    g = cf.complete_graph(4)
    sub, vmap = cf.subdivide(g, 1)
    assert sub == g
    assert vmap == {v: v for v in g.vertices}


def test_subdivide_rejects_zero():
    with pytest.raises(GraphError):
        cf.subdivide(cf.banana_graph(3), 0)


_B3 = cf.banana_graph(3)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: cf.subdivide(_B3, True), GraphError),
        (lambda: cf.subdivide(_B3, 2.0), GraphError),
        (lambda: cf.subdivide_edges(_B3, [True, 1, 2]), GraphError),
        (lambda: cf.subdivide_edges(_B3, [2, 1.0, 2]), GraphError),
        (lambda: cf.banana_graph(True), GraphError),
        (lambda: cf.banana_lengths_graph([2, "2"]), GraphError),
        (lambda: cf.cycle_graph(3.0), GraphError),
        (lambda: cf.complete_graph(False), GraphError),
        (lambda: cf.path_graph("3"), GraphError),
        (lambda: cf.random_multigraph(4, True, 1), GraphError),
        (lambda: cf.random_multigraph(4.0, 1, 1), GraphError),
        (lambda: cf.random_multigraph(4, -1, 1), GraphError),
        (lambda: cf.min_degree_grd(_B3, True, 3), ValueError),
        (lambda: cf.min_degree_grd(_B3, 1, 3.0), ValueError),
        (lambda: cf.exists_grd_witness(_B3, True, 3), ValueError),
        (lambda: cf.exists_grd_witness(_B3, 1.0, 3), ValueError),
        (lambda: cf.exists_grd_witness(_B3, 1, 2.0), ValueError),
        (lambda: cf.exists_grd_witness(_B3, 1, "3"), ValueError),
        (lambda: cf.exists_grd_witness(_B3, -1, 3), ValueError),
        (lambda: cf.exists_grd_witness(_B3, 1, -1), ValueError),
    ],
)
def test_malformed_counts_raise_typed_errors(build, error):
    """A count that is a bool, a float, a str or below its least value is
    refused with a typed error naming the value, never coerced (True is not
    1) and never a bare TypeError from a comparison or a range."""
    with pytest.raises(error, match="must be an int >= "):
        build()


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["a"], [("a",)]),
        (["a", "b"], [("a", "b", "c")]),
        (["a", "b"], [3]),
        ([["a"], "b"], []),
        (["a", "b"], [(["a"], "b")]),
    ],
    ids=["edge-of-one", "edge-of-three", "edge-not-a-pair", "unhashable-label",
         "unhashable-end"],
)
def test_malformed_graph_input_raises_graph_error(vertices, edges):
    """An edge that is not a pair and a label that cannot be a vertex are
    GraphErrors, not a ValueError from unpacking or a TypeError from
    hashing."""
    with pytest.raises(GraphError, match="not a pair|must be hashable"):
        cf.MultiGraph(vertices, edges)


def test_subdivide_names_a_user_label_that_collides_with_a_fresh_label():
    # edge 0 is (a, b), so subdividing it in two makes the fresh vertex a__b__0__1
    g = cf.parse_graph("a b\na b\nb a__b__0__1")
    with pytest.raises(GraphError, match="'a__b__0__1'"):
        cf.subdivide(g, 2)
    with pytest.raises(GraphError, match="'a__b__0__1'"):
        cf.subdivide_edges(g, [2, 1, 1])
    # labels of that shape that collide with nothing keep working
    sub, _ = cf.subdivide_edges(g, [1, 2, 1])  # edge 0 stays whole
    assert "a__b__1__1" in sub.vertices
    sub, vmap = cf.subdivide(cf.parse_graph("a c\nc a__b__0__1"), 2)
    assert vmap["a__b__0__1"] == "a__b__0__1"
    assert len(sub.vertices) == 5


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_subdivision_preserves_genus(seed, k):
    g = cf.random_multigraph(2 + seed % 5, seed % 5, seed=seed)
    sub, _ = cf.subdivide(g, k)
    assert cf.genus(sub) == cf.genus(g)


def test_cycle_two_is_double_edge():
    g = cf.cycle_graph(2)
    assert len(g.edges) == 2
    assert cf.genus(g) == 1


def test_immutability():
    g = cf.banana_graph(3)
    with pytest.raises(AttributeError):
        g.vertices = ()
