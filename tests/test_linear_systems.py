"""Gonality, minimal-degree systems, Weierstrass points, gaps."""

import functools
import importlib
import itertools
import random
import sys
import threading
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import divisors

from oracles import (
    all_small_multigraphs,
    effective_vectors,
    rank_oracle,
    treewidth_oracle,
    winnable_oracle,
)


def test_min_degree_grd_complete():
    for n in range(3, 7):
        w = cf.min_degree_grd(cf.complete_graph(n), 1, n)
        assert w is not None and w.degree == n - 1 and w.rank == 1


def test_min_degree_grd_quartic():
    g = cf.load_fixture().graph
    w = cf.min_degree_grd(g, 1, 4)
    assert w is not None and w.degree == 3


def test_min_degree_grd_tree():
    w = cf.min_degree_grd(cf.path_graph(5), 1, 3)
    assert w is not None and w.degree == 1 and w.rank == 1


def test_min_degree_grd_none_when_capped():
    g = cf.complete_graph(5)
    assert cf.min_degree_grd(g, 1, 2) is None


def test_min_degree_grd_witness_invariants():
    g = cf.banana_graph(4)
    w = cf.min_degree_grd(g, 1, cf.genus(g) + 1)
    assert cf.rank(g, w.divisor) == w.rank == 1
    assert w.divisor.degree == w.degree


def test_witness_degrees_monotone_in_r():
    for i in range(8):
        g = cf.random_multigraph(2 + i % 4, 1 + i % 4, seed=40 + i)
        gg = cf.genus(g)
        degrees = []
        for r in (1, 2, 3):
            w = cf.min_degree_grd(g, r, gg + r)
            assert w is not None  # degree g + r always has rank >= r
            degrees.append(w.degree)
        assert degrees == sorted(degrees)


def test_gonality_banana():
    for n in range(3, 8):
        assert cf.gonality(cf.banana_graph(n)) == 2


def test_gonality_complete_5():
    assert cf.gonality(cf.complete_graph(5)) == 4


@pytest.mark.parametrize("n", range(3, 7))
def test_gonality_cycle_is_two(n):
    g = cf.cycle_graph(n)
    # brute-force floor: no single vertex carries a pencil on a cycle
    assert all(
        rank_oracle(g, vec) < 1 for vec in effective_vectors(len(g.vertices), 1)
    )
    assert cf.gonality(g) == 2


def _oracle_min_degree(g, r):
    """Least d such that some effective divisor of degree d keeps every
    removal of r chips winnable, by brute force."""
    n = len(g.vertices)
    for d in itertools.count(r):
        for vec in effective_vectors(n, d):
            if all(
                winnable_oracle(g, [a - b for a, b in zip(vec, e)])
                for e in effective_vectors(n, r)
            ):
                return d


def test_gonality_matches_oracle_small():
    for i in range(10):
        g = cf.random_multigraph(2 + i % 3, i % 3, seed=60 + i)
        assert cf.gonality(g) == _oracle_min_degree(g, 1)


def test_min_degree_grd_matches_oracle_exhaustive_small():
    """The g^r_d enumeration stops at configurations of size d - r; every
    small graph must keep its oracle minimal degrees for r = 1 (gonality)
    and r = 2, including graphs whose only witnesses hold exactly r chips
    at the base vertex."""
    for g in all_small_multigraphs(max_vertices=4, max_edges=5):
        assert cf.gonality(g) == _oracle_min_degree(g, 1), g
        if len(g.edges) <= 4:  # the r = 2 oracle is ten times slower
            witness = cf.min_degree_grd(g, 2, cf.genus(g) + 2)
            assert witness.degree == _oracle_min_degree(g, 2), g
            assert witness.rank == 2


def test_treewidth_bounds_gonality():
    """gonality(G) >= tw(G) (van Dobben de Bruyn-Gijswijt 2020), checked
    against the subset dynamic program of the oracles on the graphs of the
    gonality tests above, K5 to K8 (where both are n - 1), the cube Q3
    (tw 3) and the 2 x 4 grid (tw 2)."""
    graphs = [cf.banana_graph(n) for n in range(1, 8)]
    graphs += [cf.cycle_graph(n) for n in range(3, 7)] + [cf.path_graph(1)]
    graphs += [cf.random_multigraph(2 + i % 3, i % 3, seed=60 + i) for i in range(10)]
    graphs += [cf.random_multigraph(2 + i % 3, 1 + i % 3, seed=150 + i) for i in range(6)]
    graphs += list(all_small_multigraphs(max_vertices=4, max_edges=5))
    for n in range(5, 9):
        g = cf.complete_graph(n)
        assert cf.gonality(g) == treewidth_oracle(g) == n - 1
    cube = [f"{i:03b}" for i in range(8)]
    graphs.append(cf.MultiGraph(cube, [
        (a, b) for a, b in itertools.combinations(cube, 2)
        if sum(x != y for x, y in zip(a, b)) == 1
    ]))
    grid = [(r, c) for r in range(2) for c in range(4)]
    graphs.append(cf.MultiGraph(grid, [
        (a, b) for a, b in itertools.combinations(grid, 2)
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    ]))
    assert [treewidth_oracle(g) for g in graphs[-2:]] == [3, 2]
    for g in graphs:
        assert cf.gonality(g) >= treewidth_oracle(g), g


def test_hyperelliptic_banana_and_complete():
    assert cf.is_hyperelliptic(cf.banana_graph(4))
    assert not cf.is_hyperelliptic(cf.complete_graph(5))
    assert not cf.is_hyperelliptic(cf.cycle_graph(4))  # genus 1


def test_every_genus_two_graph_is_hyperelliptic():
    for i in range(15):
        g = cf.random_multigraph(2 + i % 5, 2, seed=80 + i)
        assert cf.is_hyperelliptic(g)


def test_weierstrass_banana_empty():
    for n in range(3, 9):
        assert cf.weierstrass_points(cf.banana_graph(n)) == ()


def test_weierstrass_complete_all():
    for n in range(4, 7):
        g = cf.complete_graph(n)
        assert cf.weierstrass_points(g) == g.vertices


def test_weierstrass_quartic():
    g = cf.load_fixture().graph
    assert cf.weierstrass_points(g) == ("Q1", "Q2")


def test_weierstrass_banana_lengths_endpoints():
    g = cf.banana_lengths_graph([2, 2, 2])
    points = cf.weierstrass_points(g)
    assert "Q1" not in points and "Q2" not in points


def test_gap_sequence_banana3():
    g = cf.banana_graph(3)
    assert cf.gap_sequence(g, "Q1") == [1, 2]


def test_gap_sequence_cardinality_is_genus():
    for i in range(12):
        g = cf.random_multigraph(2 + i % 5, 1 + i % 5, seed=90 + i)
        for v in g.vertices:
            assert len(cf.gap_sequence(g, v)) == cf.genus(g)


def test_gap_sequence_quartic_q1():
    g = cf.load_fixture().graph
    gaps = cf.gap_sequence(g, "Q1")
    assert 3 not in gaps  # rank jumps at 3(Q1)
    assert len(gaps) == 3


def test_gap_sequence_requires_positive_genus():
    with pytest.raises(ValueError):
        cf.gap_sequence(cf.path_graph(3), "v1")


def test_weierstrass_iff_nontrivial_gaps():
    """A vertex is a Weierstrass point exactly when its gaps differ from
    {1, ..., g}, and exactly when the canonical class covers g(P)."""
    for i in range(10):
        g = cf.random_multigraph(2 + i % 4, 2 + i % 3, seed=110 + i)
        gg = cf.genus(g)
        k = cf.canonical_divisor(g)
        weier = set(cf.weierstrass_points(g))
        for v in g.vertices:
            gaps = cf.gap_sequence(g, v)
            by_gaps = gaps != list(range(1, gg + 1))
            gp = cf.Divisor(g, {v: gg})
            by_canonical = cf.rank(g, k - gp) >= 0
            assert (v in weier) == by_gaps == by_canonical


def test_residual_tree_banana():
    g = cf.banana_graph(4)
    assert cf.is_residual_tree_vertex(g, "Q1")


def test_residual_tree_quartic_p():
    g = cf.load_fixture().graph
    assert cf.is_residual_tree_vertex(g, "P")
    assert not cf.is_residual_tree_vertex(g, "Q1")


def test_residual_tree_k4_minus_edge():
    g = cf.parse_graph("a b\na c\nb c\nb d\nc d")  # K4 without the a-d edge
    assert cf.genus(g) == 2
    # deleting either degree-2 vertex leaves a triangle
    assert not cf.is_residual_tree_vertex(g, "a")
    assert not cf.is_residual_tree_vertex(g, "d")
    # deleting a degree-3 vertex leaves a path
    assert cf.is_residual_tree_vertex(g, "b")
    assert cf.is_residual_tree_vertex(g, "c")


def test_residual_tree_requires_genus_two():
    with pytest.raises(ValueError):
        cf.is_residual_tree_vertex(cf.cycle_graph(4), "v1")


def test_residual_tree_unknown_vertex():
    with pytest.raises(cf.GraphError):
        cf.is_residual_tree_vertex(cf.banana_graph(3), "nowhere")


def test_residual_tree_vertices_are_never_weierstrass():
    for i in range(12):
        g = cf.random_multigraph(2 + i % 5, 2 + i % 4, seed=130 + i)
        weier = set(cf.weierstrass_points(g))
        for v in g.vertices:
            if cf.is_residual_tree_vertex(g, v):
                assert v not in weier


def test_gonality_survives_subdivision_audit():
    """Degree-minimality under subdivision is an open question; a mismatch
    here is a reportable finding rather than a test crash."""
    findings = []
    for i in range(6):
        g = cf.random_multigraph(2 + i % 3, 1 + i % 3, seed=150 + i)
        base = cf.gonality(g)
        for k in (2, 3):
            sub, _ = cf.subdivide(g, k)
            if cf.gonality(sub) != base:
                findings.append((cf.serialize_graph(g), k))
    if findings:
        warnings.warn(f"gonality changed under subdivision: {findings}")


def test_gonality_degenerate_families():
    assert cf.gonality(cf.path_graph(1)) == 1
    assert cf.gonality(cf.banana_graph(1)) == 1  # a single edge is a tree
    assert cf.gonality(cf.banana_graph(2)) == 2  # the 2-cycle has genus 1
    assert cf.weierstrass_points(cf.path_graph(4)) == ()


# -- the engine checks are live ------------------------------------------------

_linear_systems = importlib.import_module("chipfire.linear_systems")


def test_min_degree_grd_exact_rank_check_is_live():
    """An engine whose exact rank of a witness overshoots r by one makes
    min_degree_grd raise rather than report a minimal system of the wrong
    rank."""
    g = cf.complete_graph(4)
    with mock.patch.object(_linear_systems, "_rank_of", lambda sess, red: 2):
        with pytest.raises(AssertionError, match="has rank 2, expected 1"):
            cf.min_degree_grd(g, 1, 4)


def test_gonality_bound_check_is_live():
    """An engine that finds no divisor of rank >= 1 breaks the bound
    gonality <= genus + 1, and gonality raises rather than return None."""
    g = cf.complete_graph(4)
    with mock.patch.object(_linear_systems, "_rank_at_least", lambda *args: False):
        with pytest.raises(AssertionError, match="no rank-1 divisor of degree"):
            cf.gonality(g)


def test_gap_count_check_is_live():
    """An engine that gives every k(p) rank 0 reports 2g - 1 gaps, not g,
    and gap_sequence raises."""
    g = cf.banana_graph(3)
    with mock.patch.object(_linear_systems, "_rank_reduced", lambda sess, red: 0):
        with pytest.raises(AssertionError, match="gap count 3 != genus 2"):
            cf.gap_sequence(g, "Q1")


def test_rank_degree_floor():
    assert cf.rank_degree_floor(0, 1) == 1
    assert cf.rank_degree_floor(1, 1) == 2
    assert cf.rank_degree_floor(5, 1) == 2
    assert cf.rank_degree_floor(2, 2) == 4
    assert cf.rank_degree_floor(6, 2) == 4


def _superstable_oracle(g, max_size):
    """Configurations c (c at the base is 0, 0 <= c(v) < deg(v)) of total at
    most max_size on which no nonempty vertex set avoiding the base can
    fire, in lexicographic order; by brute force over all vertex sets."""
    n = len(g.vertices)
    degs = g.degrees()
    adj = g.adjacency()
    out = []
    for tail in itertools.product(*(range(degs[v]) for v in range(1, n))):
        if sum(tail) > max_size:
            continue
        config = (0,) + tail
        fires = False
        for mask in range(1, 1 << (n - 1)):
            inside = {v for v in range(1, n) if mask >> (v - 1) & 1}
            if all(
                config[v] >= sum(m for j, m in adj[v] if j not in inside)
                for v in inside
            ):
                fires = True
                break
        if not fires:
            out.append(config)
    return sorted(out)


def test_superstable_configs_order_and_long_cycle():
    # min_degree_grd returns the first witness found, so the lexicographic
    # order of the enumeration is part of its contract
    # A rank session's burning-test memo, shared by walks of every size and
    # filled by the first pass, changes nothing in what a walk yields.
    for i in range(12):
        g = cf.random_multigraph(2 + i % 4, i % 4, seed=300 + i)
        tested = {}
        for max_size in (1, 2, None, 1, 2, None):
            cap = max_size if max_size is not None else sum(g.degrees())
            got = list(cf.superstable_configs(g, max_size=max_size))
            assert got == _superstable_oracle(g, cap)
            assert list(cf.superstable_configs(g, max_size, _tested=tested)) == got
    # the high-degree audit's walk: each configuration but the zero one is
    # the last one yielded with one chip fewer, plus a chip at v
    for i in range(12):
        g = cf.random_multigraph(2 + i % 5, i % 4, seed=400 + i)
        last = {}
        for c, v in divisors._superstable_steps(g, None):
            s = sum(c)
            if s:
                parent = list(c)
                parent[v] -= 1
                assert tuple(parent) == last[s - 1]
            else:
                assert v == 0
            last[s] = c
    # one configuration per vertex plus the empty one, with no recursion
    # limit on the vertex count
    assert len(list(cf.superstable_configs(cf.cycle_graph(1500), max_size=1))) == 1500


def test_superstable_configs_below_size_zero_is_empty():
    """Regression: a negative max_size yielded the zero configuration,
    whose size 0 exceeds it."""
    g = cf.banana_graph(3)
    assert list(cf.superstable_configs(g, max_size=-1)) == []
    assert list(cf.superstable_configs(g, max_size=0)) == [(0, 0)]


# -- one graph object, many queries --------------------------------------------

_ORACLE_MAX_VERTICES = 5


@st.composite
def _graph_and_queries(draw):
    """A random multigraph and a mixed list of finite queries on it."""
    n = draw(st.integers(2, 6))
    g = cf.random_multigraph(n, draw(st.integers(0, 3)), seed=draw(st.integers(0, 10**6)))
    vec = st.lists(st.integers(-1, 2), min_size=n, max_size=n)
    query = st.one_of(
        st.tuples(st.just("rank"), vec),
        st.tuples(st.just("certificate"), vec),
        st.tuples(st.just("riemann_roch"), vec),
        st.tuples(st.just("witness"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("min_degree"), st.integers(1, 2), st.integers(1, 5)),
        st.tuples(st.sampled_from(("gonality", "weierstrass"))),
        st.tuples(st.just("gaps"), st.integers(0, n - 1)),
    )
    return g, draw(st.lists(query, min_size=2, max_size=8))


def _witness_data(witness):
    if witness is None:
        return None
    return witness.divisor.to_vector(), witness.degree, witness.rank


def _answer(g, query):
    """The query's answer on g, as plain data."""
    kind, *args = query
    if kind in ("rank", "certificate", "riemann_roch"):
        d = cf.Divisor.from_vector(g, args[0])
        if kind == "rank":
            return cf.rank(g, d)
        if kind == "riemann_roch":
            return cf.riemann_roch_check(g, d)
        result = cf.rank_with_certificate(g, d)
        assert result.verify(g, d)
        return (result.rank, result.effective_witness, result.failing_evidence,
                result.nu_ordering, result.nu)
    if kind == "witness":
        return _witness_data(cf.exists_grd_witness(g, *args))
    if kind == "min_degree":
        return _witness_data(cf.min_degree_grd(g, *args))
    if kind == "gonality":
        return cf.gonality(g)
    if kind == "weierstrass":
        return cf.weierstrass_points(g)
    if cf.genus(g) < 1:
        with pytest.raises(ValueError):
            cf.gap_sequence(g, g.vertices[args[0]])
        return None
    return cf.gap_sequence(g, g.vertices[args[0]])


def _oracle_check(g, query, answer, winnable):
    """answer agrees with the brute-force oracles of tests/oracles.py."""
    n = len(g.vertices)

    def rank(vec):  # rank_oracle, with winnable_oracle cached per graph
        if not winnable(tuple(vec)):
            return -1
        k = 0
        while all(
            winnable(tuple(a - b for a, b in zip(vec, e)))
            for e in effective_vectors(n, k + 1)
        ):
            k += 1
        return k

    def least_degree(r, d_max):
        for d in range(r, d_max + 1):
            if any(rank(v) >= r for v in effective_vectors(n, d)):
                return d
        return None

    kind, *args = query
    if kind == "rank":
        assert answer == rank(args[0])
    elif kind == "certificate":
        assert answer[0] == rank(args[0])
    elif kind == "riemann_roch":
        canonical = [deg - 2 for deg in g.degrees()]
        assert (answer.rank, answer.canonical_minus_rank) == (
            rank(args[0]), rank([k - c for k, c in zip(canonical, args[0])])
        )
    elif kind == "witness":
        r, d = args
        exists = any(rank(v) >= r for v in effective_vectors(n, d))
        assert (answer is not None) == exists
        if answer is not None:
            assert answer[1] == d and answer[2] == rank(answer[0]) >= r
    elif kind == "min_degree":
        r, d_max = args
        least = least_degree(r, d_max)
        assert (None if answer is None else answer[1]) == least
        if answer is not None:
            assert answer[2] == rank(answer[0]) == r
    elif kind == "gonality":
        assert answer == least_degree(1, cf.genus(g) + 1)
    elif kind == "weierstrass":
        gg = cf.genus(g)
        expected = tuple(
            v for i, v in enumerate(g.vertices)
            if rank([gg if j == i else 0 for j in range(n)]) >= 1
        )
        assert answer == expected
    elif answer is not None:
        gg = cf.genus(g)
        ranks = [rank([k if j == args[0] else 0 for j in range(n)]) for k in range(2 * gg)]
        assert answer == [k for k in range(1, 2 * gg) if ranks[k] == ranks[k - 1]]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_graph_and_queries())
def test_queries_on_one_graph_match_fresh_copies_and_oracles(case):
    """A graph keeps one rank session, whose memos every query on it
    shares. Whatever the order of the queries, each answer must equal the
    same query's answer on a fresh copy of the graph, which starts with no
    memos, also when the whole sequence runs a second time on the shared
    graph; on at most 5 vertices it must equal the brute-force oracles."""
    g, queries = case
    answers = [_answer(g, q) for q in queries]
    assert [_answer(g, q) for q in queries] == answers
    winnable = functools.cache(lambda vec: winnable_oracle(g, list(vec)))
    for query, answer in zip(queries, answers):
        assert _answer(cf.MultiGraph(g.vertices, g.edges), query) == answer, query
        if len(g.vertices) <= _ORACLE_MAX_VERTICES:
            _oracle_check(g, query, answer, winnable)


def test_threads_sharing_one_graph_get_fresh_copy_answers():
    """Threads that query one graph object share its session's memos. Four
    threads start each query together, behind a barrier and with a short
    switch interval, so that they meet on the same memo keys inside the
    searches and walks; every answer must equal the one a fresh copy
    gives."""
    base = cf.complete_graph(5)
    n = len(base.vertices)
    queries = [("gonality",), ("weierstrass",), ("min_degree", 2, 7), ("witness", 2, 6)]
    queries += [("gaps", i) for i in range(n)]
    rng = random.Random(11)
    for kind in ("rank", "certificate", "riemann_roch") * 3:
        queries.append((kind, tuple(rng.randint(0, 3) for _ in range(n))))
    expected = [_answer(cf.MultiGraph(base.vertices, base.edges), q) for q in queries]
    shared = cf.MultiGraph(base.vertices, base.edges)
    barrier = threading.Barrier(4)
    got, errors = {}, []

    def work(i):
        try:
            got[i] = []
            for q in queries:
                barrier.wait(timeout=60)
                got[i].append(_answer(shared, q))
        except Exception as exc:  # reported below, with the others
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == {i: expected for i in range(4)}
