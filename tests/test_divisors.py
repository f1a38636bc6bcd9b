"""Divisor arithmetic, the Laplacian, and q-reduction."""

import importlib
import math
import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import DivisorError, MissingVertexError, UnboundVertexError, divisors

from oracles import (
    all_small_multigraphs,
    equivalent_oracle,
    reduced_laplacian_matrix,
    solve_exact,
    spanning_tree_oracle,
    winnable_oracle,
)

# The package re-exports the function rank under the module's name.
rank_module = importlib.import_module("chipfire.rank")


def random_divisor(g, rng, low=-3, high=3):
    return cf.Divisor(
        g, {v: rng.randint(low, high) for v in g.vertices if rng.random() < 0.7}
    )


def random_function(g, rng, low=-2, high=2):
    return {v: rng.randint(low, high) for v in g.vertices}


def test_divisor_basics():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": 2, "Q2": -1})
    assert d.degree == 1
    assert d["Q1"] == 2
    assert not d.is_effective()
    assert (d + d).degree == 2
    assert (d - d) == cf.zero_divisor(g)
    assert (2 * d)["Q2"] == -2


def test_divisor_hash_agrees_with_eq_across_equal_graphs():
    """Divisors that compare equal hash equal, even on distinct but equal
    graph objects."""
    a = cf.Divisor(cf.banana_graph(3), {"Q1": 1})
    b = cf.Divisor(cf.banana_graph(3), {"Q1": 1})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_divisor_rejects_unknown_vertex():
    g = cf.banana_graph(3)
    with pytest.raises(UnboundVertexError):
        cf.Divisor(g, {"nope": 1})


@pytest.mark.parametrize("value", [True, False, 1.5, 2.0, "1", "one", None])
def test_divisor_rejects_non_int_coefficients(value):
    g = cf.banana_graph(3)
    with pytest.raises(DivisorError):
        cf.Divisor(g, {"Q1": value})
    if value:  # from_vector skips falsy entries, as it skips zeros
        with pytest.raises(DivisorError):
            cf.Divisor.from_vector(g, [value, 1])


@pytest.mark.parametrize("value", [True, 1.5, "1", None])
def test_qdivisor_rejects_non_int_coefficients(value):
    qg = cf.QGraph.unit(cf.banana_graph(3))
    with pytest.raises(DivisorError):
        cf.QDivisor(qg, {qg.vertex_point("Q1"): value})


@pytest.mark.parametrize("point", ["Q1", 0, ("Q1",), None])
def test_qdivisor_rejects_points_that_are_not_qpoints(point):
    qg = cf.QGraph.unit(cf.banana_graph(3))
    with pytest.raises(DivisorError, match=re.escape(repr(point))):
        cf.QDivisor(qg, {point: 1})
    with pytest.raises(DivisorError, match=re.escape(repr(point))):
        cf.QDivisor(qg, {})[point]


def test_laplacian_banana_indicator():
    g = cf.banana_graph(3)
    d = cf.laplacian_apply(g, {"Q1": 1, "Q2": 0})
    assert d == cf.Divisor(g, {"Q1": 3, "Q2": -3})


def test_laplacian_kills_constants():
    g = cf.complete_graph(4)
    assert cf.laplacian_apply(g, {v: 7 for v in g.vertices}) == cf.zero_divisor(g)


def test_laplacian_path_indicator():
    g = cf.parse_graph("a b\nb c")
    d = cf.laplacian_apply(g, {"a": 1, "b": 0, "c": 0})
    assert d == cf.Divisor(g, {"a": 1, "b": -1})


def test_laplacian_requires_total_function():
    g = cf.banana_graph(3)
    with pytest.raises(MissingVertexError):
        cf.laplacian_apply(g, {"Q1": 1})


@pytest.mark.parametrize("value", [1.7, 2.0, "3", True, False, None])
def test_laplacian_rejects_non_int_values(value):
    """Values are never coerced: int(1.7) would be 1, int("3") 3, int(True) 1."""
    g = cf.banana_graph(3)
    with pytest.raises(DivisorError):
        cf.laplacian_apply(g, {"Q1": value, "Q2": 0})


def test_laplacian_rejects_unknown_labels():
    g = cf.banana_graph(3)
    with pytest.raises(UnboundVertexError):
        cf.laplacian_apply(g, {"Q1": 1, "Q2": 0, "Q3": 5})
    with pytest.raises(UnboundVertexError):
        cf.laplacian_apply(g, {"Q1": 1, "Q2": 0, 0: 0})


# Every entry point that reads a divisor's vector against a graph argument.
BOUND_ENTRY_POINTS = {
    "q_reduce": lambda g, d: cf.q_reduce(g, d, g.vertices[0]),
    "is_q_reduced": lambda g, d: cf.is_q_reduced(g, d, g.vertices[0]),
    "is_equivalent": lambda g, d: cf.is_equivalent(g, d, d),
    "is_equivalent_second": lambda g, d: cf.is_equivalent(g, cf.zero_divisor(g), d),
    "is_winnable": cf.is_winnable,
    "rank": cf.rank,
    "rank_with_certificate": cf.rank_with_certificate,
    "riemann_roch_check": cf.riemann_roch_check,
    "class_coordinates": cf.class_coordinates,
}


@pytest.mark.parametrize("name", sorted(BOUND_ENTRY_POINTS))
def test_divisor_on_another_graph_is_refused(name):
    """A divisor bound to a different graph would be read, silently, in that
    graph's vertex order; it raises, as metric.q_rank does. A divisor on an
    equal graph built separately passes and gives the same answer."""
    call = BOUND_ENTRY_POINTS[name]
    g = cf.banana_graph(3)
    foreign = cf.Divisor(cf.complete_graph(2), {"v1": 1, "v2": -1})
    with pytest.raises(UnboundVertexError):
        call(g, foreign)
    twin = cf.banana_graph(3)
    assert twin is not g
    assert call(g, cf.Divisor(twin, {"Q1": 1, "Q2": -1})) == call(
        g, cf.Divisor(g, {"Q1": 1, "Q2": -1})
    )


@pytest.mark.parametrize("kind", ["qdivisor", "dict"])
@pytest.mark.parametrize("name", sorted(BOUND_ENTRY_POINTS))
def test_divisor_of_the_wrong_kind_is_refused(name, kind):
    """A QDivisor or a plain dict where a Divisor is due is a DivisorError
    naming the expected type, not an AttributeError on its missing graph."""
    g = cf.banana_graph(3)
    qg = cf.QGraph.unit(g)
    wrong = {
        "qdivisor": cf.QDivisor(qg, {qg.vertex_point("Q1"): 1}),
        "dict": {"Q1": 1, "Q2": -1},
    }[kind]
    with pytest.raises(DivisorError, match="expected a Divisor"):
        BOUND_ENTRY_POINTS[name](g, wrong)


_UNIT_B3 = cf.QGraph.unit(cf.banana_graph(3))
_FLAT_B3 = cf.PLFunction(_UNIT_B3, {e: [(0, 0), (1, 0)] for e in range(3)})


@pytest.mark.parametrize(
    "build, error, kind",
    [
        (lambda: cf.Divisor("x", {"a": 1}), DivisorError, "MultiGraph"),
        (lambda: cf.Divisor("x", {}), DivisorError, "MultiGraph"),
        (lambda: cf.Divisor.from_vector("x", []), DivisorError, "MultiGraph"),
        (
            lambda: cf.QDivisor(cf.banana_graph(3), {_UNIT_B3.vertex_point("Q1"): 1}),
            DivisorError,
            "QGraph",
        ),
        (lambda: cf.QGraph("a b", [1]), cf.MetricError, "MultiGraph"),
        (lambda: cf.QGraph.unit("x"), cf.MetricError, "MultiGraph"),
        (lambda: cf.canonical_qdivisor("x"), cf.MetricError, "QGraph"),
        (lambda: cf.canonical_qdivisor(cf.banana_graph(3)), cf.MetricError, "QGraph"),
        (lambda: cf.Divisor(cf.banana_graph(3), [1, 2]), DivisorError, "Mapping"),
        (lambda: cf.QDivisor(_UNIT_B3, [1]), DivisorError, "Mapping"),
        (lambda: cf.laplacian_apply(cf.banana_graph(3), 5), DivisorError, "Mapping"),
        (lambda: cf.laplacian_apply(cf.banana_graph(3), [1]), DivisorError, "Mapping"),
        (lambda: cf.divisor_of_function(_UNIT_B3, "f"), cf.MetricError, "PLFunction"),
        (lambda: cf.PLFunction(_UNIT_B3, None), cf.MetricError, "Mapping"),
        (lambda: cf.PLFunction("x", {}), cf.MetricError, "QGraph"),
        (lambda: cf.divisor_of_function("x", _FLAT_B3), cf.MetricError, "QGraph"),
        (lambda: cf.QGraph(cf.banana_graph(3), 5), cf.MetricError, "iterable of edge lengths"),
        (lambda: cf.parse_graph(5), cf.GraphError, "str"),
        (lambda: cf.parse_qgraph(5), cf.GraphError, "str"),
        (lambda: cf.serialize_qgraph(5), cf.MetricError, "QGraph"),
        (lambda: cf.serialize_qgraph(None), cf.MetricError, "QGraph"),
        (lambda: cf.serialize_qgraph("x"), cf.MetricError, "QGraph"),
        (lambda: cf.MultiGraph(5, []), cf.GraphError, "iterable of vertex labels"),
        (lambda: cf.MultiGraph(["a"], 5), cf.GraphError, "iterable of edges"),
        (lambda: cf.nu_divisor(cf.banana_graph(3), 5), ValueError, "iterable of vertex labels"),
    ],
    ids=["divisor-str", "divisor-str-empty", "from-vector-str", "qdivisor-graph",
         "qgraph-str", "unit-str", "canonical-str", "canonical-graph",
         "divisor-list", "qdivisor-list", "laplacian-int", "laplacian-list",
         "function-str", "segments-none", "function-graph-str", "divisor-of-graph-str",
         "lengths-int", "parse-int", "parse-q-int",
         "serialize-q-int", "serialize-q-none", "serialize-q-str",
         "vertices-int", "edges-int", "ordering-int"],
)
def test_carrier_of_the_wrong_kind_is_refused(build, error, kind):
    """A divisor or a metric graph built on a carrier of the wrong kind, and
    a graph, divisor, function, text or ordering given a value of the wrong
    kind, is a typed error naming the expected kind, not an AttributeError
    or a TypeError from a missing attribute or a failed iteration, and
    never a divisor bound to a string. A list is no vertex function, so
    laplacian_apply does not read its items as vertex labels."""
    with pytest.raises(error, match=f"expected an? {kind}, got "):
        build()


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_laplacian_degree_zero(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    assert cf.laplacian_apply(g, random_function(g, rng)).degree == 0


def test_q_reduce_idempotent():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": -2, "Q2": 5})
    once = cf.q_reduce(g, d, "Q1")
    assert cf.q_reduce(g, once, "Q1") == once
    assert cf.is_q_reduced(g, once, "Q1")


def test_q_reduce_banana_principal_pair():
    g = cf.banana_graph(3)
    a = cf.q_reduce(g, cf.Divisor(g, {"Q1": 3}), "Q1")
    b = cf.q_reduce(g, cf.Divisor(g, {"Q2": 3}), "Q1")
    assert a == b  # 3(Q1) - 3(Q2) is the Laplacian of the Q1 indicator


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_q_reduce_constant_on_classes(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    d = random_divisor(g, rng)
    shifted = d + cf.laplacian_apply(g, random_function(g, rng))
    q = g.vertices[0]
    assert cf.q_reduce(g, d, q) == cf.q_reduce(g, shifted, q)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_q_reduce_output_is_equivalent_and_reduced(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    d = random_divisor(g, rng)
    q = g.vertices[rng.randrange(len(g.vertices))]
    red = cf.q_reduce(g, d, q)
    assert cf.is_q_reduced(g, red, q)
    assert equivalent_oracle(g, d.to_vector(), red.to_vector())
    assert all(red[v] >= 0 for v in g.vertices if v != q)


def test_is_equivalent_reflexive():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": 2})
    assert cf.is_equivalent(g, d, d)


def test_is_equivalent_banana_singletons_differ():
    g = cf.banana_graph(3)
    assert not cf.is_equivalent(
        g, cf.Divisor(g, {"Q1": 1}), cf.Divisor(g, {"Q2": 1})
    )


def test_is_equivalent_quartic_paper_pair():
    g = cf.load_fixture().graph
    assert cf.is_equivalent(
        g, cf.Divisor(g, {"Q1": 3}), cf.Divisor(g, {"P": 2, "P'": 1})
    )
    assert cf.is_equivalent(g, cf.Divisor(g, {"Q1": 3}), cf.Divisor(g, {"Q2": 3}))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_is_equivalent_matches_oracle(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 3, seed % 4, seed=seed)
    d1 = random_divisor(g, rng, -2, 2)
    d2 = random_divisor(g, rng, -2, 2)
    assert cf.is_equivalent(g, d1, d2) == equivalent_oracle(
        g, d1.to_vector(), d2.to_vector()
    )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_warmed_session_answers_like_a_fresh_graph_and_the_oracle(seed):
    """is_equivalent and is_winnable reduce through the graph's rank
    session. Once ranks, certificates and the same calls have filled its
    memo, they answer from it without reducing, and what they answer is
    what a fresh equal graph object, whose memo starts empty, and the
    brute-force oracles answer."""
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 3, seed % 4, seed=seed)
    pairs = []
    for _ in range(4):
        d = random_divisor(g, rng, -2, 2)
        pairs.append((d, random_divisor(g, rng, -2, 2)))
        pairs.append((d, d + cf.laplacian_apply(g, random_function(g, rng))))
    for d, other in pairs:
        cf.rank_with_certificate(g, d)
        cf.is_equivalent(g, d, other)
        cf.is_winnable(g, other)
    fresh = cf.MultiGraph(g.vertices, g.edges)
    for d, other in pairs:
        with mock.patch.object(rank_module, "reduce_vector", side_effect=AssertionError), \
                mock.patch.object(divisors, "reduce_vector", side_effect=AssertionError):
            warm = (cf.is_equivalent(g, d, other), cf.is_winnable(g, d), cf.is_winnable(g, other))
        assert warm == (
            cf.is_equivalent(fresh, d, other),
            cf.is_winnable(fresh, d),
            cf.is_winnable(fresh, other),
        )
        assert warm == (
            equivalent_oracle(g, d.to_vector(), other.to_vector()),
            winnable_oracle(g, d.to_vector()),
            winnable_oracle(g, other.to_vector()),
        )


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_equivalence_relation_on_degree_stratum(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 4, seed % 5, seed=seed)
    base = random_divisor(g, rng, -2, 2)
    shift1 = cf.laplacian_apply(g, random_function(g, rng))
    shift2 = cf.laplacian_apply(g, random_function(g, rng))
    a, b, c = base, base + shift1, base + shift1 + shift2
    assert cf.is_equivalent(g, a, a)
    assert cf.is_equivalent(g, a, b) == cf.is_equivalent(g, b, a)
    assert cf.is_equivalent(g, a, b) and cf.is_equivalent(g, b, c)
    assert cf.is_equivalent(g, a, c)


def test_reduce_multifire_matches_single_fire():
    """The accelerated reduction (maximal legal firing multiples) must land
    on the same divisor as the textbook loop: borrow at one debtor other
    than q at a time, then fire the unburnt set of a Dhar pass once per
    round."""
    from chipfire.divisors import _dhar_unburnt, reduce_vector

    def single_fire(g, vec):
        n = len(g.vertices)
        adj = g.adjacency()
        degs = g.degrees()
        debtor = next((v for v in range(1, n) if vec[v] < 0), None)
        while debtor is not None:
            vec[debtor] += degs[debtor]
            for j, mult in adj[debtor]:
                vec[j] -= mult
            debtor = next((v for v in range(1, n) if vec[v] < 0), None)
        while True:
            members, burnt, _ = _dhar_unburnt(adj, vec, 0, n)
            if len(members) == n:
                return vec
            for v in range(n):
                if not burnt[v]:
                    for j, mult in adj[v]:
                        if burnt[j]:
                            vec[v] -= mult
                            vec[j] += mult

    for trial in range(150):
        rng = random.Random(trial)
        n = rng.randint(2, 7)
        g = cf.random_multigraph(n, rng.randint(0, 6), seed=trial)
        vec = [rng.randint(-25, 25) for _ in range(n)]
        fast = list(vec)
        reduce_vector(g, fast, 0)
        assert fast == single_fire(g, list(vec))


def test_reduced_factor_solves_exactly():
    """At every root, the cached factor's last pivot is det(L_q), the
    spanning-tree count (matrix-tree theorem); the solve from it gives
    Y = adj(L_q) b, so L_q Y = det * b, and Y // det is the floor of the
    exact rational solution."""
    graphs = list(all_small_multigraphs(4, 5))
    graphs += [cf.random_multigraph(n, n % 4, seed=n) for n in range(5, 9)]
    rng = random.Random(0)
    for g in graphs:
        trees = spanning_tree_oracle(g)
        n = len(g.vertices)
        for q in range(n):
            det, _ = g.reduced_factor(q)
            assert det == trees
            b = [rng.randint(-40, 40) for _ in range(n)]
            det, y = divisors._adjugate_times(g, b, q)
            assert y[q] == 0
            y, b = y[:q] + y[q + 1:], b[:q] + b[q + 1:]
            lap = reduced_laplacian_matrix(g, q)
            for row, bi in zip(lap, b):
                assert sum(a * x for a, x in zip(row, y)) == det * bi
            exact = solve_exact(lap, b) if lap else []
            assert [x // det for x in y] == [math.floor(x) for x in exact]


def test_reduced_factor_fill_on_long_chains():
    """The cached factor stays sparse on long chains: banana(3) with each
    edge cut into 100 factors with at most 3 (n - 1) off-diagonal entries
    at every root tried, where a dense factor holds (n - 1)(n - 2) / 2."""
    g, _ = cf.subdivide(cf.banana_graph(3), 100)
    n = len(g.vertices)
    assert n == 299
    for q in (0, 1, n - 1):
        det, steps = g.reduced_factor(q)
        assert det == 3 * 100**2
        assert len(steps) == n - 1
        assert sum(len(row) for _, _, row in steps) <= 3 * (n - 1)


def test_rounding_step_differential():
    """reduce_vector against the oracles on both of its routes, at a random
    root, also on graphs with long chains, and the max-script route's
    rounding step itself: it fires an integer vector, and what it leaves
    away from q is L_q f with 0 <= f < 1."""
    rounded = []
    skipped = []
    real_step = divisors._fire_floor_potential

    def checked_step(g, vec, q):
        before = list(vec)
        real_step(g, vec, q)
        f = solve_exact(reduced_laplacian_matrix(g, q), vec[:q] + vec[q + 1:])
        assert all(0 <= x < 1 for x in f), f
        assert equivalent_oracle(g, before, vec)
        rounded.append(g)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 10**6))
    def check(seed):
        rng = random.Random(seed)
        if seed % 4:
            n = rng.randint(5, 15)
            g = cf.random_multigraph(n, rng.randint(0, n), seed=seed)
        else:
            # long chains: a small multigraph with edges cut into up to 30
            core = cf.random_multigraph(rng.randint(2, 4), rng.randint(0, 2), seed=seed)
            counts = [rng.randint(1, 30) for _ in core.edges]
            g, _ = cf.subdivide_edges(core, counts)
            n = len(g.vertices)
        q = rng.randrange(n)
        amplitude = rng.randint(0, 20)
        f = {v: rng.randint(-amplitude, amplitude) for v in g.vertices}
        vec = cf.laplacian_apply(g, f).to_vector()
        for _ in range(rng.randint(0, 3)):
            src, dst = rng.sample(range(n), 2)
            vec[src] -= 1
            vec[dst] += 1
        calls = len(rounded)
        out = divisors.reduce_vector(g, list(vec), q)
        if len(rounded) == calls:
            skipped.append(seed)
        assert cf.is_q_reduced(g, cf.Divisor.from_vector(g, out), g.vertices[q])
        assert equivalent_oracle(g, vec, out)

    with mock.patch.object(divisors, "_fire_floor_potential", checked_step):
        check()
    assert rounded and skipped
    assert any(len(g.vertices) > 30 for g in rounded)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_lending_lands_on_the_reduced_form(seed):
    """A q-reduced D minus one chip at a vertex v where D is zero, the input
    the rank search hands to reduce_vector, on random multigraphs and their
    subdivisions with a random root q. Lending (the burning passes from
    v) must end on the q-reduced form R after exactly t(v) rounds, where
    C + L t = R and t(q) = 0 come from the oracle's exact solve (the
    corollary in divisors.reduce_vector), and the one Dhar pass from q
    after it must leave nothing unburnt. That pass is the one _one_short
    skips; with it the reducer runs the same lending passes and returns R."""
    rng = random.Random(seed)
    g = cf.random_multigraph(rng.randint(2, 7), rng.randint(0, 5), seed=seed)
    g, _ = cf.subdivide(g, rng.randint(1, 4))
    n = len(g.vertices)
    q = rng.randrange(n)
    vec = [rng.randint(-2, 4) for _ in range(n)]
    divisors.reduce_vector(g, vec, q)
    v = rng.choice([i for i in range(n) if i != q])
    vec[v] = 0  # chips removed away from q keep a divisor q-reduced
    assert cf.is_q_reduced(g, cf.Divisor.from_vector(g, vec), g.vertices[q])
    start = list(vec)
    start[v] -= 1

    passes = []  # (source, burnt count) per burning pass
    real_pass = divisors._dhar_unburnt

    def counted_pass(adj, vec, root, size, source=None):
        result = real_pass(adj, vec, root, size, source)
        passes.append((root if source is None else source, len(result[0])))
        assert len(passes) <= 10_000, "lending did not stop"
        return result

    with mock.patch.object(divisors, "_dhar_unburnt", counted_pass):
        out = divisors.reduce_vector(g, list(start), q)
        lending = passes[:]
        passes.clear()
        early = divisors.reduce_vector(g, list(start), q, _one_short=True)
    rounds = sum(source != q for source, _ in lending)
    assert all(source == v for source, _ in lending[:rounds])
    assert lending[rounds:] == [(q, n)]  # one pass, and nothing was left unburnt
    # _one_short skips exactly that pass and ends where the full path does
    assert early == out and passes == lending[:rounds]
    assert all(c >= 0 for i, c in enumerate(out) if i != q)
    assert equivalent_oracle(g, start, out)
    assert cf.is_q_reduced(g, cf.Divisor.from_vector(g, out), g.vertices[q])
    diff = [b - a for i, (a, b) in enumerate(zip(start, out)) if i != q]
    t = solve_exact(reduced_laplacian_matrix(g, q), diff)
    t.insert(q, 0)
    assert all(x.denominator == 1 and x >= 0 for x in t)
    assert rounds == t[v]


def test_reduction_shifts_with_the_coefficient_at_q():
    """Nothing in reduce_vector depends on vec[q]: adding a chips at q adds a
    to the reduced form at q and changes nothing else (rank._Session keys
    its memo on that). Random multigraphs and their subdivisions, a random
    root q, and debts from one chip up to thousands, where the rounding
    step runs; some cases must round and some must not."""
    rounded = []
    real_round = divisors._fire_floor_potential

    def counted_round(g, vec, q):
        rounded.append(1)
        return real_round(g, vec, q)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.integers(0, 10**6))
    def check(seed):
        rng = random.Random(seed)
        g = cf.random_multigraph(rng.randint(2, 7), rng.randint(0, 5), seed=seed)
        g, _ = cf.subdivide(g, rng.randint(1, 3))
        n = len(g.vertices)
        q = rng.randrange(n)
        amplitude = rng.choice((1, 4, 1000))
        vec = [rng.randint(-amplitude, amplitude) for _ in range(n)]
        a = rng.randint(-2 * amplitude, 2 * amplitude)
        out = divisors.reduce_vector(g, list(vec), q)
        vec[q] += a
        out[q] += a
        assert divisors.reduce_vector(g, vec, q) == out

    with mock.patch.object(divisors, "_fire_floor_potential", counted_round):
        check()
    assert 0 < len(rounded) < 240


def test_max_script_route_takes_debts_and_large_inputs():
    """reduce_vector has two routes. An input that owes at most one chip
    away from q, at one vertex, and holds at most 2|E| chips there burns
    (lending first if it owes); every other input is reduced by
    _lower_to_max_script with no burning pass. Five input classes are
    drawn, and each must be reached: lending, indebted, debt-free at or
    below 2|E|, debt-free above it, and lending above it. Random
    multigraphs and their subdivisions, a random root q, debts from one
    chip up to 10^3, Laplacian images with chips moved. The output is
    q-reduced and equivalent to the input (oracles). On graphs of at most
    15 vertices the script fired, f with f(q) = 0 and D - L f the output,
    is an integer vector with f <= floor(L_q^-1 D_q), the lemma's bound
    (exact solves)."""
    entered = []
    real_step = divisors._lower_to_max_script
    real_pass = divisors._dhar_unburnt
    passes = []

    def counted_pass(*args):
        passes.append(1)
        return real_pass(*args)

    def checked_step(g, vec, q):
        before = len(passes)
        out = real_step(g, vec, q)
        assert len(passes) == before, "the max-script step ran a burning pass"
        entered.append(g)
        return out

    classes = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 10**6))
    def check(seed):
        rng = random.Random(seed)
        g = cf.random_multigraph(rng.randint(2, 7), rng.randint(0, 5), seed=seed)
        g, _ = cf.subdivide(g, rng.randint(1, 3))
        n = len(g.vertices)
        q = rng.randrange(n)
        kind = seed % 5
        if kind == 0:  # debts of any size
            amplitude = rng.choice((1, 3, 30, 1000))
            vec = [rng.randint(-amplitude, amplitude) for _ in range(n)]
        elif kind == 1:  # a Laplacian image with chips moved
            amplitude = rng.choice((1, 5, 100))
            f = {v: rng.randint(-amplitude, amplitude) for v in g.vertices}
            vec = cf.laplacian_apply(g, f).to_vector()
            for _ in range(rng.randint(0, 3)):
                src, dst = rng.sample(range(n), 2)
                vec[src] -= 1
                vec[dst] += 1
        elif kind == 2:  # debt-free away from q, on both sides of 2|E|
            high = rng.choice((2, 1000))
            vec = [rng.randint(0, high) for _ in range(n)]
            vec[q] = rng.randint(-high, high)
        else:  # lending: a q-reduced divisor minus one chip where it is zero
            vec = [rng.randint(-2, 4) for _ in range(n)]
            divisors.reduce_vector(g, vec, q)
            v = rng.choice([i for i in range(n) if i != q])
            vec[v] = -1
            if kind == 4 and n > 2:  # and more than 2|E| chips elsewhere
                others = [i for i in range(n) if i not in (q, v)]
                for _ in range(2 * len(g.edges) + 2):
                    vec[rng.choice(others)] += 1
        debts = [c for i, c in enumerate(vec) if i != q and c < 0]
        large = sum(vec) - vec[q] > 2 * len(g.edges)
        label = "lending" if debts == [-1] else "indebted" if debts else "debt-free"
        if label != "indebted":
            label += " above 2|E|" if large else " at or below 2|E|"
        classes.add(label)
        max_script = label not in ("lending at or below 2|E|", "debt-free at or below 2|E|")
        calls = len(entered)
        out = divisors.reduce_vector(g, list(vec), q)
        assert (len(entered) > calls) == max_script, label
        assert cf.is_q_reduced(g, cf.Divisor.from_vector(g, out), g.vertices[q])
        assert equivalent_oracle(g, vec, out)
        if max_script and n <= 15:
            lap = reduced_laplacian_matrix(g, q)
            away = [i for i in range(n) if i != q]
            fired = solve_exact(lap, [vec[i] - out[i] for i in away])
            bound = solve_exact(lap, [vec[i] for i in away])
            assert all(x.denominator == 1 for x in fired)
            assert all(x <= math.floor(y) for x, y in zip(fired, bound))

    with mock.patch.object(divisors, "_lower_to_max_script", checked_step), \
            mock.patch.object(divisors, "_dhar_unburnt", counted_pass):
        check()
    assert classes == {
        "lending at or below 2|E|", "lending above 2|E|", "indebted",
        "debt-free at or below 2|E|", "debt-free above 2|E|",
    }
    assert any(len(g.vertices) > 15 for g in entered)


def test_canonical_divisor_quartic():
    g = cf.load_fixture().graph
    assert cf.canonical_divisor(g) == cf.Divisor(g, {"P": 2, "Q1": 1, "Q2": 1})


def test_canonical_divisor_cycle_is_zero():
    g = cf.cycle_graph(5)
    assert cf.canonical_divisor(g) == cf.zero_divisor(g)


@pytest.mark.parametrize("n", range(3, 9))
def test_canonical_divisor_banana(n):
    g = cf.banana_graph(n)
    k = cf.canonical_divisor(g)
    assert k == cf.Divisor(g, {"Q1": n - 2, "Q2": n - 2})
    assert k.degree == 2 * cf.genus(g) - 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_degree_formula(seed):
    g = cf.random_multigraph(2 + seed % 6, seed % 7, seed=seed)
    assert cf.canonical_divisor(g).degree == 2 * cf.genus(g) - 2


def test_qdivisor_arithmetic_across_metric_graphs_raises():
    model = cf.banana_graph(3)
    qa = cf.QGraph.unit(model)
    qb = cf.QGraph(model, [F(1, 2), F(1), F(1)])
    da = cf.QDivisor(qa, {qa.point(0, F(1, 3)): 1})
    db = cf.QDivisor(qb, {qb.point(0, F(1, 3)): 1})
    for op in (lambda: db + da, lambda: db - da, lambda: da + db):
        with pytest.raises(UnboundVertexError):
            op()
    with pytest.raises(TypeError):
        da + cf.Divisor(model, {"Q1": 1})


def test_qdivisor_hash_agrees_with_eq():
    """QDivisors that compare equal hash equal, also on distinct but equal
    metric graphs and when a point is given as an edge endpoint."""
    qa = cf.QGraph(cf.banana_graph(3), [F(1, 2), F(1), F(1)])
    qb = cf.QGraph(cf.banana_graph(3), [F(1, 2), F(1), F(1)])
    a = cf.QDivisor(qa, {qa.point(0, F(1, 4)): 2, qa.point(0, F(1, 2)): 1})
    b = cf.QDivisor(qb, {qb.vertex_point("Q2"): 1, qb.point(0, F(1, 4)): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
