"""Metric graphs: native reduction against the unit-model oracle, rational
ranks, function divisors, probes."""

import json
import math
import random
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import DiscontinuityError, MetricError, NonIntegerSlopeError
from chipfire import metric
from chipfire.cli import main
from chipfire.divisors import reduce_vector
from chipfire.metric import _MetricSession, _grid_state, _on_grid, _plain

from oracles import unit_model_oracle


F = Fraction


def random_pl_function(qg, rng):
    """Random rational function: integer values at vertices, joined along
    each edge by one or two integer-slope segments."""
    values = {v: rng.randint(-2, 2) for v in qg.model.vertices}
    segments = {}
    for edge, (u, v) in enumerate(qg.model.edges):
        length = qg.lengths[edge]
        delta = F(values[v] - values[u])
        average = delta / length
        if average.denominator == 1:
            segments[edge] = [(0, values[u]), (length, values[v])]
            continue
        low = math.floor(average)
        t = delta - low * length  # slope low+1 for t, then slope low
        segments[edge] = [
            (0, values[u]),
            (t, values[u] + (low + 1) * t),
            (length, values[v]),
        ]
    return cf.PLFunction(qg, segments)


# -- unit models (the test oracle) ------------------------------------------------


def test_unit_model_identity():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    graph, _ = unit_model_oracle(qg, 1)
    assert graph == qg.model


def test_unit_model_halves():
    # scaling (1/2, 1/2, 1/2) by the denominator lcm gives unit lengths
    qg = cf.QGraph(cf.banana_graph(3), [F(1, 2)] * 3)
    with pytest.raises(MetricError):
        unit_model_oracle(qg, 1)
    graph, _ = unit_model_oracle(qg, 2)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 3
    assert cf.genus(graph) == 2


def test_unit_model_quarter_points():
    # supports at quarter points force scale 4 and four pieces per edge
    qg = cf.QGraph(cf.banana_graph(3), [F(1, 2)] * 3)
    p = qg.point(0, F(1, 8))
    d = cf.QDivisor(qg, {p: 1})
    assert cf.q_rank(qg, d) == 0
    graph, _ = unit_model_oracle(qg.scaled(4), 1)
    assert len(graph.edges) == 6
    graph, vertex_of = unit_model_oracle(qg, 8)
    assert cf.rank(graph, cf.Divisor(graph, {vertex_of(p): 1})) == 0


def test_unit_model_mixed_denominators():
    path = cf.path_graph(3)
    qg = cf.QGraph(path, [F(1, 2), F(1, 3)])
    graph, _ = unit_model_oracle(qg, 6)
    assert len(graph.edges) == 3 + 2


def test_unit_model_vertex_of_grid_points():
    qg = cf.QGraph.unit(cf.banana_graph(4))
    p = qg.point(2, F(1))  # endpoint collapses to Q2
    assert p.vertex == "Q2"
    qg6 = cf.QGraph(qg.model, [F(5, 6), F(1), F(1), F(1)])
    graph, vertex_of = unit_model_oracle(qg6, 6)
    assert vertex_of(p) == "Q2"
    # offset 1/3 at scale 6 is the second unit vertex on edge 0's path:
    # two unit steps from Q1 and three from Q2
    label = vertex_of(qg6.point(0, F(1, 3)))
    for end, steps in (("Q1", 2), ("Q2", 3)):
        dist = graph.distances(graph.index(end))
        assert dist[graph.index(label)] == steps


def test_unit_model_rejects_off_grid_point():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    p = qg.point(0, F(1, 3))
    _, vertex_of = unit_model_oracle(qg, 1)
    with pytest.raises(cf.UnrepresentablePointError):
        vertex_of(p)
    with pytest.raises(cf.UnrepresentablePointError):
        _on_grid(p.offset.numerator, p.offset.denominator, 1)


# -- native reduction against the unit model ------------------------------------


@st.composite
def metric_divisors(draw):
    """A QGraph on 2-5 vertices with length denominators 1-3, and a divisor
    of mixed sign at points with offset denominators 1-3, debts at interior
    points included."""
    n, extra = draw(st.integers(2, 5)), draw(st.integers(0, 2))
    g = cf.random_multigraph(n, extra, seed=draw(st.integers(0, 10**6)))
    lengths = [F(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in g.edges]
    qg = cf.QGraph(g, lengths)
    coeffs = {}
    for c in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5)):
        edge = draw(st.integers(0, len(g.edges) - 1))
        den = draw(st.integers(1, 3))
        offset = F(draw(st.integers(0, int(lengths[edge] * den))), den)
        point = qg.point(edge, offset)
        coeffs[point] = coeffs.get(point, 0) + c
    return qg, cf.QDivisor(qg, coeffs)


def _session(qg, d):
    """The metric session of d's grid, d's state there, and the grid's scale:
    the least common denominator of the lengths and offsets."""
    units, state, scale = _grid_state(qg.model, qg.lengths, *_plain(d))
    assert scale == math.lcm(
        *(l.denominator for l in qg.lengths),
        *(p.offset.denominator for p in d.support() if p.vertex is None),
    )
    return _MetricSession(qg.model, units), state, scale


def _state_items(qg, scale, state):
    """The (point, chips) pairs of a metric session state at a scale."""
    items = [(qg.vertex_point(v), c) for v, c in zip(qg.model.vertices, state[:-1])]
    return items + [(qg.point(e, F(pos, scale)), c) for e, pos, c in state[-1]]


def _unit_vector(graph, vertex_of, items):
    vec = [0] * len(graph.vertices)
    for point, c in items:
        vec[graph.index(vertex_of(point))] += c
    return vec


@settings(max_examples=300, derandomize=True, deadline=None)
@given(metric_divisors())
def test_native_reduction_matches_unit_model(case):
    """Reduction on the model's segments is bit-identical to reduce_vector
    on the unit-edge subdivision, and q_rank equals the unbranched rank()
    there (Hladky-Kral-Norine 2013). A chip sent the wrong way never
    settles, so the firing steps are capped."""
    qg, d = case
    sess, state, scale = _session(qg, d)
    graph, vertex_of = unit_model_oracle(qg, scale)

    steps = []
    real_fire = _MetricSession._fire_unburnt

    def capped_fire(self, *args):
        steps.append(1)
        assert len(steps) <= 1_000, "native reduction did not stop"
        return real_fire(self, *args)

    with mock.patch.object(_MetricSession, "_fire_unburnt", capped_fire):
        red = sess.reduced(state)
    expected = _unit_vector(graph, vertex_of, d.items())
    reduce_vector(graph, expected, 0)
    assert _unit_vector(graph, vertex_of, _state_items(qg, scale, red)) == expected
    if d.degree <= 2 * qg.genus:
        unit_d = cf.Divisor.from_vector(graph, _unit_vector(graph, vertex_of, d.items()))
        assert cf.q_rank(qg, d) == cf.rank(graph, unit_d)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(metric_divisors(), st.data())
def test_one_short_lending_lands_on_the_reduced_form(case, data):
    """The metric twin of test_divisors' lending test: a q-reduced state
    minus one chip at a model vertex v != q that holds none, the input the
    rank search hands to _reduce. With one_short the reducer stops once the
    debt is paid, and must end where the full loop ends, one burning pass
    (the pass from q) sooner, on reduce_vector's result for the unit-edge
    subdivision (the lending corollary there carries over: a metric
    lending step of length t is t lending rounds at this scale)."""
    qg, d = case
    sess, state, scale = _session(qg, d)
    graph, vertex_of = unit_model_oracle(qg, scale)
    red = list(sess._reduce(state, False))
    red[data.draw(st.integers(1, sess.n - 1))] = -1  # chips removed, then one more
    start = tuple(red)

    passes = []
    real_pass = metric._dhar_unburnt

    def counted_pass(*args):
        passes.append(1)
        assert len(passes) <= 1_000, "native reduction did not stop"
        return real_pass(*args)

    with mock.patch.object(metric, "_dhar_unburnt", counted_pass):
        full = sess._reduce(start, False)
        full_passes = len(passes)
        passes.clear()
        early = sess._reduce(start, True)
    assert early == full
    assert len(passes) == full_passes - 1
    expected = _unit_vector(graph, vertex_of, _state_items(qg, scale, start))
    reduce_vector(graph, expected, 0)
    assert _unit_vector(graph, vertex_of, _state_items(qg, scale, full)) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(metric_divisors(), st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_sessions_sharing_a_frame_reduce_as_fresh_ones(case, stretch):
    """One model frame, so one dict of segment skeletons, serves sessions
    on the grid's lengths, on the lengths at 2N and on longer edges, in
    turn. A skeleton holds no lengths or positions, so each reduced form
    equals that of a session on a fresh frame and reduce_vector's on the
    unit-edge subdivision, and the shared frame meets the fresh frames'
    shapes."""
    qg, d = case
    model = qg.model
    units, state, _ = _grid_state(model, qg.lengths, *_plain(d))
    fine = (*state[:-1], tuple((e, 2 * pos, c) for e, pos, c in state[-1]))
    longer = [l + k for l, k in zip(units, stretch)]
    frame = metric._model_frame(model)
    shapes = set()
    for lengths, start in ((units, state), ([2 * l for l in units], fine), (longer, state)):
        red = _MetricSession(model, lengths, frame).reduced(start)
        fresh = _MetricSession(model, lengths)
        assert red == fresh.reduced(start)
        shapes.update(fresh.skeletons)
        grid = cf.QGraph(model, lengths)
        graph, vertex_of = unit_model_oracle(grid, 1)
        expected = _unit_vector(graph, vertex_of, _state_items(grid, 1, start))
        reduce_vector(graph, expected, 0)
        assert _unit_vector(graph, vertex_of, _state_items(grid, 1, red)) == expected
    assert set(frame[2]) == shapes


def test_segment_skeleton_is_keyed_by_shape_alone():
    """Sessions on lengths (3, 2) and (5, 4) of banana(2) share the one
    skeleton of the shape (0,), one interior point on edge 0, and read the
    frontier segments' lengths off their own lengths and positions. With
    a chip at Q2 and one at 2 along edge 0, the frontier is Q1-p (2 long)
    and edge 1 (2 or 4 long). With Q2 empty and two chips at p, it is
    Q1-p (2) and p-Q2 (1 or 3 long)."""
    model = cf.banana_graph(2)
    frame = metric._model_frame(model)
    fired = []
    for lengths in ((3, 2), (5, 4)):
        sess = _MetricSession(model, lengths, frame)
        for vertex, interior in (((0, 1), ((0, 2, 1),)), ((0, 0), ((0, 2, 2),))):
            chips, adj, segs = sess._segments(vertex, interior)
            _, burnt, _ = metric._dhar_unburnt(adj, chips, 0, len(chips))
            fired.append(sess._fire_unburnt(chips, segs, burnt, interior))
    assert list(frame[2]) == [(0,)]
    assert fired == [
        ((2, 0), ()),
        ((0, 1), ((0, 1, 1),)),
        ((1, 0), ((1, 2, 1),)),
        ((1, 0), ((0, 4, 1),)),
    ]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(metric_divisors(), st.integers(-20, 20))
def test_metric_reduction_shifts_with_the_coefficient_at_q(case, a):
    """The metric reduction never depends on the chips at q (vertex 0): a
    more there reduce to the same state plus a at q. rank._Session memoizes
    reductions on the rest of the state, and its answer for the shifted
    state is the direct one."""
    qg, d = case
    sess, state, _ = _session(qg, d)
    shifted = (state[0] + a, *state[1:])
    red = sess._reduce(state, False)
    expected = (red[0] + a, *red[1:])
    assert sess._reduce(shifted, False) == expected
    assert sess.reduced(state) == red
    assert sess.reduced(shifted) == expected
    assert len(sess.reduce_memo) == 1


# -- q_rank ----------------------------------------------------------------


def test_q_rank_unit_banana_pair():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    d = cf.QDivisor(qg, {qg.vertex_point("Q1"): 1, qg.vertex_point("Q2"): 1})
    assert cf.q_rank(qg, d) == 1


def test_q_rank_zero():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    assert cf.q_rank(qg, cf.QDivisor(qg, {})) == 0


def test_q_rank_norine_midpoint():
    qg = cf.QGraph.unit(cf.banana_graph(4))
    p = qg.point(1, F(1, 2))
    assert cf.q_rank(qg, cf.QDivisor(qg, {p: 3})) >= 1


def test_q_rank_vertex_supported_matches_graph_rank():
    rng = random.Random("match")
    for i in range(8):
        g = cf.random_multigraph(2 + i % 4, i % 4, seed=170 + i)
        qg = cf.QGraph.unit(g)
        coeffs = {v: rng.randint(-1, 2) for v in g.vertices}
        d = cf.Divisor(g, coeffs)
        qd = cf.QDivisor(qg, {qg.vertex_point(v): c for v, c in coeffs.items()})
        assert cf.q_rank(qg, qd) == cf.rank(g, d)


def test_q_rank_rejects_divisor_of_another_qgraph():
    # same model, other lengths: offset 1/2 of a length-2 edge is no point
    # of the length-1 edge it would be read on
    long = cf.QGraph(cf.banana_graph(4), [2, 1, 1, 1])
    short = cf.QGraph.unit(cf.banana_graph(4))
    d = cf.QDivisor(long, {long.point(0, F(1, 2)): 3})
    with pytest.raises(cf.UnboundVertexError):
        cf.q_rank(short, d)
    with pytest.raises(cf.UnboundVertexError):
        cf.semicontinuity_probe(short, d, eps=F(1, 6), samples=1, seed=0)
    assert cf.q_rank(cf.QGraph(cf.banana_graph(4), [2, 1, 1, 1]), d) == cf.q_rank(long, d)


# Every entry point that reads a rational divisor against a metric graph.
QBOUND_ENTRY_POINTS = {
    "q_rank": cf.q_rank,
    "metric_rr_check": cf.metric_rr_check,
    "semicontinuity_probe": lambda qg, d: cf.semicontinuity_probe(
        qg, d, eps=F(1, 6), samples=1, seed=0
    ),
}


@pytest.mark.parametrize("kind", ["divisor", "dict"])
@pytest.mark.parametrize("name", sorted(QBOUND_ENTRY_POINTS))
def test_divisor_of_the_wrong_kind_is_refused_by_metric_ranks(name, kind):
    """A graph Divisor or a plain dict where a QDivisor is due is a
    DivisorError naming the expected type, not an AttributeError on its
    missing qgraph."""
    qg = cf.QGraph.unit(cf.banana_graph(4))
    wrong = {
        "divisor": cf.Divisor(qg.model, {"Q1": 3}),
        "dict": {qg.vertex_point("Q1"): 3},
    }[kind]
    with pytest.raises(cf.DivisorError, match="expected a QDivisor"):
        QBOUND_ENTRY_POINTS[name](qg, wrong)


@pytest.mark.parametrize("kind", ["multigraph", "str"])
@pytest.mark.parametrize("name", sorted(QBOUND_ENTRY_POINTS))
def test_graph_of_the_wrong_kind_is_refused_by_metric_ranks(name, kind):
    """A MultiGraph or a str where a QGraph is due is a MetricError naming
    the expected type; the probe checks it before it reads the lengths."""
    qg = cf.QGraph.unit(cf.banana_graph(4))
    d = cf.QDivisor(qg, {qg.point(0, F(1, 2)): 3})
    wrong = {"multigraph": qg.model, "str": "banana(4)"}[kind]
    with pytest.raises(MetricError, match="expected a QGraph"):
        QBOUND_ENTRY_POINTS[name](wrong, d)


def test_q_rank_keeps_qgraphs_on_one_model_apart():
    """Two QGraphs on one model object, lengths (3, 1) and (2, 1) on the
    2-cycle: D = 2(v2) - 2p, p at offset 1 on edge 0, is principal exactly
    when 2 * 3 - 2 * 1 = 4 is a multiple of the circumference (Abel-Jacobi
    on a genus-1 curve), so its rank is 0 on the first and -1 on the second.
    Both give D the same search state, so a memo kept on the model would
    answer one query with the other's reduction; each rank must also equal
    the finite rank on the unit-edge subdivision."""
    model = cf.cycle_graph(2)
    expected = {(3, 1): 0, (2, 1): -1}
    pairs = []
    for lengths in expected:
        qg = cf.QGraph(model, lengths)
        d = cf.QDivisor(qg, {qg.vertex_point("v2"): 2, qg.point(0, F(1)): -2})
        pairs.append((lengths, qg, d))
    for _ in range(2):
        for lengths, qg, d in pairs:
            assert cf.q_rank(qg, d) == expected[lengths]
            unit, vertex_of = unit_model_oracle(qg, 1)
            finite = cf.Divisor(unit, {vertex_of(p): c for p, c in d.items()})
            assert cf.rank(unit, finite) == expected[lengths]


def test_q_rank_invariant_under_integer_scaling():
    qg = cf.QGraph.unit(cf.banana_graph(4))
    p = qg.point(0, F(1, 3))
    d = cf.QDivisor(qg, {p: 2, qg.vertex_point("Q2"): 1})
    base = cf.q_rank(qg, d)
    for k in (2, 3):
        scaled = qg.scaled(k)
        sp = scaled.point(0, F(1, 3) * k)
        sd = cf.QDivisor(scaled, {sp: 2, scaled.vertex_point("Q2"): 1})
        assert cf.q_rank(scaled, sd) == base


def test_subdivision_audit_disagreement_raises(capsys):
    """The 2N audit is a live check. With the rank at scale 2N off by one,
    q_rank raises SubdivisionAuditError (audit=False still ranks once, at
    N), and the CLI's qrank --json exits 1 with an error payload and no
    traceback."""
    real = metric._rank_on_grid
    calls = []

    def off_at_2n(model, units, state, frame=None):
        calls.append(units)
        value = real(model, units, state, frame=frame)
        if len(calls) == 2:
            assert units == [2 * l for l in calls[0]]
            return value + 1
        return value

    with mock.patch.object(metric, "_rank_on_grid", off_at_2n):
        with pytest.raises(cf.SubdivisionAuditError, match="at scale 4"):
            cf.q_rank(_BANANA, _BANANA_MID)
        calls.clear()
        assert cf.q_rank(_BANANA, _BANANA_MID, audit=False) == 1
        calls.clear()
        code = main([
            "--json", "qrank", "banana(4)", '[{"edge": 0, "offset": "1/2", "coeff": 3}]'
        ])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["status"] == "error"
    assert "rank 1 at scale 2 but 2 at scale 4" in payload["error"]
    assert "Traceback" not in captured.out + captured.err


# -- function divisors -------------------------------------------------------


def test_divisor_of_constant_function():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    f = cf.PLFunction(qg, {e: [(0, 5), (1, 5)] for e in range(3)})
    assert cf.divisor_of_function(qg, f) == cf.QDivisor(qg, {})


def test_divisor_of_tent():
    path = cf.QGraph.unit(cf.path_graph(2))
    f = cf.PLFunction(path, {0: [(0, 0), (F(1, 2), F(1, 2)), (1, 0)]})
    d = cf.divisor_of_function(path, f)
    peak = path.point(0, F(1, 2))
    assert d[peak] == 2
    assert d[path.vertex_point("v1")] == -1
    assert d[path.vertex_point("v2")] == -1
    assert d.degree == 0


def test_divisor_of_norine_case_1a():
    """The two-point construction on one banana edge: constant elsewhere,
    slopes -2 then +1 around P at 5/12 with Q at 7/12."""
    qg = cf.QGraph.unit(cf.banana_graph(4))
    xp, xq = F(5, 12), F(7, 12)
    y = (3 * xp - xq) / 2  # the kink where the slope -2 run starts
    assert y == F(1, 3)
    f = cf.PLFunction(
        qg,
        {
            0: [(0, 0), (y, 0), (xp, -2 * (xp - y)), (xq, 0), (1, 0)],
            1: [(0, 0), (1, 0)],
            2: [(0, 0), (1, 0)],
            3: [(0, 0), (1, 0)],
        },
    )
    d = cf.divisor_of_function(qg, f)
    p, q = qg.point(0, xp), qg.point(0, xq)
    floor = cf.QDivisor(qg, {p: -3, q: 1})
    assert all((d - floor)[pt] >= 0 for pt in (d - floor).support())
    assert d[p] == -3
    assert d[q] == 1


def test_function_divisor_degree_zero_random():
    rng = random.Random("pl")
    for i in range(10):
        g = cf.random_multigraph(2 + i % 4, i % 4, seed=190 + i)
        lengths = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in g.edges]
        qg = cf.QGraph(g, lengths)
        f = random_pl_function(qg, rng)
        assert cf.divisor_of_function(qg, f).degree == 0


def test_rank_invariant_under_principal_shift():
    rng = random.Random("shift")
    for i in range(5):
        g = cf.random_multigraph(2 + i % 3, 1 + i % 3, seed=210 + i)
        qg = cf.QGraph.unit(g)
        f = random_pl_function(qg, rng)
        shift = cf.divisor_of_function(qg, f)
        d = cf.QDivisor(
            qg, {qg.vertex_point(v): rng.randint(0, 2) for v in g.vertices}
        )
        assert cf.q_rank(qg, d + shift, audit=False) == cf.q_rank(
            qg, d, audit=False
        )


def test_pl_function_rejects_bad_slope():
    qg = cf.QGraph.unit(cf.path_graph(2))
    with pytest.raises(NonIntegerSlopeError):
        cf.PLFunction(qg, {0: [(0, 0), (1, F(1, 2))]})


def test_pl_function_rejects_discontinuity():
    qg = cf.QGraph.unit(cf.path_graph(3))
    with pytest.raises(DiscontinuityError):
        cf.PLFunction(qg, {0: [(0, 0), (1, 1)], 1: [(0, 0), (1, 0)]})


def test_pl_function_value_at():
    qg = cf.QGraph.unit(cf.path_graph(2))
    f = cf.PLFunction(qg, {0: [(0, 0), (F(1, 2), F(1, 2)), (1, 0)]})
    assert f.value_at(qg.point(0, F(1, 4))) == F(1, 4)
    assert f.value_at(qg.vertex_point("v2")) == 0


# -- metric Riemann-Roch ------------------------------------------------------


def test_metric_rr_zero_divisor_forces_canonical_rank():
    qg = cf.QGraph(cf.banana_graph(3), [F(1, 2), F(1), F(3, 2)])
    rep = cf.metric_rr_check(qg, cf.QDivisor(qg, {}))
    assert rep.equal
    assert rep.canonical_minus_rank == qg.genus - 1


def test_metric_rr_banana_pair():
    qg = cf.QGraph.unit(cf.banana_graph(3))
    d = cf.QDivisor(qg, {qg.vertex_point("Q1"): 1, qg.vertex_point("Q2"): 1})
    rep = cf.metric_rr_check(qg, d)
    assert rep.equal and rep.lhs == 1


def test_metric_rr_random_100():
    rng = random.Random("metric-rr")
    for i in range(100):
        g = cf.random_multigraph(2 + i % 3, i % 4, seed=230 + i)
        lengths = [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in g.edges]
        qg = cf.QGraph(g, lengths)
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            edge = rng.randrange(len(g.edges))
            num = rng.randint(0, 4)
            offset = lengths[edge] * F(num, 4)
            point = qg.point(edge, offset)
            coeffs[point] = coeffs.get(point, 0) + rng.randint(-1, 2)
        d = cf.QDivisor(qg, coeffs)
        assert cf.metric_rr_check(qg, d).equal


# -- probes and scans ----------------------------------------------------------


def test_probe_zero_perturbation_keeps_rank():
    """Seed 16 draws the zero perturbation: every length delta and point
    shift is 0, so every scale ranks the unperturbed divisor."""
    qg = cf.QGraph.unit(cf.banana_graph(4))
    d = cf.QDivisor(qg, {qg.point(0, F(1, 2)): 3})
    report = cf.semicontinuity_probe(qg, d, eps=F(1, 6), samples=1, seed=16)
    record = report.records[0]
    assert all(x == 0 for x in record.length_deltas)
    assert [s for _, s in record.point_shifts] == [0]
    assert report.base_rank == 1
    assert record.ranks == (1, 1, 1)


def test_probe_no_violations():
    qg = cf.QGraph.unit(cf.banana_graph(4))
    d = cf.QDivisor(qg, {qg.point(0, F(1, 2)): 3})
    report = cf.semicontinuity_probe(qg, d, eps=F(1, 6), samples=15, seed=5)
    assert report.base_rank == 1
    assert report.violations == ()


_PATH = cf.QGraph.unit(cf.path_graph(2))
_BANANA = cf.QGraph.unit(cf.banana_graph(4))
_THETA = cf.parse_qgraph("a b 1\na b 1/2\na c 1/2\nc b 1/2\n")
# Length numerators above 1 over different denominators, and points at
# non-dyadic offsets: the probe's grid needs the factor num(l) * den(x),
# as 1/3 of 5/7 is a share of 7/15 and no denominator brings the 5.
_ODD = cf.parse_qgraph("a b 3/2\na b 5/7\na b 4/3\n")

# The three instances of acceptance criterion 10, then a divisor with two
# support points on one edge, and one on the graph of odd lengths.
_BANANA_MID = cf.QDivisor(_BANANA, {_BANANA.point(0, F(1, 2)): 3})
_PROBE_CASES = (
    (_BANANA, _BANANA_MID),
    (_BANANA, cf.QDivisor(
        _BANANA, {_BANANA.point(1, F(1, 3)): 2, _BANANA.vertex_point("Q2"): 1}
    )),
    (_THETA, cf.QDivisor(_THETA, {_THETA.point(0, F(1, 2)): 2})),
    (_THETA, cf.QDivisor(
        _THETA, {_THETA.point(2, F(1, 6)): 2, _THETA.point(2, F(1, 3)): 1}
    )),
    (_ODD, cf.QDivisor(_ODD, {_ODD.point(1, F(1, 3)): 2, _ODD.point(2, F(4, 9)): 1})),
)


def _perturbed(qg, d, record, scale):
    """A probe record's perturbed metric graph and divisor at one scale, built
    through the public constructors: lengths moved by their deltas, each
    interior point kept at its share of its edge and moved by its shift,
    clamped to the edge; a point at an edge end is that vertex, and
    coinciding points add up. Also whether a point was clamped, ended on a
    vertex, or met another interior point."""
    lengths = [l + delta * scale for l, delta in zip(qg.lengths, record.length_deltas)]
    perturbed = cf.QGraph(qg.model, lengths)
    shifts = dict(record.point_shifts)
    coeffs = {}
    seen = {"clamped": False, "on a vertex": False, "merged": False}
    for point, c in d.items():
        if point.vertex is not None:
            new = perturbed.vertex_point(point.vertex)
        else:
            e = point.edge
            offset = point.offset * lengths[e] / qg.lengths[e] + shifts[point] * scale
            clamped = min(max(offset, F(0)), lengths[e])
            seen["clamped"] |= clamped != offset
            new = perturbed.point(e, clamped)
            seen["on a vertex"] |= new.vertex is not None
            seen["merged"] |= new.vertex is None and new in coeffs
        coeffs[new] = coeffs.get(new, 0) + c
    return perturbed, cf.QDivisor(perturbed, coeffs), seen


def test_probe_ranks_match_public_objects():
    """semicontinuity_probe ranks its perturbed samples on one integer grid.
    Each record's ranks must equal q_rank of the perturbed graph and divisor
    rebuilt through the public constructors, on the criterion-10 instances,
    on two points of one edge and on the graph of odd lengths, with eps up
    to just below the shortest length, so that points clamp to an edge end,
    land on a vertex and meet. Each case is drawn, and each of the three is
    reached."""
    reached = set()
    drawn = set()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        st.sampled_from(range(len(_PROBE_CASES))),
        st.integers(0, 10**6),
        st.integers(1, 11),
    )
    def check(case, seed, twelfths):
        drawn.add(case)
        qg, d = _PROBE_CASES[case]
        eps = min(qg.lengths) * F(twelfths, 12)
        report = cf.semicontinuity_probe(qg, d, eps=eps, samples=3, seed=seed)
        assert report.base_rank == cf.q_rank(qg, d, audit=False)
        for record in report.records:
            expected = []
            for scale in report.scales:
                perturbed, moved, seen = _perturbed(qg, d, record, scale)
                expected.append(cf.q_rank(perturbed, moved, audit=False))
                reached.update(k for k, hit in seen.items() if hit)
            assert list(record.ranks) == expected, (case, seed, eps, record)

    check()
    assert drawn == set(range(len(_PROBE_CASES)))
    assert reached == {"clamped", "on a vertex", "merged"}


def test_probe_rejects_large_eps():
    qg = cf.QGraph(cf.banana_graph(3), [F(1, 2)] * 3)
    d = cf.QDivisor(qg, {})
    with pytest.raises(MetricError):
        cf.semicontinuity_probe(qg, d, eps=F(1, 2), samples=1, seed=0)


def test_probe_refuses_a_graph_with_no_edges():
    """The probe perturbs edge lengths; a one-vertex metric graph has none,
    and the probe says so instead of failing on an empty minimum."""
    qg = cf.QGraph(cf.MultiGraph(["a"], []), [])
    d = cf.QDivisor(qg, {qg.vertex_point("a"): 1})
    assert cf.q_rank(qg, d) == 1
    with pytest.raises(MetricError, match="no edges"):
        cf.semicontinuity_probe(qg, d, eps=F(1, 6), samples=1, seed=0)


def test_probe_grid_missing_a_factor_is_refused():
    """The probe's one grid must hold every perturbed point, or the point
    would be rounded. Here the grid is built without the factor 5 that only
    the numerator of the length 5/7 brings: the point at 1/3 of that edge
    keeps the share 7/15 of it, which the move of one step no longer
    carries in whole units, and the probe raises instead of rounding."""
    qg, d = _PROBE_CASES[4]
    short = SimpleNamespace(gcd=math.gcd, lcm=lambda *ns: math.lcm(*ns) // 5)
    with mock.patch.object(metric, "math", short):
        with pytest.raises(cf.UnrepresentablePointError):
            cf.semicontinuity_probe(qg, d, eps=F(1, 6), samples=1, seed=0)
    assert cf.semicontinuity_probe(qg, d, eps=F(1, 6), samples=1, seed=0).records


@pytest.mark.parametrize("eps", [F(1, 6), F(1, 2), F(2, 15), F(1, 7)])
def test_probe_records_are_exact_multiples_of_the_step(eps):
    """Every length delta and point shift of a record is step * i, for the
    i the probe's seeded generator draws, as a Fraction in lowest terms:
    step = 4/24 by default and eps / 4 for an eps below it (1/30 for
    eps = 2/15, whose eps / 4 = 2/60 has a common factor)."""
    qg, d = _PROBE_CASES[4]
    points = [p for p in d.support() if p.vertex is None]
    step = F(4, 24) if eps >= F(4, 24) else eps / 4
    top = int(eps / step)
    seed = 11
    report = cf.semicontinuity_probe(qg, d, eps=eps, samples=40, seed=seed)
    rng = random.Random(seed)
    for record in report.records:
        deltas = [step * rng.randint(-top, top) for _ in qg.lengths]
        shifts = [(p, step * rng.randint(-top, top)) for p in points]
        assert list(record.length_deltas) == deltas
        assert list(record.point_shifts) == shifts
        for x in [*record.length_deltas, *(x for _, x in record.point_shifts)]:
            assert type(x) is F
            assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0


def test_norine_scan_values():
    scan = dict(cf.norine_scan(4, 12))
    assert scan[F(0)] == 0  # the vertex Q1 itself
    assert scan[F(1, 2)] >= 1
    assert scan[F(5, 12)] >= 1
    for j in range(13):
        offset = F(j, 12)
        if F(1, 3) <= offset <= F(2, 3):
            assert scan[offset] >= 1


def test_norine_scan_validates_arguments():
    """Counts below the least one, and counts that are no int (a bool, a
    float or a str), are refused with ValueError, never coerced."""
    for n, denominator in (
        (3, 12), (4, 2), (4, 3.5), (4, "12"), (4, True), (4.0, 12), ("4", 12), (True, 12),
    ):
        with pytest.raises(ValueError):
            cf.norine_scan(n, denominator)


def _mid_probe(samples=1, seed=0):
    return cf.semicontinuity_probe(
        _BANANA, _BANANA_MID, eps=F(1, 6), samples=samples, seed=seed
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: _mid_probe(samples=-1),
        lambda: _mid_probe(samples=True),
        lambda: _mid_probe(samples=2.5),
        lambda: _mid_probe(samples="3"),
        lambda: _mid_probe(seed=1.5),
        lambda: _mid_probe(seed=True),
        lambda: _mid_probe(seed="1"),
        lambda: _mid_probe(seed=None),
        lambda: cf.q_rank(_BANANA, _BANANA_MID, audit="no"),
        lambda: cf.q_rank(_BANANA, _BANANA_MID, audit=1),
        lambda: cf.q_rank(_BANANA, _BANANA_MID, audit=None),
    ],
    ids=[
        "samples-negative", "samples-bool", "samples-float", "samples-str",
        "seed-float", "seed-bool", "seed-str", "seed-none",
        "audit-str", "audit-int", "audit-none",
    ],
)
def test_metric_counts_and_flags_refuse_other_types(call):
    """A probe's sample count must be an int >= 0, its seed an int and
    q_rank's audit a bool, or they raise ValueError: True is not read as
    one sample or as seed 1, 1.5 is not hashed into a seed, and "no" is not
    a request for the audit."""
    with pytest.raises(ValueError):
        call()


def test_weierstrass_point_exists_on_sampled_genus_two_qgraphs():
    """Scanning the 1/6 grid should find a point of positive rank on every
    sampled metric graph of genus >= 2; a miss at this fixed denominator is
    a finding, not a failure."""
    misses = []
    for i in range(4):
        g = cf.random_multigraph(2 + i % 3, 2 + i % 2, seed=250 + i)
        qg = cf.QGraph.unit(g)
        gg = qg.genus
        found = False
        for v in g.vertices:
            if cf.q_rank(qg, cf.QDivisor(qg, {qg.vertex_point(v): gg}), audit=False) >= 1:
                found = True
                break
        if not found:
            for edge in range(len(g.edges)):
                for j in range(1, 6):
                    p = qg.point(edge, F(j, 6))
                    d = cf.QDivisor(qg, {p: gg})
                    if cf.q_rank(qg, d, audit=False) >= 1:
                        found = True
                        break
                if found:
                    break
        if not found:
            misses.append(cf.serialize_graph(g))
    if misses:
        warnings.warn(f"no Weierstrass point on the 1/6 grid for: {misses}")


# -- parsing -------------------------------------------------------------------


def test_parse_qgraph_lengths():
    qg = cf.parse_qgraph("a b 1/2\nb c 2\nc a\n")
    assert qg.lengths == (F(1, 2), F(2), F(1))


def test_parse_qgraph_strips_unbounded_edges():
    with pytest.warns(UserWarning):
        qg = cf.parse_qgraph("a b 1\nb c inf\na b 1\n")
    assert len(qg.model.edges) == 2
    assert not qg.model.has_vertex("c")


def test_parse_qgraph_bad_length():
    with pytest.raises(cf.EdgeListSyntaxError):
        cf.parse_qgraph("a b x/y\n")


def test_serialize_qgraph_round_trip():
    qg = cf.QGraph(cf.banana_graph(3), [F(1, 2), F(2, 3), F(1)])
    again = cf.parse_qgraph(cf.serialize_qgraph(qg))
    assert again == qg


@pytest.mark.parametrize(
    "make",
    [
        lambda: cf.QGraph(cf.banana_graph(3), [1, 0.5, 1]),
        lambda: cf.QGraph(cf.banana_graph(3), [1, True, 1]),
        lambda: _BANANA.point(0, 0.1),
        lambda: _BANANA.point(0, True),
        lambda: _BANANA.point(0.0, F(1, 2)),
        lambda: _BANANA.point(True, F(1, 2)),
        lambda: cf.QDivisor(_BANANA, {cf.QPoint(edge=0, offset=0.25): 1}),
        lambda: _BANANA.scaled(2.0),
        lambda: cf.PLFunction(_PATH, {0: [(0, 0), (1, 1.0)]}),
        lambda: cf.PLFunction(_PATH, {0: [(0.0, 0), (1, 0)]}),
        lambda: cf.semicontinuity_probe(
            _BANANA, cf.QDivisor(_BANANA, {}), eps=0.1, samples=1, seed=0
        ),
    ],
    ids=[
        "length-float",
        "length-bool",
        "offset-float",
        "offset-bool",
        "edge-float",
        "edge-bool",
        "qpoint-float",
        "scale-float",
        "breakpoint-value-float",
        "breakpoint-offset-float",
        "eps-float",
    ],
)
def test_metric_inputs_refuse_floats_and_bools(make):
    """A float is a binary approximation (0.1 would become
    3602879701896397/36028797018963968), and a bool is no length or edge
    index; both are refused rather than coerced."""
    with pytest.raises(MetricError):
        make()


def test_metric_inputs_accept_exact_rationals():
    assert _BANANA.point(0, "1/3") == _BANANA.point(0, F(1, 3))
    assert _BANANA.scaled(2) == _BANANA.scaled(F(4, 2))
    assert cf.QGraph(cf.banana_graph(3), ["1/2", F(1, 2), 1]).lengths == (
        F(1, 2),
        F(1, 2),
        F(1),
    )


def test_qgraph_rejects_nonpositive_length():
    with pytest.raises(MetricError):
        cf.QGraph(cf.banana_graph(3), [F(1), F(0), F(1)])


def test_qgraph_round_trip_keeps_header_vertex_order():
    # vertex order b a c differs from the edges' first-appearance order a b c
    model = cf.MultiGraph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    qg = cf.QGraph(model, [F(1, 2), F(2), F(3, 4)])
    again = cf.parse_qgraph(cf.serialize_qgraph(qg))
    assert again.model.vertices == ("b", "a", "c")
    assert again == qg
