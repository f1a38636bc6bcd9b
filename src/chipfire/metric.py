"""Metric graphs with rational edge lengths, on top of the graph layer.

A QGraph is a MultiGraph model plus one positive rational length per
edge; its edge-list text is the graph format with a length column, read
by the same parser. QDivisor shares Divisor's arithmetic core and differs
only in its points: model vertices or rational positions on edges.

Ranks of rational divisors are computed on the model itself, on an
integer grid: lengths and offsets in units of 1/N. q_rank unpacks its
divisor into plain data (the model, the Fraction lengths, the vertex chips
and the (edge, offset, chips) interior triples) and clears it to integers
by the least common denominator N. semicontinuity_probe fixes one grid per
call that holds every perturbed sample at every scale, and computes each
sample's integer lengths and positions directly, without building a QGraph
or QDivisor. Fractions appear only at the API boundary: parsed lengths and
offsets come in, record values go out; the objects' checks, the grids and
the reduction work on numerators and denominators. Both place their points
with one helper (_place). q-reduction runs metric Dhar burning (Luo,
"Rank-determining sets of metric graphs", 2011), the graph burning pass
on the segments between the special points: the model vertices and the
support. A firing moves chips across a whole segment in one exact step,
so the cost depends on edges and chips, not on the grid's size. The
reduced divisors agree with those of the unit-edge subdivision at any
scale N that holds the points (Hladky-Kral-Norine, "Rank of divisors on
tropical curves", 2013), so the graph rank search of rank.py runs on them,
subtracting chips only at the model vertices, a rank-determining set (Luo
2011), and its lending stops when the debt is paid, as on graphs. In
q_rank a second computation at scale 2N re-checks at runtime that the
value is model-independent. All arithmetic is exact; floats are refused,
not coerced.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DiscontinuityError,
    DivisorError,
    MetricError,
    NonIntegerSlopeError,
    SubdivisionAuditError,
    UnboundVertexError,
    UnrepresentablePointError,
    _expect,
    _expect_iterable,
)
from .graphs import MultiGraph, banana_graph, genus, _parse_edge_list
from .divisors import _DivisorCore, _dhar_unburnt, canonical_divisor
from .rank import (
    RiemannRochReport,
    _Session,
    _far_order,
    _rank_reduced,
    _riemann_roch_report,
    _search,
)


def _exact(x, what) -> Fraction:
    """x as an exact rational. A float is a binary approximation (0.1 is
    3602879701896397/2**55), so floats and bools are refused, not coerced."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise MetricError(
            f"{what} must be an int, Fraction or string, got {x!r}"
        )
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MetricError(f"{what} must be a rational number, got {x!r}") from exc


_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class QPoint:
    """A rational point: either a model vertex or an interior edge position."""

    vertex: str | None = None
    edge: int | None = None
    offset: Fraction | None = None

    def __repr__(self):
        if self.vertex is not None:
            return f"QPoint({self.vertex})"
        return f"QPoint(edge {self.edge} at {self.offset})"


class QGraph:
    """A metric graph presented by a model with positive rational edge lengths."""

    __slots__ = ("model", "lengths")

    def __init__(self, model: MultiGraph, lengths):
        _expect(model, MultiGraph, MetricError)
        lengths = tuple(
            _exact(l, "edge length")
            for l in _expect_iterable(lengths, "edge lengths", MetricError)
        )
        if len(lengths) != len(model.edges):
            raise MetricError("one length per model edge required")
        if any(l.numerator <= 0 for l in lengths):
            raise MetricError("edge lengths must be positive")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError("QGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, QGraph):
            return NotImplemented
        return self.model == other.model and self.lengths == other.lengths

    def __repr__(self):
        return f"QGraph({len(self.model.vertices)} vertices, {len(self.model.edges)} edges)"

    @classmethod
    def unit(cls, model: MultiGraph) -> "QGraph":
        """The metric graph in which every model edge has length 1."""
        _expect(model, MultiGraph, MetricError)
        return cls(model, [_ONE] * len(model.edges))

    @property
    def genus(self) -> int:
        return genus(self.model)

    def scaled(self, k) -> "QGraph":
        k = _exact(k, "scale factor")
        if k <= 0:
            raise MetricError("scale factor must be positive")
        return QGraph(self.model, [l * k for l in self.lengths])

    def vertex_point(self, label) -> QPoint:
        self.model.index(label)
        return QPoint(vertex=label)

    def point(self, edge: int, offset) -> QPoint:
        """The point at the given rational offset along an edge, measured from
        the edge's first endpoint; endpoint offsets collapse to vertices."""
        if type(edge) is not int or not 0 <= edge < len(self.model.edges):
            raise MetricError(f"no edge with index {edge!r}")
        offset = _exact(offset, "offset")
        length = self.lengths[edge]
        # Both over the common denominator den(offset) * den(length).
        at = offset.numerator * length.denominator
        end = length.numerator * offset.denominator
        if at < 0 or at > end:
            raise MetricError(f"offset {offset} outside [0, {length}]")
        u, v = self.model.edges[edge]
        if not at:
            return QPoint(vertex=u)
        if at == end:
            return QPoint(vertex=v)
        return QPoint(edge=edge, offset=offset)

    def _point_key(self, p: QPoint):
        if p.vertex is not None:
            return (0, self.model.index(p.vertex), _ZERO)
        return (1, p.edge, p.offset)


class QDivisor(_DivisorCore):
    """Finite integer combination of rational points of a QGraph."""

    __slots__ = ()
    _carrier_kind = QGraph

    @property
    def qgraph(self) -> QGraph:
        return self._carrier

    @staticmethod
    def _point(qgraph, point):
        if not isinstance(point, QPoint):
            raise DivisorError(
                f"{point!r} is not a QPoint; make one with vertex_point or point"
            )
        if point.vertex is not None:
            return qgraph.vertex_point(point.vertex)
        return qgraph.point(point.edge, point.offset)

    def items(self):
        """Nonzero (point, coefficient) pairs in a canonical order."""
        return sorted(
            self._coeffs.items(), key=lambda pc: self._carrier._point_key(pc[0])
        )

    def support(self):
        return [p for p, _ in self.items()]


def canonical_qdivisor(qg: QGraph) -> QDivisor:
    """The canonical divisor, supported on the model vertices."""
    _expect(qg, QGraph, MetricError)
    base = canonical_divisor(qg.model)
    return QDivisor(
        qg, {qg.vertex_point(v): c for v, c in base.items()}
    )


# -- native reduction --------------------------------------------------------


def _on_grid(num: int, den: int, scale: int) -> int:
    """num / den in units of 1 / scale, which must be a whole number."""
    units, rest = divmod(num * scale, den)
    if rest:
        raise UnrepresentablePointError(f"{Fraction(num, den)} is not on the 1/{scale} grid")
    return units


def _model_frame(model: MultiGraph):
    """What a _MetricSession reads of the model alone, whatever the lengths:
    the search's far_order, the (u, v) vertex indices of each edge, and an
    empty dict of segment skeletons keyed by shape, which the sessions
    that share the frame fill (_MetricSession._segments). A frame lives
    for one call and is never kept on the model."""
    ends = tuple((model.index(u), model.index(v)) for u, v in model.edges)
    return _far_order(model), ends, {}


class _MetricSession(_Session):
    """rank._Session on a model whose edge lengths are positive integers,
    counted in units of 1/N for the metric graph at scale N.

    A search state is the m model-vertex coefficients followed by one tuple
    of sorted (edge, position, chips) triples for the interior support;
    positions count units from the edge's first endpoint. The search
    branches over the model vertices in rank._Session's order, by hop
    distance on the model: they are rank-determining in any order (Luo
    2011), so the order only decides which vertex is probed first. Its
    memos depend on the lengths as well as the model, so each session
    starts its own and lives for one call; QGraphs that share a model
    object never share a memo. The segment skeletons depend on the model
    and the shape alone, not on the lengths, positions or chips, so the
    sessions of one call share them through its frame.
    """

    __slots__ = ("ends", "lengths", "skeletons")

    def __init__(self, model: MultiGraph, lengths, frame=None):
        """frame: _model_frame(model), passed by a caller that ranks on
        many lengths, so that it reads the model once and builds each
        segment skeleton once."""
        far_order, self.ends, self.skeletons = frame or _model_frame(model)
        super().__init__(model, ({}, {}, {}, [far_order]))
        self.lengths = tuple(lengths)

    def degree(self, red):
        return sum(red[:-1]) + sum(c for _, _, c in red[-1])

    def _reduce(self, vec_tuple, one_short):
        """The q-reduced state (q = vertex 0) equivalent to vec_tuple.

        The loop of divisors.reduce_vector, and its burning pass, on the
        segments between special points: while a point away from q is in
        debt, lend to the first such point; then Dhar-burn from q, the only
        step that declares a state reduced. Either way the unburnt set
        fires toward the burnt one, across the shortest frontier segment:
        one step here for as many unit-edge firings as that segment is
        long, since every point it passes holds no chips. With one_short (a
        q-reduced state minus one chip away from q) it returns as soon as
        the debt is paid, with no pass from q. That is the corollary in
        reduce_vector's lending branch on the unit subdivision at this
        scale: a lending step of length t is t lending rounds there, and
        the debtor gains chips only when a step ends, so the rounds stop
        where reduce_vector's lending stops, on the reduced form.
        """
        vertex, interior = vec_tuple[:-1], vec_tuple[-1]
        m = self.n
        while True:
            # The first point away from q in debt, numbered as in _segments.
            source = 0
            for a in range(1, m):
                if vertex[a] < 0:
                    source = a
                    break
            else:
                for k, point in enumerate(interior):
                    if point[2] < 0:
                        source = m + k
                        break
            if one_short and not source:
                return (*vertex, interior)
            chips, adj, segs = self._segments(vertex, interior)
            members, burnt, _ = _dhar_unburnt(adj, chips, 0, len(chips), source)
            if not source and len(members) == len(chips):
                return (*vertex, interior)
            vertex, interior = self._fire_unburnt(chips, segs, burnt, interior)

    def audit_high_degree(self, red, k):
        # Infinitely many effective classes; the model-vertex search is finite.
        return _search(self, red, k)

    def _segments(self, vertex, interior):
        """Chips and segments of the special points: the model vertices, then
        the interior points in order. The segments come from the skeleton
        of the state's shape, the edge of each interior point in order,
        built the first time a session on this frame meets that shape."""
        shape = tuple([point[0] for point in interior])
        skeleton = self.skeletons.get(shape)
        if skeleton is None:
            skeleton = self.skeletons[shape] = self._skeleton(shape)
        return [*vertex, *[point[2] for point in interior]], *skeleton

    def _skeleton(self, shape):
        """The segment graph of a shape: adj[a] holds (b, 1) per segment from
        a to b; segs holds each segment once as (a, b, edge), a before b
        along the edge. Interior point k is numbered m + k."""
        m = self.n
        adj = [[] for _ in range(m + len(shape))]
        segs = []
        b, last = m, m + len(shape)
        for e, (u, v) in enumerate(self.ends):
            a = u
            while b < last and shape[b - m] == e:
                adj[a].append((b, 1))
                adj[b].append((a, 1))
                segs.append((a, b, e))
                a = b
                b += 1
            adj[a].append((v, 1))
            adj[v].append((a, 1))
            segs.append((a, v, e))
        return adj, segs

    def _fire_unburnt(self, chips, segs, burnt, interior):
        """Every segment with one burnt end carries one chip from its unburnt
        end a distance t toward the burnt one, t the shortest such segment.
        A frontier segment's ends are read off its points: an interior
        point's position, or 0 and the edge's length at a model vertex.

        An unburnt point sends its threat in chips and did not burn, so it
        keeps a nonnegative count unless it is q, which goes into debt only
        while lending.
        """
        m, lengths = self.n, self.lengths
        frontier = []
        for a, b, e in segs:
            if burnt[a] != burnt[b]:
                at = interior[a - m][1] if a >= m else 0
                to = interior[b - m][1] if b >= m else lengths[e]
                frontier.append((a, b, to - at, e, at))
        t = min([seg[2] for seg in frontier])
        landed = []
        for a, b, length, e, at in frontier:
            if burnt[a]:  # the chip runs from b back toward a
                chips[b] -= 1
                end, pos = a, at + length - t
            else:
                chips[a] -= 1
                end, pos = b, at + t
            if length == t:
                chips[end] += 1
            else:
                landed.append((e, pos, 1))
        kept = [(e, pos, c) for (e, pos, _), c in zip(interior, chips[m:]) if c]
        # The kept points are in order; a chip that lands mid-segment is not.
        return tuple(chips[:m]), tuple(sorted(kept + landed) if landed else kept)


def _plain(d: QDivisor):
    """The model-vertex chips of d and its sorted (edge, offset, chips)
    interior triples."""
    model = d.qgraph.model
    vertex = [0] * len(model.vertices)
    interior = []
    for p, c in d.items():  # interior points come sorted by (edge, offset)
        if p.vertex is not None:
            vertex[model.index(p.vertex)] += c
        else:
            interior.append((p.edge, p.offset, c))
    return vertex, interior


def _place(model, units, vertex, interior):
    """The _MetricSession state of vertex chips plus (edge, position, chips)
    triples on an integer grid, edge e being units[e] long. A position is
    clamped to its edge, a point at an edge end is moved onto that vertex,
    and points that coincide are merged."""
    vertex = list(vertex)
    points = {}
    for e, pos, c in interior:
        if 0 < pos < units[e]:
            points[e, pos] = points.get((e, pos), 0) + c
        else:
            vertex[model.index(model.edges[e][pos > 0])] += c
    return (*vertex, tuple(sorted((e, pos, c) for (e, pos), c in points.items() if c)))


def _grid_state(model, lengths, vertex, interior):
    """A metric divisor given as plain data, on the grid of the least common
    denominator N of the Fraction lengths and offsets: (lengths in units of
    1/N, the _MetricSession state placed by _place, N)."""
    scale = math.lcm(
        *(l.denominator for l in lengths), *(x.denominator for _, x, _ in interior)
    )
    units = [_on_grid(l.numerator, l.denominator, scale) for l in lengths]
    if any(l <= 0 for l in units):
        raise MetricError("edge lengths must be positive")
    positions = []
    for e, x, c in interior:
        pos = _on_grid(x.numerator, x.denominator, scale)
        if pos < 0 or pos > units[e]:
            raise MetricError(f"offset {x} outside [0, {lengths[e]}]")
        positions.append((e, pos, c))
    return units, _place(model, units, vertex, positions), scale


def _rank_on_grid(model, units, state, clifford=False, frame=None) -> int:
    sess = _MetricSession(model, units, frame)
    return _rank_reduced(sess, sess.reduced(state), clifford)


def _grid_rank(model, lengths, vertex, interior, audit) -> int:
    """q_rank of a metric divisor given as plain data (see _grid_state).
    The audit at scale 2N doubles the grid's integers, and its session
    shares the model frame, so its skeletons too, with the one at N."""
    units, state, scale = _grid_state(model, lengths, vertex, interior)
    frame = _model_frame(model)
    value = _rank_on_grid(model, units, state, frame=frame)
    if audit:
        fine = (*state[:-1], tuple((e, 2 * pos, c) for e, pos, c in state[-1]))
        value2 = _rank_on_grid(model, [2 * l for l in units], fine, frame=frame)
        if value2 != value:
            raise SubdivisionAuditError(
                f"rank {value} at scale {scale} but {value2} at scale {2 * scale}"
            )
    return value


def _check_bound(qg: QGraph, d: QDivisor):
    _expect(qg, QGraph, MetricError)
    _expect(d, QDivisor, DivisorError)
    if d.qgraph is not qg and d.qgraph != qg:
        raise UnboundVertexError("divisor is bound to a different metric graph")


def q_rank(qg: QGraph, d: QDivisor, audit: bool = True) -> int:
    """Rank of a rational divisor, reduced on the model itself.

    Lengths and support offsets are cleared to integers by their least
    common denominator N, and reduction runs metric Dhar burning (Luo 2011)
    on the segments between the special points, so its cost depends on
    edges and chips, not on N. Reduced divisors, and so ranks, agree with
    those of the unit-edge subdivision at scale N (Hladky-Kral-Norine 2013),
    and the rank search branches only over the model vertices, a
    rank-determining set (Luo 2011). With audit on (the default) the rank
    is recomputed at scale 2N and must agree; disagreement raises
    SubdivisionAuditError.
    """
    if type(audit) is not bool:
        raise ValueError(f"audit must be a bool, got {audit!r}")
    _check_bound(qg, d)
    return _grid_rank(qg.model, qg.lengths, *_plain(d), audit)


# -- piecewise-linear functions -------------------------------------------


class PLFunction:
    """Continuous piecewise-affine function with integer slopes.

    Given per-edge breakpoint lists [(offset, value), ...] covering the
    whole edge (first offset 0, last offset the edge length). Values and
    offsets are rational; every segment slope must be an integer and the
    endpoint values must agree at shared vertices.
    """

    __slots__ = ("qgraph", "segments", "vertex_values")

    def __init__(self, qgraph: QGraph, segments):
        _expect(qgraph, QGraph, MetricError)
        _expect(segments, Mapping, MetricError)
        object.__setattr__(self, "qgraph", qgraph)
        model = qgraph.model
        cooked = {}
        for edge in range(len(model.edges)):
            if edge not in segments:
                raise MetricError(f"edge {edge} missing from function data")
            pts = [
                (_exact(x, "breakpoint offset"), _exact(y, "breakpoint value"))
                for x, y in segments[edge]
            ]
            if len(pts) < 2:
                raise MetricError(f"edge {edge} needs at least two breakpoints")
            length = qgraph.lengths[edge]
            if pts[0][0] != 0 or pts[-1][0] != length:
                raise MetricError(
                    f"edge {edge} breakpoints must span [0, {length}]"
                )
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x1 <= x0:
                    raise MetricError(f"edge {edge} breakpoints not increasing")
                slope = (y1 - y0) / (x1 - x0)
                if slope.denominator != 1:
                    raise NonIntegerSlopeError(
                        f"edge {edge}: slope {slope} on [{x0}, {x1}]"
                    )
            cooked[edge] = tuple(pts)
        vertex_values = {}
        for edge, (u, v) in enumerate(model.edges):
            pts = cooked[edge]
            for label, value in ((u, pts[0][1]), (v, pts[-1][1])):
                if label in vertex_values and vertex_values[label] != value:
                    raise DiscontinuityError(
                        f"vertex {label}: {vertex_values[label]} vs {value}"
                    )
                vertex_values.setdefault(label, value)
        for label in model.vertices:
            vertex_values.setdefault(label, Fraction(0))
        object.__setattr__(self, "segments", cooked)
        object.__setattr__(self, "vertex_values", vertex_values)

    def __setattr__(self, name, value):
        raise AttributeError("PLFunction is immutable")

    def value_at(self, point: QPoint) -> Fraction:
        if point.vertex is not None:
            return self.vertex_values[point.vertex]
        pts = self.segments[point.edge]
        x = point.offset
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise MetricError("point outside its edge")


def divisor_of_function(qg: QGraph, f: PLFunction) -> QDivisor:
    """The divisor of a rational function: at each point, minus the sum of
    its outgoing slopes; always of degree zero."""
    _expect(qg, QGraph, MetricError)
    _expect(f, PLFunction, MetricError)
    sigma = {}

    def bump(point, amount):
        if amount:
            sigma[point] = sigma.get(point, 0) + amount

    for edge in range(len(qg.model.edges)):
        pts = f.segments[edge]
        slopes = [
            int((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        ]
        u, v = qg.model.edges[edge]
        bump(qg.vertex_point(u), slopes[0])
        bump(qg.vertex_point(v), -slopes[-1])
        for i in range(1, len(pts) - 1):
            bump(qg.point(edge, pts[i][0]), slopes[i] - slopes[i - 1])
    result = QDivisor(qg, {p: -s for p, s in sigma.items()})
    if result.degree != 0:
        raise AssertionError("function divisor has nonzero degree; bug")
    return result


# -- Riemann-Roch on metric graphs ------------------------------------------


def metric_rr_check(qg: QGraph, d: QDivisor) -> RiemannRochReport:
    """Both sides of the metric Riemann-Roch identity, each via an audited
    q_rank."""
    r_d = q_rank(qg, d)
    r_kd = q_rank(qg, canonical_qdivisor(qg) - d)
    return _riemann_roch_report(d.degree, qg.genus, r_d, r_kd)


# -- semicontinuity probes ----------------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    index: int
    length_deltas: tuple
    point_shifts: tuple
    ranks: tuple  # ranks along the shrinking perturbation scales
    violation: bool


@dataclass(frozen=True)
class ProbeReport:
    base_rank: int
    scales: tuple
    records: tuple

    @property
    def violations(self):
        return tuple(r for r in self.records if r.violation)


# Perturbation directions live on multiples of the step 4/_PROBE_GRID, so
# that the 1/2 and 1/4 scales still have denominator <= _PROBE_GRID.
_PROBE_GRID = 24
_PROBE_STEP = Fraction(4, _PROBE_GRID)
_PROBE_SCALES = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def semicontinuity_probe(qg: QGraph, d: QDivisor, eps, samples: int, seed: int):
    """Sample rational perturbations of edge lengths and of the divisor's
    support and watch the rank along a shrinking sequence.

    A violation record means the rank stayed above the unperturbed rank at
    every sampled scale, which upper semicontinuity forbids; the report is
    a falsification harness and is expected to contain none.

    Each sample draws a multiple i_e of the step for every edge and j_p for
    every interior support point p; at scale s, edge e is l_e + i_e * step
    * s long, and p keeps its share x_p / l_e of its stretched edge, then
    moves by j_p * step * s, clamped to the edge. One integer grid, fixed
    before the first sample, holds every sample at every scale: with
    M = 4 * den(step) * lcm(den l_e, den x_p * num l_e), the move u_s = step
    * s * M is an integer multiple of den(x_p / l_e), so l_e * M + i_e * u_s
    and x_p * M + (x_p / l_e) * i_e * u_s + j_p * u_s are integers, and the
    base divisor is ranked on the same grid. All of it is integer
    arithmetic on numerators and denominators, with the step (4/24, or
    eps/4 for a smaller eps) and the scales as constants; the only Fractions
    made are the record values, one per value the call's draws take. The
    reduced divisors agree with those of the unit subdivision at any scale
    that holds the points (Hladky-Kral-Norine 2013), so the ranks are those
    of q_rank on the perturbed graph, and metric reduction costs the same
    whatever the grid's size. The sessions share what they read of the
    model and the segment skeletons of the shapes they meet (_model_frame,
    built once per call); only the lengths and the memos are per sample
    and scale. Ranks are taken without the 2N subdivision audit, which
    would double the work per sample, and their search stops at
    Clifford's bound r <= deg / 2 for degrees up to 2g - 2 (from the
    metric Riemann-Roch theorem, Gathmann-Kerber 2008), where the next
    level would have to fail.
    """
    import random

    if type(samples) is not int or samples < 0:
        raise ValueError(f"samples must be an int >= 0, got {samples!r}")
    if type(seed) is not int:  # a float or str would be hashed, None read as entropy
        raise ValueError(f"seed must be an int, got {seed!r}")
    _check_bound(qg, d)
    eps = _exact(eps, "eps")
    model, base = qg.model, qg.lengths
    if not base:
        raise MetricError("the probe perturbs edge lengths, and this graph has no edges")
    en, ed = eps.numerator, eps.denominator
    if en <= 0:
        raise MetricError("eps must be positive")
    if any(en * l.denominator >= l.numerator * ed for l in base):
        raise MetricError("eps must be smaller than the minimum edge length")
    rng = random.Random(seed)
    # A finer eps brings its own denominator and gets a finer grid.
    sn, sd = _PROBE_STEP.numerator, _PROBE_STEP.denominator
    if sn * ed > en * sd:  # step = eps / 4
        common = math.gcd(en, 4)
        sn, sd = en // common, 4 * ed // common
    top = en * sd // (ed * sn)
    vertex, interior = _plain(d)
    points = [QPoint(edge=e, offset=x) for e, x, _ in interior]  # d's, as _plain sorted them
    grid = 4 * sd * math.lcm(
        *(l.denominator for l in base),
        *(x.denominator * base[e].numerator for e, x, _ in interior),
    )
    units = [_on_grid(l.numerator, l.denominator, grid) for l in base]
    placed = [(e, _on_grid(x.numerator, x.denominator, grid), c) for e, x, c in interior]
    frame = _model_frame(model)
    base_rank = _rank_on_grid(
        model, units, _place(model, units, vertex, placed), True, frame
    )
    # Per scale: u_s, and for each point (x_p / l_e) * u_s, the units it
    # moves by per step its edge stretches; x_p / l_e is pos / units[e].
    moves = []
    for scale in _PROBE_SCALES:
        u = _on_grid(sn * scale.numerator, sd * scale.denominator, grid)
        moves.append((u, [_on_grid(pos, units[e], u) for e, pos, _ in placed]))
    value = {}  # the record value step * i of a draw i, made on first use
    records = []
    for idx in range(samples):
        stretch = [rng.randint(-top, top) for _ in base]
        shift = [rng.randint(-top, top) for _ in points]
        for i in (*stretch, *shift):
            if i not in value:
                value[i] = Fraction(sn * i, sd)
        ranks = []
        for u, share in moves:
            lengths = [l + i * u for l, i in zip(units, stretch)]
            if any(l <= 0 for l in lengths):
                raise MetricError("edge lengths must be positive")
            moved = [
                (e, pos + k * stretch[e] + j * u, c)
                for (e, pos, c), k, j in zip(placed, share, shift)
            ]
            state = _place(model, lengths, vertex, moved)
            ranks.append(_rank_on_grid(model, lengths, state, True, frame))
        records.append(
            ProbeRecord(
                index=idx,
                length_deltas=tuple(value[i] for i in stretch),
                point_shifts=tuple((p, value[j]) for p, j in zip(points, shift)),
                ranks=tuple(ranks),
                violation=all(r > base_rank for r in ranks),
            )
        )
    return ProbeReport(base_rank=base_rank, scales=_PROBE_SCALES, records=tuple(records))


# -- the banana scan ----------------------------------------------------------


def norine_scan(n: int, denominator: int):
    """Ranks of 3(P) for P running over the 1/denominator grid of one edge
    of the unit metric banana graph on n >= 4 edges.

    Returns [(offset, rank), ...] for offset = 0, 1/denominator, ..., 1.
    """
    if type(n) is not int or n < 4:
        raise ValueError(f"the scan needs a banana graph with n >= 4 edges, got {n!r}")
    if type(denominator) is not int or denominator < 3:
        raise ValueError(f"denominator must be an int >= 3, got {denominator!r}")
    qg = QGraph.unit(banana_graph(n))
    out = []
    for j in range(denominator + 1):
        offset = Fraction(j, denominator)
        p = qg.point(0, offset)
        value = q_rank(qg, QDivisor(qg, {p: 3}))
        out.append((offset, value))
    return out


# -- text format ---------------------------------------------------------------


def parse_qgraph(text: str) -> QGraph:
    """Parse edge-list text with an optional length column: "<u> <v>
    [<num>/<den>]", default length 1, read by the graph parser, so the
    "# vertices:" header that serialize_qgraph writes pins the vertex order.

    Lines with length "inf" describe unbounded ends; they are stripped with
    a warning (their rank theory reduces to the bounded part), and a vertex
    appearing only on stripped lines disappears with them unless the header
    lists it.
    """
    vertices, edges, lengths = _parse_edge_list(text, with_lengths=True)
    return QGraph(MultiGraph(vertices, edges), lengths)


def serialize_qgraph(qg: QGraph) -> str:
    """Inverse of parse_qgraph: vertex header comment, then "u v length" lines."""
    _expect(qg, QGraph, MetricError)
    lines = ["# vertices: " + " ".join(qg.model.vertices)]
    for (u, v), l in zip(qg.model.edges, qg.lengths):
        lines.append(f"{u} {v} {l}")
    return "\n".join(lines) + "\n"
