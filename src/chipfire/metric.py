"""Metric graphs with rational edge lengths, on top of the graph layer.

A QGraph is a MultiGraph model plus one positive rational length per
edge; its edge-list text is the graph format with a length column, read
by the same parser. QDivisor shares Divisor's arithmetic core and differs
only in its points: model vertices or rational positions on edges.

Ranks of rational divisors are computed by rescaling all lengths to
integers, subdividing every edge into unit pieces so the divisor becomes
vertex-supported, and handing the result to the combinatorial rank
engine. Graph rank on such a unit model equals metric rank
(Hladky-Kral-Norine 2013), and the vertex set of the loopless model is
rank-determining (Luo 2011), so the rank search subtracts chips only at
the model vertices, not at every unit-model vertex. An extra uniform
subdivision still re-checks at runtime that the value is
model-independent. All arithmetic is exact rational; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DiscontinuityError,
    DivisorError,
    MetricError,
    NonIntegerSlopeError,
    SubdivisionAuditError,
    UnrepresentablePointError,
)
from .graphs import (
    MultiGraph,
    banana_graph,
    genus,
    _parse_edge_list,
    _subdivision_label,
    subdivide_edges,
)
from .divisors import Divisor, _DivisorCore, canonical_divisor
from .rank import RiemannRochReport, _Session, _rank_reduced, _riemann_roch_report


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
        lengths = tuple(Fraction(l) for l in lengths)
        if len(lengths) != len(model.edges):
            raise MetricError("one length per model edge required")
        if any(l <= 0 for l in lengths):
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
        return cls(model, [Fraction(1)] * len(model.edges))

    @property
    def genus(self) -> int:
        return genus(self.model)

    def scaled(self, k) -> "QGraph":
        k = Fraction(k)
        if k <= 0:
            raise MetricError("scale factor must be positive")
        return QGraph(self.model, [l * k for l in self.lengths])

    def vertex_point(self, label) -> QPoint:
        self.model.index(label)
        return QPoint(vertex=label)

    def point(self, edge: int, offset) -> QPoint:
        """The point at the given rational offset along an edge, measured from
        the edge's first endpoint; endpoint offsets collapse to vertices."""
        if not 0 <= edge < len(self.model.edges):
            raise MetricError(f"no edge with index {edge}")
        offset = Fraction(offset)
        length = self.lengths[edge]
        if offset < 0 or offset > length:
            raise MetricError(f"offset {offset} outside [0, {length}]")
        u, v = self.model.edges[edge]
        if offset == 0:
            return QPoint(vertex=u)
        if offset == length:
            return QPoint(vertex=v)
        return QPoint(edge=edge, offset=offset)

    def _point_key(self, p: QPoint):
        if p.vertex is not None:
            return (0, self.model.index(p.vertex), Fraction(0))
        return (1, p.edge, p.offset)


class QDivisor(_DivisorCore):
    """Finite integer combination of rational points of a QGraph."""

    __slots__ = ()

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
    base = canonical_divisor(qg.model)
    return QDivisor(
        qg, {qg.vertex_point(v): c for v, c in base.items()}
    )


# -- unit models ---------------------------------------------------------


@dataclass(frozen=True)
class UnitModel:
    """A unit-edge-length model of a QGraph after scaling lengths by an integer.

    Rational points whose scaled position is integral map injectively to
    vertices of the unit graph.
    """

    qgraph: QGraph
    graph: MultiGraph
    scale: int

    def vertex_of(self, point: QPoint) -> str:
        if point.vertex is not None:
            return point.vertex
        position = point.offset * self.scale
        if position.denominator != 1:
            raise UnrepresentablePointError(
                f"{point!r} is not on the 1/{self.scale} grid"
            )
        j = int(position)
        u, v = self.qgraph.model.edges[point.edge]
        units = int(self.qgraph.lengths[point.edge] * self.scale)
        if j == 0:
            return u
        if j == units:
            return v
        return _subdivision_label(u, v, point.edge, j)

    def divisor_to(self, d: QDivisor) -> Divisor:
        coeffs = {}
        for point, c in d.items():
            label = self.vertex_of(point)
            coeffs[label] = coeffs.get(label, 0) + c
        return Divisor(self.graph, coeffs)


def _unit_model(qg: QGraph, scale: int) -> UnitModel:
    counts = []
    for l in qg.lengths:
        scaled = l * scale
        if scaled.denominator != 1:
            raise MetricError(f"scale {scale} does not clear length {l}")
        counts.append(int(scaled))
    graph, _ = subdivide_edges(qg.model, counts)
    return UnitModel(qgraph=qg, graph=graph, scale=scale)


def _clearing_scale(qg: QGraph, points=()) -> int:
    """Least integer scale at which every edge length and the offset of
    every given interior point become integers."""
    return math.lcm(
        *(l.denominator for l in qg.lengths),
        *(p.offset.denominator for p in points if p.vertex is None),
    )


def canonical_unit_model(qg: QGraph) -> UnitModel:
    """Scale by the least common multiple of the length denominators and cut
    every edge into unit pieces."""
    return _unit_model(qg, _clearing_scale(qg))


def _unit_model_rank(um: UnitModel, d: QDivisor) -> int:
    # subdivide_edges lists the model vertices first, and MultiGraph rejects
    # loop edges, so indices 0..m-1 are the vertex set of a loopless model,
    # which is what Luo's rank-determining theorem requires.
    sess = _Session(um.graph, range(len(um.qgraph.model.vertices)))
    return _rank_reduced(sess, sess.reduced(tuple(um.divisor_to(d).to_vector())))


def q_rank(qg: QGraph, d: QDivisor, audit: bool = True) -> int:
    """Rank of a rational divisor, via the coarsest unit model carrying its
    support on vertices.

    The rank search branches only over the model vertices, a
    rank-determining set (Luo 2011), instead of every unit-model vertex;
    graph rank on the unit model equals metric rank (Hladky-Kral-Norine
    2013). With audit on (the default) the rank is recomputed on a uniform
    refinement and must agree; disagreement raises SubdivisionAuditError.
    """
    scale = _clearing_scale(qg, d.support())
    um = _unit_model(qg, scale)
    value = _unit_model_rank(um, d)
    if audit:
        um2 = _unit_model(qg, 2 * scale)
        value2 = _unit_model_rank(um2, d)
        if value2 != value:
            raise SubdivisionAuditError(
                f"rank {value} at scale {scale} but {value2} at scale {2 * scale}"
            )
    return value


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
        object.__setattr__(self, "qgraph", qgraph)
        model = qgraph.model
        cooked = {}
        for edge in range(len(model.edges)):
            if edge not in segments:
                raise MetricError(f"edge {edge} missing from function data")
            pts = [(Fraction(x), Fraction(y)) for x, y in segments[edge]]
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


def _perturbed_instance(qg, d, deltas, shifts, scale):
    lengths = [l + delta * scale for l, delta in zip(qg.lengths, deltas)]
    perturbed = QGraph(qg.model, lengths)
    coeffs = {}
    moved = dict(shifts)
    for point, c in d.items():
        if point.vertex is not None:
            new = perturbed.vertex_point(point.vertex)
        else:
            edge = point.edge
            ratio = lengths[edge] / qg.lengths[edge]
            offset = point.offset * ratio + moved.get(point, Fraction(0)) * scale
            if offset < 0:
                offset = Fraction(0)
            elif offset > lengths[edge]:
                offset = lengths[edge]
            new = perturbed.point(edge, offset)
        coeffs[new] = coeffs.get(new, 0) + c
    return perturbed, QDivisor(perturbed, coeffs)


# Perturbation directions live on multiples of 4/_PROBE_GRID, so that the
# 1/2 and 1/4 scales still have denominator <= _PROBE_GRID.
_PROBE_GRID = 24


def semicontinuity_probe(qg: QGraph, d: QDivisor, eps, samples: int, seed: int):
    """Sample rational perturbations of edge lengths and of the divisor's
    support and watch the rank along a shrinking sequence.

    A violation record means the rank stayed above the unperturbed rank at
    every sampled scale, which upper semicontinuity forbids; the report is
    a falsification harness and is expected to contain none. Ranks are
    taken without the per-call subdivision audit: perturbed lengths have
    large denominators, and auditing every sample roughly doubles an
    already model-heavy scan.
    """
    import random

    eps = Fraction(eps)
    if eps <= 0:
        raise MetricError("eps must be positive")
    if eps >= min(qg.lengths):
        raise MetricError("eps must be smaller than the minimum edge length")
    rng = random.Random(seed)
    # A finer eps brings its own denominator and gets a finer grid.
    step = Fraction(4, _PROBE_GRID)
    if step > eps:
        step = eps / 4
    top = int(eps / step)
    scales = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    base_rank = q_rank(qg, d, audit=False)
    interior = [p for p in d.support() if p.vertex is None]
    records = []
    for idx in range(samples):
        deltas = tuple(step * rng.randint(-top, top) for _ in qg.lengths)
        shifts = tuple(
            (p, step * rng.randint(-top, top)) for p in interior
        )
        ranks = []
        for scale in scales:
            perturbed, moved = _perturbed_instance(qg, d, deltas, shifts, scale)
            ranks.append(q_rank(perturbed, moved, audit=False))
        violation = all(r > base_rank for r in ranks)
        records.append(
            ProbeRecord(
                index=idx,
                length_deltas=deltas,
                point_shifts=shifts,
                ranks=tuple(ranks),
                violation=violation,
            )
        )
    return ProbeReport(base_rank=base_rank, scales=scales, records=tuple(records))


# -- the banana scan ----------------------------------------------------------


def norine_scan(n: int, denominator: int):
    """Ranks of 3(P) for P running over the 1/denominator grid of one edge
    of the unit metric banana graph on n >= 4 edges.

    Returns [(offset, rank), ...] for offset = 0, 1/denominator, ..., 1.
    """
    if n < 4:
        raise ValueError("the scan needs a banana graph with n >= 4 edges")
    if denominator < 3:
        raise ValueError("denominator must be >= 3")
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
    lines = ["# vertices: " + " ".join(qg.model.vertices)]
    for (u, v), l in zip(qg.model.edges, qg.lengths):
        lines.append(f"{u} {v} {l}")
    return "\n".join(lines) + "\n"
