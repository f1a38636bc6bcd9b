"""Pushing tabulated curve-point data down to graph divisors.

The table assigns a target-graph vertex to each labeled curve point;
specializing a curve divisor is the coefficient pushforward along that
assignment. Curve-side ranks are never computed here: they arrive as
stated values in fixture files, and the only check performed is that the
graph-side rank is at least the stated one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import DivisorError, UnassignedPointError
from .graphs import MultiGraph, parse_graph
from .divisors import Divisor, canonical_divisor, is_equivalent
from .rank import rank


@dataclass(frozen=True)
class SpecializationTable:
    """Assignment of target-graph vertices to labeled curve points."""

    target: MultiGraph
    assignments: dict

    def __post_init__(self):
        for point, vertex in self.assignments.items():
            if not self.target.has_vertex(vertex):
                raise UnassignedPointError(
                    f"curve point {point!r} maps to unknown vertex {vertex!r}"
                )


@dataclass(frozen=True)
class LabeledCurveDivisor:
    """Curve divisor given by point labels, with an optional externally
    stated curve-side rank."""

    name: str
    coefficients: dict
    stated_rank: int | None = None

    def __post_init__(self):
        for point, value in self.coefficients.items():
            if type(value) is not int:  # bool, float, str, ... are never coerced
                raise DivisorError(
                    f"coefficient of curve point {point!r} must be an int, got {value!r}"
                )

    @property
    def degree(self) -> int:
        return sum(self.coefficients.values())


def specialize(table: SpecializationTable, d: LabeledCurveDivisor) -> Divisor:
    """Pushforward of coefficients along the table; degree is preserved."""
    coeffs = {}
    for point, c in d.coefficients.items():
        if point not in table.assignments:
            raise UnassignedPointError(f"no assignment for curve point {point!r}")
        vertex = table.assignments[point]
        coeffs[vertex] = coeffs.get(vertex, 0) + c
    return Divisor(table.target, coeffs)


@dataclass(frozen=True)
class SpecializationReport:
    name: str
    specialized: Divisor
    graph_rank: int
    stated_rank: int | None
    bound_holds: bool


def check_specialization_lemma(
    table: SpecializationTable, d: LabeledCurveDivisor
) -> SpecializationReport:
    """Graph rank of the specialized divisor, checked against the stated
    curve rank: specialization can only raise rank."""
    pushed = specialize(table, d)
    r_graph = rank(table.target, pushed)
    stated = d.stated_rank
    holds = True if stated is None else r_graph >= stated
    return SpecializationReport(
        name=d.name,
        specialized=pushed,
        graph_rank=r_graph,
        stated_rank=stated,
        bound_holds=holds,
    )


# -- fixtures -------------------------------------------------------------


@dataclass(frozen=True)
class SpecializationFixture:
    provenance: str
    table: SpecializationTable
    divisors: tuple

    @property
    def graph(self) -> MultiGraph:
        return self.table.target


def fixture_from_dict(data: dict) -> SpecializationFixture:
    graph = parse_graph(data["graph"])
    table = SpecializationTable(target=graph, assignments=dict(data["assignments"]))
    divisors = tuple(
        LabeledCurveDivisor(
            name=entry["name"],
            coefficients=dict(entry["coeffs"]),
            stated_rank=entry.get("statedRank"),
        )
        for entry in data["divisors"]
    )
    return SpecializationFixture(
        provenance=data.get("provenance", ""), table=table, divisors=divisors
    )


def load_fixture(path=None) -> SpecializationFixture:
    """Load a fixture file; with no path, the bundled plane-quartic fixture."""
    if path is None:
        text = (
            resources.files("chipfire") / "fixtures" / "quartic_x0.json"
        ).read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return fixture_from_dict(json.loads(text))


def fixture_reports(fixture: SpecializationFixture):
    """Specialize every fixture divisor, check the rank bound, and test
    linear equivalence with the canonical divisor of the target graph."""
    k = canonical_divisor(fixture.graph)
    out = []
    for d in fixture.divisors:
        report = check_specialization_lemma(fixture.table, d)
        equivalent = is_equivalent(fixture.graph, report.specialized, k)
        out.append((report, equivalent))
    return out
