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

from .errors import DivisorError, FixtureError, UnassignedPointError
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
        if self.stated_rank is not None and type(self.stated_rank) is not int:
            raise DivisorError(
                f"stated rank of {self.name!r} must be an int, got {self.stated_rank!r}"
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


_KIND_NAMES = {str: "a string", int: "an integer", dict: "an object", list: "a list"}
_REQUIRED = object()


def _entry(data, key, kind, where, default=_REQUIRED):
    """data[key], checked to be of one JSON kind (a bool is not an integer).
    An absent key gives the default, or FixtureError if there is none."""
    if key not in data:
        if default is _REQUIRED:
            raise FixtureError(f"{where} has no {key!r} entry")
        return default
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FixtureError(
            f"{where}: {key!r} must be {_KIND_NAMES[kind]}, got {value!r}"
        )
    return value


def fixture_from_dict(data: dict) -> SpecializationFixture:
    """The fixture from its JSON form; a missing or mistyped entry raises
    FixtureError, bad graph text or coefficients their own ChipfireError."""
    if not isinstance(data, dict):
        raise FixtureError(f"fixture must be an object, got {type(data).__name__}")
    graph = parse_graph(_entry(data, "graph", str, "fixture"))
    assignments = _entry(data, "assignments", dict, "fixture")
    for point in assignments:
        _entry(assignments, point, str, "fixture assignments")
    divisors = []
    for i, entry in enumerate(_entry(data, "divisors", list, "fixture")):
        where = f"fixture divisor {i}"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where} must be an object, got {entry!r}")
        divisors.append(
            LabeledCurveDivisor(
                name=_entry(entry, "name", str, where),
                coefficients=dict(_entry(entry, "coeffs", dict, where)),
                stated_rank=_entry(entry, "statedRank", int, where, default=None),
            )
        )
    return SpecializationFixture(
        provenance=_entry(data, "provenance", str, "fixture", default=""),
        table=SpecializationTable(target=graph, assignments=dict(assignments)),
        divisors=tuple(divisors),
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
