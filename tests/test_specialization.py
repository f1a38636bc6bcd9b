"""Pushforward of curve divisors and the plane-quartic fixture."""

import random

import pytest

import chipfire as cf
from chipfire import LabeledCurveDivisor, SpecializationTable, UnassignedPointError


@pytest.fixture(scope="module")
def quartic():
    return cf.load_fixture()


def test_fixture_graph_shape(quartic):
    g = quartic.graph
    assert set(g.vertices) == {"P", "Q1", "Q2", "P'"}
    assert len(g.edges) == 6
    assert cf.genus(g) == 3


def test_specialize_k1(quartic):
    d = next(d for d in quartic.divisors if d.name == "K1")
    pushed = cf.specialize(quartic.table, d)
    assert pushed == cf.Divisor(quartic.graph, {"P'": 1, "Q1": 3})


def test_specialize_k4(quartic):
    d = next(d for d in quartic.divisors if d.name == "K4")
    pushed = cf.specialize(quartic.table, d)
    assert pushed == cf.Divisor(quartic.graph, {"Q1": 1, "Q2": 1, "P": 2})


def test_specialize_empty_divisor(quartic):
    d = LabeledCurveDivisor(name="empty", coefficients={})
    assert cf.specialize(quartic.table, d) == cf.zero_divisor(quartic.graph)


def test_specialize_unassigned_point(quartic):
    d = LabeledCurveDivisor(name="bad", coefficients={"(9:9:9)": 1})
    with pytest.raises(UnassignedPointError):
        cf.specialize(quartic.table, d)


def test_specialize_is_degree_preserving_homomorphism(quartic):
    rng = random.Random("spec")
    points = list(quartic.table.assignments)
    for _ in range(10):
        c1 = {p: rng.randint(-2, 2) for p in rng.sample(points, 3)}
        c2 = {p: rng.randint(-2, 2) for p in rng.sample(points, 3)}
        d1 = LabeledCurveDivisor(name="a", coefficients=c1)
        d2 = LabeledCurveDivisor(name="b", coefficients=c2)
        total = {p: c1.get(p, 0) + c2.get(p, 0) for p in set(c1) | set(c2)}
        d12 = LabeledCurveDivisor(name="ab", coefficients=total)
        lhs = cf.specialize(quartic.table, d12)
        rhs = cf.specialize(quartic.table, d1) + cf.specialize(quartic.table, d2)
        assert lhs == rhs
        assert lhs.degree == d12.degree


def test_rank_bound_on_all_fixture_divisors(quartic):
    for report, _ in cf.fixture_reports(quartic):
        assert report.bound_holds
        assert report.graph_rank >= (report.stated_rank or -1)


def test_canonical_specializations_all_equivalent(quartic):
    g = quartic.graph
    k = cf.canonical_divisor(g)
    canonical_reports = [
        (rep, eq) for rep, eq in cf.fixture_reports(quartic) if rep.name.startswith("K")
    ]
    assert len(canonical_reports) == 4
    for rep, equivalent in canonical_reports:
        assert equivalent
        assert cf.is_equivalent(g, rep.specialized, k)
    # pairwise, through the class group as a second route
    pushed = [rep.specialized for rep, _ in canonical_reports]
    for a in pushed:
        for b in pushed:
            assert cf.class_coordinates(g, a - b).is_zero()


def test_gonality_divisor_rank(quartic):
    rep = next(
        rep for rep, _ in cf.fixture_reports(quartic) if rep.name == "gonality"
    )
    assert rep.graph_rank >= 1
    assert rep.specialized == cf.Divisor(quartic.graph, {"Q1": 3})


def test_stated_rank_minus_one_is_vacuous(quartic):
    d = LabeledCurveDivisor(
        name="vacuous", coefficients={"(0:1:0)": -5}, stated_rank=-1
    )
    report = cf.check_specialization_lemma(quartic.table, d)
    assert report.bound_holds
    assert report.graph_rank == -1


def test_table_rejects_unknown_vertex(quartic):
    with pytest.raises(UnassignedPointError):
        SpecializationTable(target=quartic.graph, assignments={"pt": "nowhere"})


@pytest.mark.parametrize("vertex", [["a"], {"a": 1}, {"a"}])
def test_table_rejects_unhashable_vertex(vertex):
    """An unhashable assignment names no vertex: a typed error, not a
    TypeError from the graph's vertex lookup."""
    g = cf.cycle_graph(3)
    with pytest.raises(UnassignedPointError):
        SpecializationTable(target=g, assignments={"p": vertex})
    assert not g.has_vertex(vertex)
    with pytest.raises(cf.GraphError):
        g.index(vertex)


def test_fixture_round_trip_from_dict(quartic):
    data = {
        "graph": "a b\nb c\nc a",
        "assignments": {"p": "a"},
        "divisors": [
            {"name": "d", "coeffs": {"p": 2}, "statedRank": 0},
            {"name": "e", "coeffs": {"p": 1}},
        ],
    }
    fixture = cf.fixture_from_dict(data)
    assert [d.stated_rank for d in fixture.divisors] == [0, None]
    assert cf.specialize(fixture.table, fixture.divisors[0]) == cf.Divisor(
        fixture.graph, {"a": 2}
    )


@pytest.mark.parametrize("value", [1.5, True, "1", None])
def test_fixture_rejects_non_int_coefficients(value):
    data = {
        "graph": "a b\nb c\nc a",
        "assignments": {"p": "a"},
        "divisors": [{"name": "d", "coeffs": {"p": value}}],
    }
    with pytest.raises(cf.DivisorError):
        cf.fixture_from_dict(data)


def _fixture(**changes):
    data = {
        "graph": "a b\nb c\nc a",
        "assignments": {"p": "a"},
        "divisors": [{"name": "d", "coeffs": {"p": 2}, "statedRank": 0}],
    }
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "data",
    [
        [],
        _fixture(graph=5),
        _fixture(assignments=5),
        _fixture(assignments=[["p", "a"]]),
        _fixture(assignments={"p": ["a"]}),
        _fixture(divisors=5),
        _fixture(divisors={"name": "d", "coeffs": {"p": 2}}),
        _fixture(divisors=[5]),
        _fixture(divisors=[{"name": "d", "coeffs": [["p", 2]]}]),
        _fixture(divisors=[{"name": 5, "coeffs": {"p": 2}}]),
        _fixture(divisors=[{"coeffs": {"p": 2}}]),
        _fixture(divisors=[{"name": "d"}]),
        _fixture(provenance=5),
    ],
)
def test_fixture_rejects_malformed_entries(data):
    with pytest.raises(cf.ChipfireError):
        cf.fixture_from_dict(data)


@pytest.mark.parametrize("value", [1.5, True, False, "1", None, [0]])
def test_fixture_rejects_non_int_stated_rank(value):
    data = _fixture(divisors=[{"name": "d", "coeffs": {"p": 2}, "statedRank": value}])
    with pytest.raises(cf.ChipfireError, match="statedRank"):
        cf.fixture_from_dict(data)
    if value is not None:  # stated_rank=None means no stated rank
        with pytest.raises(cf.DivisorError):
            LabeledCurveDivisor(name="d", coefficients={"p": 2}, stated_rank=value)
