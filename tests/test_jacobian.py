"""Jacobian structure, spanning-tree counts, and the equivalence oracle."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import NonzeroDegreeError, graphs, jacobian

from oracles import all_small_multigraphs, equivalent_oracle, spanning_tree_oracle

from test_divisors import random_function


def test_reduced_laplacian_banana():
    g = cf.banana_graph(4)
    assert cf.reduced_laplacian(g, "Q2") == [[4]]


def test_reduced_laplacian_path_middle():
    g = cf.parse_graph("a b\nb c")
    assert cf.reduced_laplacian(g, "b") == [[1, 0], [0, 1]]


def test_reduced_laplacian_complete_4():
    g = cf.complete_graph(4)
    assert cf.reduced_laplacian(g, "v4") == [
        [3, -1, -1],
        [-1, 3, -1],
        [-1, -1, 3],
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_jacobian_banana_cyclic(n):
    s = cf.jacobian_structure(cf.banana_graph(n))
    assert s.nontrivial_factors == ((n,) if n > 1 else ())
    assert s.order == n


def test_jacobian_tree_trivial():
    s = cf.jacobian_structure(cf.path_graph(5))
    assert s.order == 1
    assert s.nontrivial_factors == ()
    assert s.describe() == "trivial group"


def test_jacobian_complete_4():
    s = cf.jacobian_structure(cf.complete_graph(4))
    assert s.nontrivial_factors == (4, 4)
    assert s.order == 16
    assert cf.spanning_tree_count(cf.complete_graph(4)) == 16


@pytest.mark.parametrize("n", range(3, 8))
def test_spanning_trees_cycle(n):
    assert cf.spanning_tree_count(cf.cycle_graph(n)) == n


def test_smith_normal_form_transforms():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, diag, v = cf.smith_normal_form(matrix)
    n = len(matrix)
    product = [
        [
            sum(u[i][a] * matrix[a][b] * v[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert product == [
        [diag[0], 0, 0],
        [0, diag[1], 0],
        [0, 0, diag[2]],
    ]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@pytest.mark.parametrize(
    "matrix, named",
    [
        ([[1, 2], [3]], "row 1"),
        ([[1.5]], "row 0"),
        ([["1"]], "row 0"),
        ([[1, 2], [1, True]], "row 1"),
    ],
)
def test_smith_normal_form_refuses_malformed_input(matrix, named):
    """Ragged rows and entries that are not int (bool included) are a
    ValueError naming the row, not an IndexError, a TypeError or a factor
    of 1.5."""
    with pytest.raises(ValueError, match=named):
        cf.smith_normal_form(matrix)


def _doubled(g):
    return cf.MultiGraph(g.vertices, list(g.edges) * 2)


# Jacobians that are not cyclic. After their unit pivots (if any), no
# entry of the core is a unit modulo its determinant, so the whole core
# goes to the dense SNF of [R | D I].
NONCYCLIC = {
    "K4": (cf.complete_graph(4), (1, 4, 4)),
    "K5": (cf.complete_graph(5), (1, 5, 5, 5)),
    "doubled triangle": (_doubled(cf.cycle_graph(3)), (2, 6)),
    "doubled 4-cycle": (_doubled(cf.cycle_graph(4)), (2, 2, 8)),
}


def _fresh(g):
    return cf.MultiGraph(g.vertices, g.edges)


def test_noncyclic_jacobians_reach_the_residual_block(monkeypatch):
    residual_rows = []
    dense = jacobian.smith_normal_form

    def recording(matrix):
        residual_rows.append(len(matrix))
        return dense(matrix)

    monkeypatch.setattr(jacobian, "smith_normal_form", recording)
    for name, (g, factors) in NONCYCLIC.items():
        residual_rows.clear()
        assert cf.jacobian_structure(_fresh(g)).invariant_factors == factors, name
        assert residual_rows and residual_rows[0] >= 2, name


def test_residual_factors_that_miss_the_determinant_raise(monkeypatch):
    """The factors of the residual block must multiply to the core's
    determinant. A dense SNF that returns a wrong diagonal raises
    AssertionError, raised explicitly so that python -O keeps the check."""
    dense = jacobian.smith_normal_form

    def wrong_diagonal(matrix):
        u, diag, v = dense(matrix)
        return u, [2 * x for x in diag], v

    monkeypatch.setattr(jacobian, "smith_normal_form", wrong_diagonal)
    for name, (g, _) in NONCYCLIC.items():
        with pytest.raises(AssertionError, match="determinant"):
            cf.jacobian_structure(_fresh(g))


def _larger_graphs():
    for i in range(12):
        yield cf.random_multigraph(5 + i % 5, 1 + i % 4, seed=9300 + i)
    for g, _ in NONCYCLIC.values():
        yield _fresh(g)


def test_order_equals_tree_oracle_up_to_nine_vertices():
    """The modulus of the core's elimination is the core's own determinant,
    so the order is checked against a count that shares no elimination
    with it: the brute-force tree count, on random graphs of 5 to 9
    vertices and on the non-cyclic panel (the small corpus is
    test_order_equals_tree_count_exhaustive)."""
    for g in _larger_graphs():
        order = math.prod(cf.jacobian_structure(g).invariant_factors)
        assert order == spanning_tree_oracle(g), cf.serialize_graph(g)


def test_coordinates_biject_superstables_onto_the_factors():
    """Every kept row u_i of U satisfies u_i L_q = 0 mod d_i, and the
    coordinates of c - |c|(q) over the superstable configurations c, one
    per class, are pairwise distinct and number prod d_i: the coordinate
    map is onto the sum of the Z/d_i."""
    for g in itertools.chain(all_small_multigraphs(4, 6), _larger_graphs()):
        factors, rows = jacobian._snf_at_base(g)
        laplacian = cf.reduced_laplacian(g, g.vertices[0])
        for row, d in zip(rows, factors[len(factors) - len(rows):]):
            for column in zip(*laplacian):
                assert sum(u * a for u, a in zip(row, column)) % d == 0
        seen = set()
        for config in cf.superstable_configs(g):
            vec = list(config)
            vec[0] -= sum(config)
            seen.add(
                cf.class_coordinates(g, cf.Divisor.from_vector(g, vec)).coordinates
            )
        count = sum(1 for _ in cf.superstable_configs(g))
        assert len(seen) == count == math.prod(factors), cf.serialize_graph(g)


def test_order_equals_tree_count_exhaustive():
    """Invariant-factor order, determinant, and brute-force tree count all
    agree over every connected loopless multigraph with <= 4 vertices and
    <= 6 edges."""
    checked = 0
    for g in all_small_multigraphs(4, 6):
        order = cf.jacobian_structure(g).order
        det = cf.spanning_tree_count(g)
        brute = spanning_tree_oracle(g)
        assert order == det == brute, cf.serialize_graph(g)
        checked += 1
    assert checked > 500


def test_order_equals_tree_count_random_larger():
    for i in range(100):
        g = cf.random_multigraph(2 + i % 6, i % 8, seed=9000 + i)
        assert cf.jacobian_structure(g).order == cf.spanning_tree_count(g)


def test_tree_count_is_the_reducers_determinant():
    """The tree count is the last pivot of the factor the reducer caches:
    counting fills g._factors[0], and a principal divisor check that
    follows solves through it without eliminating L_q again, while on a
    fresh graph the first such check eliminates L_q exactly once."""
    for i in range(20):
        g = cf.random_multigraph(3 + i % 6, i % 5, seed=9100 + i)
        trees = cf.spanning_tree_count(g)
        assert g._factors[0][0] == trees == spanning_tree_oracle(g)
        # Firing the last vertex -2 times leaves it at least 2 chips in
        # debt, an input that reduce_vector lowers to the max script.
        last = g.vertices[-1]
        d = cf.laplacian_apply(g, {v: -2 if v == last else 0 for v in g.vertices})
        fresh = cf.MultiGraph(g.vertices, g.edges)
        with mock.patch.object(
            graphs, "sparse_factor", wraps=graphs.sparse_factor
        ) as factor:
            assert cf.is_equivalent(g, d, cf.zero_divisor(g))
            assert factor.call_count == 0
            assert cf.is_equivalent(
                fresh, cf.Divisor(fresh, dict(d.items())), cf.zero_divisor(fresh)
            )
            assert factor.call_count == 1
        assert fresh._factors == g._factors


def test_invariant_factors_independent_of_base_vertex():
    for i in range(20):
        g = cf.random_multigraph(2 + i % 4, i % 5, seed=500 + i)
        expected = None
        for q in g.vertices:
            u, diag, v = cf.smith_normal_form(cf.reduced_laplacian(g, q))
            factors = tuple(x for x in diag if x > 1)
            if expected is None:
                expected = factors
            assert factors == expected


def test_class_coordinates_principal_is_zero():
    rng = random.Random("principal")
    for i in range(20):
        g = cf.random_multigraph(2 + i % 5, i % 6, seed=700 + i)
        d = cf.laplacian_apply(g, random_function(g, rng))
        assert cf.class_coordinates(g, d).is_zero()


def test_class_coordinates_banana_order_three():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": 1, "Q2": -1})
    coords = cf.class_coordinates(g, d)
    assert not coords.is_zero()
    assert coords.invariant_factors == (3,)
    triple = 3 * d
    assert cf.class_coordinates(g, triple).is_zero()


def test_class_coordinates_requires_degree_zero():
    g = cf.banana_graph(3)
    with pytest.raises(NonzeroDegreeError):
        cf.class_coordinates(g, cf.Divisor(g, {"Q1": 1}))


def test_class_coordinates_provenance_is_stable():
    g = cf.complete_graph(4)
    d = cf.Divisor(g, {"v1": 1, "v2": -1})
    first = cf.class_coordinates(g, d)
    second = cf.class_coordinates(g, d)
    assert first.row_transform == second.row_transform
    assert first.coordinates == second.coordinates


def test_equivalence_oracle_agreement_exhaustive():
    """The chip-firing equivalence decider and the invariant-factor
    coordinates agree on every divisor with coefficients in [-2, 2] over
    the small-graph corpus."""
    for g in all_small_multigraphs(4, 6):
        n = len(g.vertices)
        zero = cf.zero_divisor(g)
        for vec in itertools.product(range(-2, 3), repeat=n):
            if sum(vec) != 0:
                continue
            d = cf.Divisor.from_vector(g, list(vec))
            by_reduction = cf.is_equivalent(g, d, zero)
            by_coordinates = cf.class_coordinates(g, d).is_zero()
            assert by_reduction == by_coordinates, (cf.serialize_graph(g), vec)


def test_equivalence_oracle_agreement_sampled_five_vertices():
    rng = random.Random("agree5")
    for i in range(20):
        g = cf.random_multigraph(5, rng.randint(0, 5), seed=800 + i)
        zero = cf.zero_divisor(g)
        for _ in range(100):
            vec = [rng.randint(-3, 3) for _ in range(4)]
            vec.append(-sum(vec))
            d = cf.Divisor.from_vector(g, vec)
            assert cf.is_equivalent(g, d, zero) == cf.class_coordinates(
                g, d
            ).is_zero()


def test_invariant_factors_match_dense_smith_normal_form():
    """The unit pivots with the core mod its determinant, and the dense
    SNF of the whole reduced Laplacian, give the same invariant factors: on
    every small multigraph, on a panel of sparse 40- to 47-vertex graphs
    (each leaves a core of 8 to 11 rows after its unit pivots), and on an
    80-vertex graph."""
    graphs = list(all_small_multigraphs(4, 6))
    graphs += [cf.random_multigraph(40 + i, (40 + i) // 2, seed=1000 + i) for i in range(8)]
    graphs.append(cf.random_multigraph(80, 40, seed=0))
    for g in graphs:
        _, dense, _ = cf.smith_normal_form(cf.reduced_laplacian(g, g.vertices[0]))
        assert cf.jacobian_structure(g).invariant_factors == tuple(dense), (
            cf.serialize_graph(g)
        )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.integers(6, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(n // 2, n))),
    st.integers(0, 10**6),
)
def test_class_coordinates_agree_with_equivalence_oracle(shape, seed):
    """On graphs of genus n/2 to n, whose unit pivots leave a dense core, a
    Laplacian image is principal and moving one chip of it usually is not;
    the coordinates are zero exactly when the exact rational solve of the
    oracle finds integer firing amounts."""
    n, extra = shape
    g = cf.random_multigraph(n, extra, seed=seed)
    rng = random.Random(seed)
    d = cf.laplacian_apply(g, random_function(g, rng, -5, 5))
    src, dst = rng.sample(list(g.vertices), 2)
    moved = d - cf.Divisor(g, {src: 1}) + cf.Divisor(g, {dst: 1})
    zero = [0] * n
    for divisor in (d, moved):
        expected = equivalent_oracle(g, divisor.to_vector(), zero)
        assert cf.class_coordinates(g, divisor).is_zero() == expected


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(100, 200), st.integers(0, 10**6))
def test_class_coordinates_agree_with_reduction_at_scale(n, seed):
    """At 100 to 200 vertices, where the core has tens of rows and is
    eliminated mod its determinant, the coordinates of a Laplacian image
    are zero, and those of the same divisor with one chip moved are zero
    exactly when q-reduction finds it principal."""
    g = cf.random_multigraph(n, n // 2, seed=seed)
    rng = random.Random(seed)
    d = cf.laplacian_apply(g, random_function(g, rng, -5, 5))
    src, dst = rng.sample(list(g.vertices), 2)
    moved = d - cf.Divisor(g, {src: 1}) + cf.Divisor(g, {dst: 1})
    zero = cf.zero_divisor(g)
    assert cf.class_coordinates(g, d).is_zero()
    principal = cf.is_equivalent(g, moved, zero)
    assert cf.class_coordinates(g, moved).is_zero() == principal
