"""The rank engine: values, certificates, ordering divisors, Riemann-Roch."""

import dataclasses
import importlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import divisors
from chipfire.metric import _MetricSession
from chipfire.rank import _direct_rank, _rank_reduced

from oracles import (
    all_small_multigraphs,
    complete_graph_rank,
    effective_vectors,
    rank_oracle,
)

from test_divisors import random_divisor, random_function

# The package re-exports the function rank under the module's name.
rank_module = importlib.import_module("chipfire.rank")


def test_rank_banana_hyperelliptic_class():
    for n in range(3, 7):
        g = cf.banana_graph(n)
        assert cf.rank(g, cf.Divisor(g, {"Q1": 1, "Q2": 1})) == 1


def test_rank_zero_divisor():
    for g in (cf.banana_graph(3), cf.complete_graph(4), cf.path_graph(4)):
        assert cf.rank(g, cf.zero_divisor(g)) == 0


def test_rank_quartic_canonical():
    g = cf.load_fixture().graph
    assert cf.rank(g, cf.canonical_divisor(g)) == 2


@pytest.mark.parametrize("n", [4, 5])
def test_rank_complete_low_degree_effective(n):
    """Effective divisors of degree n-2 on the complete graph have rank <= 0,
    and dropping a chip from the emptiest vertex empties the class."""
    g = cf.complete_graph(n)
    for combo in itertools.combinations_with_replacement(range(n), n - 2):
        vec = [0] * n
        for i in combo:
            vec[i] += 1
        d = cf.Divisor.from_vector(g, vec)
        assert cf.rank(g, d) <= 0
        lightest = g.vertices[min(range(n), key=lambda i: vec[i])]
        assert cf.rank(g, d - cf.divisor_of_vertex(g, lightest)) == -1


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_matches_oracle(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 3, seed % 4, seed=seed)
    d = random_divisor(g, rng, -2, 2)
    assert cf.rank(g, d) == rank_oracle(g, d.to_vector())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_constant_on_classes(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 5, seed=seed)
    d = random_divisor(g, rng, -2, 2)
    shifted = d + cf.laplacian_apply(g, random_function(g, rng))
    assert cf.rank(g, d) == cf.rank(g, shifted)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_degree_bound_and_high_degree_value(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 5, seed=seed)
    gg = cf.genus(g)
    d = random_divisor(g, rng, -1, 3)
    r = cf.rank(g, d)
    assert r <= max(-1, d.degree)
    if d.degree > 2 * gg - 2:
        assert r == d.degree - gg


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_drop_by_one_point(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 4, seed % 5, seed=seed)
    d = random_divisor(g, rng, -1, 3)
    r = cf.rank(g, d)
    drops = [cf.rank(g, d - cf.divisor_of_vertex(g, v)) for v in g.vertices]
    assert all(dr >= r - 1 for dr in drops)
    if r >= 0:
        assert any(dr == r - 1 for dr in drops)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_clifford_degree_two(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 4, 2 + seed % 4, seed=seed)
    if cf.genus(g) < 2:
        return
    n = len(g.vertices)
    i, j = rng.randrange(n), rng.randrange(n)
    d = cf.Divisor(g, {g.vertices[i]: 1}) + cf.Divisor(g, {g.vertices[j]: 1})
    r = cf.rank(g, d)
    assert r <= 1
    # the direct search assumes no Clifford bound, so this is a check on it
    assert _direct_rank(g, d) <= 1


def test_clifford_bound_and_degree_floor_exhaustive_small():
    """Clifford's bound, r(D) <= deg D / 2 for 0 <= deg D <= 2g - 2, and
    rank_degree_floor, which follows from it, hold for every class on every
    small multigraph by the brute-force oracle. rank() stops its search at
    the bound and the g^r_d enumeration skips degrees below the floor, so
    neither can be the thing that checks them. An effective divisor of each
    degree up to 2g - 1 stands for every class of nonnegative rank."""
    for g in all_small_multigraphs(max_vertices=3, max_edges=5):
        gg = cf.genus(g)
        for d in range(2 * gg):
            for vec in effective_vectors(len(g.vertices), d):
                r = rank_oracle(g, vec)
                assert d >= cf.rank_degree_floor(gg, r), (g, vec)
                if d <= 2 * gg - 2:
                    assert 2 * r <= d, (g, vec)


def test_clifford_cap_ends_only_the_riemann_roch_search():
    """rank() stops at Clifford's bound; the direct search stops only at
    r(D) <= deg D, so it still searches level r + 1 where r = deg D / 2.
    On banana_graph(3), K has r = 1 = deg K / 2 (rank() searches its dual,
    K - K = 0, at no level); on banana_graph(4), (Q1) + (Q2) has r = 1 =
    deg / 2 < g (rank() searches it directly, up to level 1)."""
    real_search = rank_module._search
    levels = []

    def recorded(sess, red, k):
        levels.append(k)
        return real_search(sess, red, k)

    b3, b4 = cf.banana_graph(3), cf.banana_graph(4)
    cases = [(b3, cf.canonical_divisor(b3)), (b4, cf.Divisor(b4, {"Q1": 1, "Q2": 1}))]
    with mock.patch.object(rank_module, "_search", recorded):
        for g, d in cases:
            levels.clear()
            assert cf.rank(g, d) == 1
            assert max(levels, default=0) <= 1
            levels.clear()
            assert _direct_rank(g, d) == 1
            assert 2 in levels


# -- the high-degree audit -----------------------------------------------------


def _high_degree_case(seed):
    """A random multigraph, or its 2-3x subdivision, with a reduced divisor
    of degree 2g - 1 to 2g + 1 (above 2g - 2, so the rank is forced)."""
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 4, seed % 4, seed=seed)
    if seed % 3:
        g, _ = cf.subdivide(g, 1 + seed % 3)
    gg = cf.genus(g)
    n = len(g.vertices)
    vec = [0] * n
    for _ in range(2 * gg - 1 + rng.randint(0, 2)):
        vec[rng.randrange(n)] += 1
    vec[rng.randrange(n)] -= rng.randint(0, 1)
    vec[0] += max(0, 2 * gg - 1 - sum(vec), -sum(vec))  # winnable on a tree too
    sess = rank_module._Session(g)
    return g, sess, sess.reduced(tuple(vec)), sum(vec) - gg


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_high_degree_audit_matches_search(seed):
    """One reduction per effective class of degree k decides r(D) >= k the
    way the search over chip removals does: True at k = deg D - g, False at
    k + 1; on tiny graphs the oracle gives deg D - g as well."""
    g, sess, red, k = _high_degree_case(seed)
    assert sess.audit_high_degree(red, k) is True
    assert rank_module._search(rank_module._Session(g), red, k) is True
    assert sess.audit_high_degree(red, k + 1) is False
    assert rank_module._search(rank_module._Session(g), red, k + 1) is False
    if len(g.vertices) <= 4:
        assert rank_oracle(g, list(red)) == k


def test_high_degree_audit_catches_a_chip_short_at_q():
    """A reducer that leaves one lending step of the audit's walk a chip
    short at q makes rank() raise the audit's AssertionError, so the audit
    is a live check. The step chosen is a tight one: its reduced form of
    D - c keeps exactly k - |c| = deg - g chips at q, nothing to spare.
    The broken call runs on a graph built afresh: on g the graph's memos
    would answer that step without calling the reducer."""
    g = cf.complete_graph(4)
    gg = cf.genus(g)
    d = cf.Divisor(g, {"v1": 3, "v2": 1, "v3": 1})  # reduced, degree 2g - 1
    real_reduce = rank_module.reduce_vector
    lent = []

    def recorded_reduce(graph, vec, q=0, _one_short=False):
        start = list(vec)
        real_reduce(graph, vec, q, _one_short)
        if _one_short:
            lent.append((start, list(vec)))
        return vec

    with mock.patch.object(rank_module, "reduce_vector", recorded_reduce):
        assert cf.rank(g, d) == 2
    tight = [start for start, out in lent if out[0] == sum(out) - gg]
    assert tight, "no lending step of the walk is tight at q"
    target = tight[0]

    def short_reduce(graph, vec, q=0, _one_short=False):
        hit = list(vec) == target
        real_reduce(graph, vec, q, _one_short)
        if hit:
            vec[q] -= 1
        return vec

    with mock.patch.object(rank_module, "reduce_vector", short_reduce):
        with pytest.raises(AssertionError, match="high-degree rank audit failed"):
            cf.rank(cf.complete_graph(4), d)
    assert cf.rank(g, d) == 2


def test_high_degree_audit_runs_once_per_graph():
    """A passing audit at deg D = 2g (k = g) has walked every superstable,
    so [D] - [c] ran over all of Jac(G): the graph keeps that verdict, and
    a 2g + 1 query on the same graph object walks nothing. At 2g - 1
    (k = g - 1) the size-g configurations are skipped, so the verdict
    depends on D and that query still walks."""
    g = cf.complete_graph(4)
    gg = cf.genus(g)
    real_steps = rank_module._superstable_steps
    walked = []

    def steps(*args):
        for step in real_steps(*args):
            walked.append(step)
            yield step

    with mock.patch.object(rank_module, "_superstable_steps", steps):
        assert cf.rank(g, cf.Divisor(g, {"v1": 2 * gg})) == gg
        assert len(walked) == 4 ** 2  # every superstable of K4
        walked.clear()
        assert cf.rank(g, cf.Divisor(g, {"v2": 2 * gg + 1})) == gg + 1
        assert walked == []
        assert cf.rank(g, cf.Divisor(g, {"v3": 2 * gg - 1})) == gg - 1
        assert walked
        walked.clear()
        # another graph object, even an equal one, walks on its own
        assert cf.rank(cf.complete_graph(4), cf.Divisor(g, {"v2": 2 * gg + 1})) == gg + 1
        assert len(walked) == 4 ** 2


def test_high_degree_audit_catches_a_broken_reducer_on_a_fresh_graph():
    """The graph keeps the audit's verdict only after a pass, so a reducer
    that leaves every lending step a chip short at q fails the first
    high-degree query on a fresh graph at every degree above 2g - 2."""
    real_reduce = rank_module.reduce_vector

    def short_reduce(graph, vec, q=0, _one_short=False):
        real_reduce(graph, vec, q, _one_short)
        if _one_short:
            vec[q] -= 1
        return vec

    gg = cf.genus(cf.complete_graph(4))
    with mock.patch.object(rank_module, "reduce_vector", short_reduce):
        for degree in (2 * gg - 1, 2 * gg, 2 * gg + 1):
            g = cf.complete_graph(4)
            with pytest.raises(AssertionError, match="high-degree rank audit failed"):
                cf.rank(g, cf.Divisor(g, {"v1": degree}))
            assert rank_module._JACOBIAN_PASS not in g._rank_memos[0]


# -- branching over a rank-determining set -------------------------------------


def _model_branched_rank(sess, counts, vec):
    """Rank of a vector on subdivide_edges(model, counts), searched by the
    metric session on the model with lengths counts, which subtracts chips
    only at the model vertices. The subdivision lists the model vertices
    first, then the fresh vertices of each edge e in path order, at
    positions 1 .. counts[e] - 1 along the metric edge."""
    interior = [(e, j) for e, k in enumerate(counts) for j in range(1, k)]
    triples = tuple((e, j, c) for (e, j), c in zip(interior, vec[sess.n:]) if c)
    return _rank_reduced(sess, sess.reduced((*vec[:sess.n], triples)))


def _small_vectors(n):
    """Coefficient vectors with entries in {-1, 0, 1, 2}, at most three chips
    in absolute value, and degree in [-1, 2]."""
    for size in range(4):
        for support in itertools.combinations(range(n), size):
            for coeffs in itertools.product((-1, 1, 2), repeat=size):
                if sum(map(abs, coeffs)) > 3 or not -1 <= sum(coeffs) <= 2:
                    continue
                vec = [0] * n
                for i, c in zip(support, coeffs):
                    vec[i] = c
                yield vec


def test_model_vertex_branching_exhaustive_small():
    """The vertex set of a loopless model is rank-determining (Luo 2011), so
    on every subdivision the metric search, branching over the model
    vertices, agrees with the full graph search, for divisors supported
    anywhere, including on subdivision vertices."""
    checked = 0
    for g in all_small_multigraphs(max_vertices=3, max_edges=3):
        for counts in itertools.product((1, 2, 3), repeat=len(g.edges)):
            sub, _ = cf.subdivide_edges(g, counts)
            sess = _MetricSession(g, counts)
            for vec in _small_vectors(len(sub.vertices)):
                expected = cf.rank(sub, cf.Divisor.from_vector(sub, vec))
                got = _model_branched_rank(sess, counts, vec)
                assert got == expected, (g, counts, vec)
                if len(sub.vertices) <= 4:
                    assert rank_oracle(sub, vec) == expected, (g, counts, vec)
                checked += 1
    assert checked > 30000


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_model_vertex_branching_larger_subdivisions(seed):
    """Degrees up to 2g, so mostly where degree alone does not force the
    rank, with chips placed anywhere on the subdivision."""
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 4, 1 + seed % 4, seed=seed)
    counts = [rng.randint(1, 4) for _ in g.edges]
    sub, _ = cf.subdivide_edges(g, counts)
    n = len(sub.vertices)
    vec = [0] * n
    for _ in range(rng.randint(0, 2 * cf.genus(g))):
        vec[rng.randrange(n)] += 1
    vec[rng.randrange(n)] -= rng.randint(0, 1)
    expected = cf.rank(sub, cf.Divisor.from_vector(sub, vec))
    sess = _MetricSession(g, counts)
    assert _model_branched_rank(sess, counts, vec) == expected


# -- ordering divisors --------------------------------------------------------


def test_nu_banana():
    for n in range(3, 7):
        g = cf.banana_graph(n)
        nu = cf.nu_divisor(g, ["Q1", "Q2"])
        assert nu == cf.Divisor(g, {"Q1": -1, "Q2": n - 1})
        assert nu.degree == cf.genus(g) - 1


def test_nu_path_left_to_right():
    g = cf.path_graph(4)
    nu = cf.nu_divisor(g, g.vertices)
    assert nu == cf.Divisor(g, {"v1": -1})
    assert nu.degree == -1


def test_nu_complete_4():
    g = cf.complete_graph(4)
    nu = cf.nu_divisor(g, ["v1", "v2", "v3", "v4"])
    assert nu == cf.Divisor(g, {"v1": -1, "v3": 1, "v4": 2})
    assert nu.degree == cf.genus(g) - 1


def test_nu_requires_permutation():
    g = cf.banana_graph(3)
    with pytest.raises(ValueError):
        cf.nu_divisor(g, ["Q1", "Q1"])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_nu_degree_is_genus_minus_one(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    order = list(g.vertices)
    rng.shuffle(order)
    assert cf.nu_divisor(g, order).degree == cf.genus(g) - 1


# -- certificates -------------------------------------------------------------


def test_certificate_banana_negative():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q2": 2, "Q1": -1})
    res = cf.rank_with_certificate(g, d)
    assert res.rank == -1
    assert res.nu_ordering == ("Q1", "Q2")
    assert res.nu == cf.Divisor(g, {"Q1": -1, "Q2": 2})
    assert res.verify(g, d)


def test_certificate_zero_divisor():
    g = cf.complete_graph(4)
    res = cf.rank_with_certificate(g, cf.zero_divisor(g))
    assert res.rank == 0
    assert res.effective_witness == cf.zero_divisor(g)
    assert res.verify(g, cf.zero_divisor(g))


def test_certificate_quartic_paper_ordering():
    g = cf.load_fixture().graph
    d = cf.Divisor(g, {"P": 1, "Q1": 2, "P'": -1})
    res = cf.rank_with_certificate(g, d)
    assert res.rank == -1
    assert res.verify(g, d)
    # the published ordering works as well
    nu = cf.nu_divisor(g, ["P'", "Q2", "P", "Q1"])
    assert cf.is_winnable(g, nu - d)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_certificates_verify(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 5, seed=seed)
    d = random_divisor(g, rng, -2, 2)
    res = cf.rank_with_certificate(g, d)
    assert res.rank == cf.rank(g, d)
    assert res.verify(g, d)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_certificate_ordering_burns_the_reduced_form(seed):
    """Every vertex after q in nu_ordering has more edges to earlier
    vertices than chips in the q-reduced form of a rank -1 divisor."""
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 6, seed % 5, seed=seed)
    q = g.vertices[0]
    red = cf.q_reduce(g, random_divisor(g, rng, -2, 3), q)
    red = red - cf.Divisor(g, {q: red[q] + rng.randint(1, 3)})  # rank -1
    d = red + cf.laplacian_apply(g, random_function(g, rng, -3, 3))
    res = cf.rank_with_certificate(g, d)
    assert res.rank == -1
    assert res.verify(g, d)
    assert res.nu_ordering[0] == q
    for i, v in enumerate(res.nu_ordering[1:], start=1):
        earlier = sum(g.multiplicity(v, w) for w in res.nu_ordering[:i])
        assert earlier > red[v]


def test_ordering_certificate_refuses_unreduced_vector():
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": -4, "Q2": 3})  # Q2 can fire: not Q1-reduced
    with pytest.raises(AssertionError, match="not q-reduced"):
        rank_module._ordering_certificate(g, (-4, 3), d)


def test_ordering_certificate_domination_check_is_live():
    """D = 2(Q2) - (Q1) on banana_graph(3) has rank -1 and degree g - 1, so
    its burning-order nu is equivalent to D. A nu one chip short no longer
    dominates D, and rank_with_certificate raises rather than return it."""
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": -1, "Q2": 2})
    real_nu = rank_module.nu_divisor

    def short_nu(graph, ordering):
        return real_nu(graph, ordering) - cf.Divisor(graph, {ordering[0]: 1})

    with mock.patch.object(rank_module, "nu_divisor", short_nu):
        with pytest.raises(AssertionError, match="does not dominate"):
            cf.rank_with_certificate(g, d)
    assert cf.rank_with_certificate(g, d).verify(g, d)


def test_missing_failing_evidence_is_caught():
    """An engine that reports one less than the rank finds that the search
    at its rank + 1 passes, so rank_with_certificate has no failing
    evidence to read off and raises."""
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": 1, "Q2": 1})  # rank 1
    real_rank = rank_module._rank_reduced

    def low_rank(sess, red, clifford=False):
        return real_rank(sess, red, clifford) - 1

    with mock.patch.object(rank_module, "_rank_reduced", low_rank):
        with pytest.raises(AssertionError, match="no failing evidence at rank"):
            cf.rank_with_certificate(g, d)


def test_dichotomy_exhaustive_small():
    """Exactly one of: the divisor is winnable, or some ordering divisor
    dominates it up to equivalence. Checked against all orderings."""
    rng = random.Random("dichotomy")
    for trial in range(25):
        g = cf.random_multigraph(2 + trial % 4, trial % 4, seed=trial)
        d = random_divisor(g, rng, -2, 2)
        winnable = cf.rank(g, d) >= 0
        dominated = any(
            cf.is_winnable(g, cf.nu_divisor(g, perm) - d)
            for perm in itertools.permutations(g.vertices)
        )
        assert winnable != dominated


def test_single_vertex_graph_ranks():
    g = cf.path_graph(1)
    assert cf.rank(g, cf.Divisor(g, {"v1": 5})) == 5
    assert cf.rank(g, cf.Divisor(g, {"v1": -1})) == -1
    pos = cf.rank_with_certificate(g, cf.Divisor(g, {"v1": 5}))
    assert pos.verify(g, cf.Divisor(g, {"v1": 5}))
    neg = cf.rank_with_certificate(g, cf.Divisor(g, {"v1": -2}))
    assert neg.nu_ordering == ("v1",)
    assert neg.verify(g, cf.Divisor(g, {"v1": -2}))


def test_tampered_rank_certificate_fails_to_verify():
    """On the banana graph with three edges, D = (Q1) + (Q2) has rank 1.
    Every field of its certificate, changed so that the certificate no
    longer proves the value, makes verify return False: a wrong rank, a
    witness that is missing, not effective or not equivalent to D, and
    failing evidence that is missing, of the wrong degree, not effective,
    or leaves D - E winnable."""
    g = cf.banana_graph(3)
    d = cf.Divisor(g, {"Q1": 1, "Q2": 1})
    res = cf.rank_with_certificate(g, d)
    assert res.rank == 1 and res.verify(g, d)
    tampered = {
        "rank": (0, 2, -1),
        "effective_witness": (
            None,
            cf.Divisor(g, {"Q1": 4, "Q2": -2}),  # D after Q2 fires
            res.effective_witness + cf.Divisor(g, {"Q1": 1}),
        ),
        "failing_evidence": (
            None,
            res.failing_evidence + cf.Divisor(g, {"Q1": 1}),
            cf.Divisor(g, {"Q1": 3, "Q2": -1}),
            d,
        ),
    }
    for field, values in tampered.items():
        for value in values:
            bad = dataclasses.replace(res, **{field: value})
            assert not bad.verify(g, d), (field, value)


def test_tampered_ordering_certificate_fails_to_verify():
    """On the 3-cycle, D = (v2) - (v1) is not principal, so its rank is -1.
    Every field of its certificate, changed so that the certificate no
    longer proves the value, makes verify return False: a rank of 0 with
    no witness, an ordering that is missing or no permutation of the
    vertices, a nu that is missing or is not the ordering's, and an
    ordering together with its own nu that does not dominate D."""
    g = cf.cycle_graph(3)
    d = cf.Divisor(g, {"v2": 1, "v1": -1})
    res = cf.rank_with_certificate(g, d)
    assert res.rank == -1 and res.verify(g, d)
    other = ("v1", "v2", "v3")
    assert other != res.nu_ordering
    assert not cf.is_winnable(g, cf.nu_divisor(g, other) - d)
    tampered = (
        {"rank": 0},
        {"nu_ordering": None},
        {"nu_ordering": ("v1", "v3")},
        {"nu_ordering": ("v1", "v1", "v2")},
        {"nu_ordering": other},
        {"nu": None},
        {"nu": res.nu + cf.Divisor(g, {"v1": 1})},
        {"nu_ordering": other, "nu": cf.nu_divisor(g, other)},
    )
    for fields in tampered:
        assert not dataclasses.replace(res, **fields).verify(g, d), fields


def _moved_divisor_check(g, rng):
    """The class-group benchmark's moved-divisor check: a Laplacian image
    with one chip moved is not principal, and its rank -1 certificate
    verifies."""
    src, dst = rng.sample(g.vertices, 2)
    d = cf.laplacian_apply(g, random_function(g, rng, -20, 20))
    d = d - cf.Divisor(g, {src: 1}) + cf.Divisor(g, {dst: 1})
    assert not cf.is_equivalent(g, d, cf.zero_divisor(g))
    result = cf.rank_with_certificate(g, d)
    assert result.rank == -1 and result.verify(g, d)


def test_moved_divisor_check_reduces_each_vector_once():
    """is_equivalent, rank_with_certificate and verify reduce through the
    graph's one rank session. On a class-group panel graph built afresh the
    moved-divisor check reduces D, 0 and nu - D once each: 3 reductions,
    not the 5 of a reducer called by each step (D and 0 for the
    equivalence, D for the rank, nu - D for the certificate's domination
    check and again in verify). After a principal check on the same graph
    object the zero vector's reduction is kept, and the check makes 2."""
    rng = random.Random("moved divisor")
    for principal_first, expected in ((False, 3), (True, 2)):
        g = cf.random_multigraph(45, 22, seed=1005)
        if principal_first:
            image = cf.laplacian_apply(g, random_function(g, rng, -20, 20))
            assert cf.is_equivalent(g, image, cf.zero_divisor(g))
        with mock.patch.object(
            rank_module, "reduce_vector", wraps=rank_module.reduce_vector
        ) as in_session, mock.patch.object(
            divisors, "reduce_vector", wraps=divisors.reduce_vector
        ) as direct:
            _moved_divisor_check(g, rng)
        assert (in_session.call_count, direct.call_count) == (expected, 0)


def test_far_order_is_built_on_the_first_search():
    """A graph object's rank session sorts its vertices on its first
    search, not before: is_equivalent, is_winnable and q_reduce never
    search, and leave the far order unbuilt. The first rank builds it, in
    the order _far_order gives, and a second rank finds it built."""
    g = cf.random_multigraph(8, 4, seed=3)
    d = cf.Divisor(g, {g.vertices[-1]: 2, g.vertices[1]: -1})
    assert cf.is_equivalent(g, d, d)
    cf.is_winnable(g, d)
    cf.q_reduce(g, d, g.vertices[0])
    assert g._rank_memos[3] == []
    cf.rank(g, d)
    cf.rank(g, d + d)
    assert g._rank_memos[3] == [rank_module._far_order(g)]


def test_verify_gives_the_same_verdict_on_a_fresh_graph():
    """verify reads the memo of the graph object it is handed. A certificate
    made on g, intact or tampered, gets the same verdict there as on a fresh
    equal graph object, which reduces every vector from nothing, for
    certificates of both kinds."""
    rng = random.Random("verify on a fresh graph")
    kinds = set()
    for trial in range(30):
        g = cf.random_multigraph(2 + trial % 4, trial % 4, seed=trial)
        d = random_divisor(g, rng, -2, 3)
        res = cf.rank_with_certificate(g, d)
        kinds.add(res.rank >= 0)
        q = cf.Divisor(g, {g.vertices[0]: 1})
        if res.rank >= 0:
            variants = [
                dataclasses.replace(res, effective_witness=res.effective_witness + q),
                dataclasses.replace(res, failing_evidence=res.failing_evidence - q),
                dataclasses.replace(res, rank=res.rank - 1, failing_evidence=q),
            ]
        else:
            order = res.nu_ordering[::-1]
            variants = [
                dataclasses.replace(res, nu_ordering=order, nu=cf.nu_divisor(g, order)),
                dataclasses.replace(res, nu=res.nu - q),
            ]
        assert res.verify(g, d)
        for cert in [res, *variants]:
            fresh = cf.MultiGraph(g.vertices, g.edges)
            assert cert.verify(fresh, d) == cert.verify(g, d), (trial, cert)
    assert kinds == {True, False}


# -- Riemann-Roch -------------------------------------------------------------


def _deep_q_rank(g):
    qg = cf.QGraph.unit(g)
    return cf.q_rank(qg, cf.QDivisor(qg, {qg.vertex_point("Q1"): 5000}))


@pytest.mark.parametrize(
    "search",
    [
        # the search for failing evidence at rank + 1
        lambda g: cf.rank_with_certificate(g, cf.Divisor(g, {"Q1": 2000})),
        # the metric high-degree audit
        _deep_q_rank,
        # "rank >= r" for a g^r_d
        lambda g: cf.min_degree_grd(g, 3000, 3002),
    ],
    ids=["rank_with_certificate", "q_rank", "min_degree_grd"],
)
def test_too_deep_search_is_typed_error(search):
    """The search recurses once per level: past the interpreter's recursion
    limit it raises SearchDepthError; well inside it, the value stands."""
    g = cf.banana_graph(3)
    with pytest.raises(cf.SearchDepthError, match="recursion limit"):
        search(g)
    assert cf.rank_with_certificate(g, cf.Divisor(g, {"Q1": 500})).rank == 498


def test_high_degree_rank_needs_no_deep_search():
    """Above 2g - 2 the finite-graph audit reduces once per effective class,
    so the forced rank stands at any number of chips."""
    g = cf.banana_graph(3)
    assert cf.rank(g, cf.Divisor(g, {"Q1": 990})) == 988
    report = cf.riemann_roch_check(g, cf.Divisor(g, {"Q1": 2000}))
    assert (report.rank, report.equal) == (1998, True)
    assert cf.rank(g, cf.Divisor(g, {"Q1": 5000})) == 4998


def test_rr_banana_pair():
    g = cf.banana_graph(3)
    rep = cf.riemann_roch_check(g, cf.Divisor(g, {"Q1": 1, "Q2": 1}))
    assert (rep.rank, rep.canonical_minus_rank) == (1, 0)
    assert rep.lhs == rep.rhs == 1
    assert rep.equal


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rr_canonical_rank_is_genus_minus_one(seed):
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    k = cf.canonical_divisor(g)
    assert cf.rank(g, k) == cf.genus(g) - 1


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_rr_identity_random(seed):
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 5, seed % 6, seed=seed)
    d = random_divisor(g, rng, -2, 3)
    assert cf.riemann_roch_check(g, d).equal


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_duality_differential(seed):
    """rank() goes through K - D exactly when g <= deg D <= 2g - 2. Its
    value must match the direct search and the oracle, and the search must
    start from K - D inside that range and from D outside it; above 2g - 2
    that start is the high-degree audit."""
    rng = random.Random(seed)
    g = cf.random_multigraph(2 + seed % 3, 1 + seed % 3, seed=seed)
    gg = cf.genus(g)
    n = len(g.vertices)
    vec = [0] * n
    for _ in range(rng.randint(0, 2 * gg + 1)):
        vec[rng.randrange(n)] += 1
    vec[rng.randrange(n)] -= rng.randint(0, 2)
    d = cf.Divisor.from_vector(g, vec)
    deg = d.degree

    searched = []
    audited = []
    real_search = rank_module._rank_geq
    real_audit = rank_module._Session.audit_high_degree

    def recorded_search(sess, red, k):
        searched.append(red)
        return real_search(sess, red, k)

    def recorded_audit(sess, red, k):
        audited.append(red)
        return real_audit(sess, red, k)

    with (
        mock.patch.object(rank_module, "_rank_geq", recorded_search),
        mock.patch.object(rank_module._Session, "audit_high_degree", recorded_audit),
    ):
        value = cf.rank(g, d)
    assert value == _direct_rank(g, d) == rank_oracle(g, vec)
    dual = gg <= deg <= 2 * gg - 2
    start = cf.canonical_divisor(g) - d if dual else d
    started = audited + searched
    if started:
        assert started[0] == tuple(cf.q_reduce(g, start, g.vertices[0]).to_vector())
    assert audited or deg <= 2 * gg - 2, "the high-degree audit did not run"
    assert not (audited and searched), "the high-degree audit ran a search"


# -- complete graphs beyond brute force ----------------------------------------


def test_complete_graph_rank_matches_oracle():
    """The greedy rank on complete graphs equals the brute-force oracle on
    K4 (degrees up to 2g + 1) and K5 (up to 5, where the oracle stays
    fast), on seeded divisors and on the multiples of one vertex."""
    rng = random.Random("greedy")
    for n, count, top in ((4, 20, 7), (5, 8, 5)):
        g = cf.complete_graph(n)
        cases = [[k] + [0] * (n - 1) for k in range(top + 1)]
        for _ in range(count):
            vec = [0] * n
            for _ in range(rng.randint(0, top + 1)):
                vec[rng.randrange(n)] += 1
            vec[rng.randrange(n)] -= rng.randint(0, 1)
            cases.append(vec)
        for vec in cases:
            assert complete_graph_rank(vec) == rank_oracle(g, vec), vec


# One graph object per n, so the examples share its rank session, as the
# queries of one program on one graph do.
_COMPLETE = {n: cf.complete_graph(n) for n in range(6, 11)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_complete_graph_differential(seed):
    """On K6-K10, past the brute-force oracle's reach, the greedy rank
    must equal rank() (dual and Clifford-capped), the direct search,
    rank_with_certificate (re-verified) and both sides of
    riemann_roch_check. Degrees stay at most 2g - 2 except on K6-K7:
    above it the first audit on a graph walks all of Jac(K_n), n^(n-2)
    classes. A third of the divisors have degree near g - 1, where both D
    and K - D can have small rank, and a third degree at most n, where
    ranks -1 and 0 are common. A direct search costs about n^(r+1) nodes,
    so it runs only where the greedy rank is at most 2."""
    rng = random.Random(seed)
    n = 6 + seed % 5
    g = _COMPLETE[n]
    gg = cf.genus(g)
    top = 2 * gg + 2 if n <= 7 else 2 * gg - 2
    debt = rng.randint(0, 2)
    degree = rng.choice([
        rng.randint(-2, top), gg - 1 + rng.randint(-2, 2), rng.randint(-2, n)
    ])
    vec = [0] * n
    for _ in range(max(0, degree + debt)):
        vec[rng.randrange(n)] += 1
    vec[rng.randrange(n)] -= debt
    d = cf.Divisor.from_vector(g, vec)
    r = complete_graph_rank(vec)
    assert cf.rank(g, d) == r
    if r > 2:
        return
    assert _direct_rank(g, d) == r
    cert = cf.rank_with_certificate(g, d)
    assert cert.rank == r and cert.verify(g, d)
    r_k = complete_graph_rank([n - 3 - c for c in vec])  # K = (n - 3) per vertex
    if r_k <= 2:
        report = cf.riemann_roch_check(g, d)
        assert (report.rank, report.canonical_minus_rank, report.equal) == (r, r_k, True)
