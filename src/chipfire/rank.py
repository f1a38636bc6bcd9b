"""Divisor rank with verifiable certificates.

rank(D) is computed from its definition: search k = 0, 1, 2, ... and
test, for every effective divisor E of degree k, that D - E is equivalent
to an effective divisor. A caller that knows a rank-determining set may
restrict E to it. The per-E test goes through q-reduced representatives;
the answers "rank >= k" are memoized per graph on the reduced form, so
equivalent branches of the search are shared, and reductions on the part
away from q, since the coefficient at q only shifts their result. Every
finite query (rank, certificates and verify, g^r_d, gonality, Weierstrass
points, gaps, is_equivalent, is_winnable) on one MultiGraph object runs
in that graph's one session (_graph_session), so a reduction, a rank
bound or a superstable burning test that an earlier query on it made is
not made again. On a metric graph the session depends on the edge
lengths and lives for one call.

Riemann-Roch for graphs (Baker-Norine 2007) gives
r(D) = deg D - g + 1 + r(K - D). When g <= deg D <= 2g - 2, K - D has
the smaller degree and a search deg D - g + 1 levels shallower, so
rank(), the g^r_d enumeration and weierstrass_points search K - D
instead. At deg D = g - 1 both searches have the same depth and the dual
would only cost one more reduction; above 2g - 2 the value deg D - g is
forced, and the session audits it: one reduced member per effective class
of degree deg D - g, each one chip from an earlier one, or on a metric
graph the search. That audit walks all of Jac(G) whenever deg D - g >= g,
and its verdict then belongs to the graph, so the session keeps one
per-graph entry for it and audits such a degree once per graph object;
at deg D = 2g - 1 it stays per divisor.

The search loop stops where a bound already proves the next level fails.
On the paths that rest on Riemann-Roch (rank(), the exact rank of a g^r_d
witness, and semicontinuity_probe's ranks) that is Clifford's bound,
r(D) <= deg D / 2 for 0 <= deg D <= 2g - 2; the g^r_d enumeration skips
every degree below rank_degree_floor, its consequence. Callers that
check an identity the duality would assume keep the direct search, which
stops only at r(D) <= deg D, true by definition: riemann_roch_check
(both sides), rank_with_certificate (its failing evidence is read off
the direct search), gap_sequence (its gap count follows from
Riemann-Roch), and metric_rr_check and q_rank.

A divisor with negative rank carries an ordering certificate: the order
in which divisors._dhar_unburnt, the reducer's burning pass, burns its
q-reduced form yields a degree g-1 divisor that dominates it, which is
exactly what the dichotomy between "winnable" and "dominated by an
ordering divisor" requires.

The search for "rank >= k" recurses k levels deep; past the interpreter's
recursion limit it raises SearchDepthError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import SearchDepthError, _expect_iterable
from .graphs import MultiGraph, genus
from .divisors import (
    Divisor,
    _bound_vector,
    _dhar_unburnt,
    _superstable_steps,
    canonical_divisor,
    is_equivalent,
    is_winnable,
    reduce_vector,
)


# The geq_memo key of a high-degree audit that walked every superstable and
# passed: a verdict on the graph, not on one divisor (_Session.audit_high_degree).
_JACOBIAN_PASS = "every class of the Jacobian"


class _Session:
    """Memos of rank-bound queries on one graph: q-reduced forms keyed by
    the part away from q (reduce_memo), "rank >= k" per (reduced form, k)
    (geq_memo), and the burning test of each configuration a superstable
    walk tried (tested). _Session(g) starts them empty; _graph_session(g)
    shares the ones g keeps. Each entry is a function of the graph and its
    key alone, so sharing changes no answer and no walk order.

    The rank search subtracts chips at the graph's vertices, farthest
    from vertex 0 first by hop distance. A state is a tuple whose first n
    entries are the vertex coefficients; _reduce, degree and the audit are
    the only operations that read the rest. metric._MetricSession
    overrides them to carry the interior support of a divisor on a metric
    graph in one more entry, so on a metric graph the search subtracts
    chips only at the model vertices, a rank-determining set (Luo 2011).
    Here _reduce is divisors.reduce_vector, by one of its two routes: a
    search step (a reduced state minus one chip, so below 2|E| chips away
    from q) burns, lending through its burning pass; any other debt, and
    more than 2|E| chips, lowers to the max script with no burning pass.
    The metric session runs the lend-and-burn loop, with the same pass,
    on segments, and a search step there also ends when its lending has
    paid the debt.
    """

    __slots__ = ("graph", "n", "far_order", "geq_memo", "reduce_memo", "tested")

    def __init__(self, graph: MultiGraph, memos=None):
        """memos: the (geq_memo, reduce_memo, tested, far_order) to share, as
        _graph_session passes them; fresh ones by default. far_order is a
        list that holds the graph's _far_order once the first probe_order
        has built it, or from the start when the caller already has it."""
        self.graph = graph
        self.n = len(graph.vertices)
        self.geq_memo, self.reduce_memo, self.tested, self.far_order = (
            memos or ({}, {}, {}, [])
        )

    def reduced(self, vec_tuple, one_short=False):
        """The q-reduced form, memoized on the part away from q (vertex 0)."""
        key = vec_tuple[1:]
        hit = self.reduce_memo.get(key)
        if hit is None:
            red = self._reduce(vec_tuple, one_short)
            hit = self.reduce_memo[key] = (red[0] - vec_tuple[0], red[1:])
        return (vec_tuple[0] + hit[0],) + hit[1]

    def _reduce(self, vec_tuple, one_short):
        return tuple(reduce_vector(self.graph, list(vec_tuple), 0, one_short))

    def degree(self, red):
        return sum(red)

    def audit_high_degree(self, red, k):
        """r(D) >= k for a q-reduced D of degree k + g > 2g - 2. Whether
        D - E is winnable depends only on the class of E, so one E per
        effective class of degree k is tested: its q-reduced member
        (k - |c|)(q) + c, c superstable with |c| <= k. Each c is an earlier
        one plus a chip at v, so the reduced D - c is one _child step away,
        and D - E is winnable when it keeps k - |c| chips at q. The walk
        tests each configuration once per session (tested), and a pass is
        the answer to "r(D) >= k", so geq_memo keeps it.

        The reduced D - c is (deg D - |c| - |c'|)(q) + c' with c'
        superstable, so the test reads |c'| <= deg D - k. When k >= g and
        deg D - k = g, as rank() asks, the walk visits every superstable
        (all have size <= g), so [D] - [c] runs over all of Jac(G) and the
        verdict belongs to the graph: a pass is kept once per graph, under
        _JACOBIAN_PASS, and answers every later such call at once. At
        k = g - 1 the size-g configurations are skipped, so the verdict
        depends on D and stays per divisor."""
        gg = genus(self.graph)
        whole = k >= gg and sum(red) - k == gg
        memo = self.geq_memo
        if memo.get((red, k)) is True or (whole and _JACOBIAN_PASS in memo):
            return True
        path = [red]  # path[s]: reduced D - c for the last c of size s
        for c, v in _superstable_steps(self.graph, k, self.tested):
            s = sum(c)
            if s:
                path[s:] = [_child(self, path[s - 1], v)]
            if path[s][0] < k - s:
                return False
        memo[_JACOBIAN_PASS if whole else (red, k)] = True
        return True

    def probe_order(self, red):
        # Zero-coefficient vertices far from the base fail soonest. The far
        # order is built here, so queries that never search never sort.
        if not self.far_order:
            self.far_order.append(_far_order(self.graph))
        zeros = []
        rest = []
        for v in self.far_order[0]:
            (zeros if red[v] == 0 else rest).append(v)
        return zeros + rest


def _far_order(g: MultiGraph):
    """The vertex indices of g, farthest from vertex 0 first by hop distance."""
    dist = g.distances(0)
    return tuple(sorted(range(len(dist)), key=lambda v: -dist[v]))


def _graph_session(g: MultiGraph) -> _Session:
    """The finite rank session of g: a _Session on the memos and the
    far_order that g keeps in its _rank_memos slot, set on first use, so
    every query on one graph object shares its reductions, rank bounds and
    burning tests, and sorts the vertices once, on its first search. They
    hold int tuples and no reference to g, so they die with it."""
    memos = g._rank_memos
    if memos is None:
        memos = ({}, {}, {}, [])
        object.__setattr__(g, "_rank_memos", memos)
    return _Session(g, memos)


def _child(sess, red, v):
    """Reduced form of red minus one chip at v.

    Removing a chip from a positive coefficient (or from the base vertex,
    whose coefficient is unconstrained) keeps the divisor q-reduced, so
    only newly indebted vertices need an actual reduction, and that one
    chip of debt is repaid by lending, the burning pass run outward from
    the debtor (divisors.reduce_vector), with no confirming pass: lending
    ends on the reduced form. The session memo keys it by the part away from q.
    """
    vec = list(red)
    vec[v] -= 1
    if v == 0 or red[v] >= 1:
        return tuple(vec)
    return sess.reduced(tuple(vec), one_short=True)


def _rank_geq(sess, red, k):
    """Does every effective E of degree k leave |D - E| nonempty? red = reduced D.

    The memo holds True for a pass and, for a failure, the first vertex
    whose removal fails, so certificates can follow the failing chain.
    """
    if red[0] < 0:
        return False
    if k == 0:
        return True
    key = (red, k)
    memo = sess.geq_memo
    got = memo.get(key)
    if got is not None:
        return got is True
    result = True
    for v in sess.probe_order(red):
        if k == 1 and (red[v] >= 1 if v != 0 else red[0] >= 1):
            continue  # subtracting here stays effective
        if not _rank_geq(sess, _child(sess, red, v), k - 1):
            result = v
            break
    memo[key] = result
    return result is True


def _search(sess, red, k):
    """_rank_geq(sess, red, k) for an entry point of the search: a stack
    overflow becomes SearchDepthError here, once, not a check per node."""
    try:
        return _rank_geq(sess, red, k)
    except RecursionError:
        raise SearchDepthError(
            f"a rank search {k} levels deep exceeds the recursion limit"
            f" ({sys.getrecursionlimit()})"
        ) from None


def _rank_reduced(sess, red, clifford=False):
    """Exact rank of a q-reduced coefficient tuple.

    The search for r(D) >= k + 1 runs while k < deg D: removing deg D + 1
    chips leaves negative degree, so r(D) <= deg D by definition. With
    clifford it stops at deg D // 2 instead, by Clifford's bound
    r(D) <= deg D / 2 for an effective D of degree <= 2g - 2 (Baker-Norine
    2007; on metric graphs from Gathmann-Kerber 2008). Only the paths that
    already rest on Riemann-Roch pass it; an identity check keeps the
    bound that holds by definition."""
    if red[0] < 0:
        return -1
    deg = sess.degree(red)
    gg = genus(sess.graph)
    if deg > 2 * gg - 2:
        if not sess.audit_high_degree(red, deg - gg):
            raise AssertionError(
                "high-degree rank audit failed; the reduction engine is broken"
            )
        return deg - gg
    top = deg // 2 if clifford else deg
    k = 0
    while k < top and _search(sess, red, k + 1):
        k += 1
    return k


def _dual(sess, red):
    """(reduced K - D, deg D - g + 1) for a q-reduced D with
    g <= deg D <= 2g - 2, else (D, 0): in both cases
    r(D) = r(first) + second, by Riemann-Roch (Baker-Norine 2007)."""
    gg = genus(sess.graph)
    deg = sum(red)
    if not gg <= deg <= 2 * gg - 2:
        return red, 0
    degs = sess.graph.degrees()
    return sess.reduced(tuple(k - 2 - c for k, c in zip(degs, red))), deg - gg + 1


def _rank_at_least(sess, red, k):
    """r(D) >= k for a q-reduced D, searched on K - D when _dual says so."""
    red, shift = _dual(sess, red)
    return k - shift < 0 or _search(sess, red, k - shift)


def _rank_of(sess, red):
    """r(D) for a q-reduced D, searched on K - D when _dual says so, up to
    Clifford's bound."""
    red, shift = _dual(sess, red)
    return _rank_reduced(sess, red, clifford=True) + shift


def rank(g: MultiGraph, d: Divisor) -> int:
    """The rank of d: -1 if its class has no effective member, else the
    largest k such that removing any k chips leaves a winnable divisor.
    Searched on K - d when genus <= deg d <= 2 genus - 2 (Riemann-Roch)."""
    sess = _graph_session(g)
    return _rank_of(sess, sess.reduced(tuple(_bound_vector(g, d))))


def _direct_rank(g: MultiGraph, d: Divisor) -> int:
    """rank(g, d) by the search on d itself, never through K - d."""
    sess = _graph_session(g)
    return _rank_reduced(sess, sess.reduced(tuple(_bound_vector(g, d))))


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class RankResult:
    """Rank plus evidence that can be re-verified independently.

    For rank >= 0: an effective representative of |D|, and an effective E
    of degree rank+1 with |D - E| empty. For rank == -1: a vertex ordering
    whose associated degree g-1 divisor dominates D up to equivalence.
    """

    rank: int
    effective_witness: Divisor | None
    failing_evidence: Divisor | None
    nu_ordering: tuple | None
    nu: Divisor | None

    def verify(self, g: MultiGraph, d: Divisor) -> bool:
        """Re-check every claim. The equivalence and winnability tests read
        g's rank session, so a vector reduced on this graph object before
        (by rank_with_certificate, say) is not reduced again. A memo hit is
        what a fresh reduction would return: the q-reduced form is unique,
        the memo keeps the reducer's output for the part away from q, and
        the coefficient at q only shifts it. A tampered certificate brings
        other vectors, decided by their own reduced forms, and a graph
        object built afresh re-checks from nothing."""
        if self.rank >= 0:
            if self.effective_witness is None or self.failing_evidence is None:
                return False
            if not self.effective_witness.is_effective():
                return False
            if not is_equivalent(g, self.effective_witness, d):
                return False
            if self.failing_evidence.degree != self.rank + 1:
                return False
            if not self.failing_evidence.is_effective():
                return False
            return not is_winnable(g, d - self.failing_evidence)
        if self.nu_ordering is None or self.nu is None:
            return False
        if sorted(self.nu_ordering) != sorted(g.vertices):
            return False
        if nu_divisor(g, self.nu_ordering) != self.nu:
            return False
        return is_winnable(g, self.nu - d)


def nu_divisor(g: MultiGraph, ordering) -> Divisor:
    """The degree g-1 divisor of a vertex ordering: at each vertex, one less
    than the number of edge ends leading to earlier vertices."""
    ordering = tuple(_expect_iterable(ordering, "vertex labels", ValueError))
    if sorted(ordering) != sorted(g.vertices):
        raise ValueError("ordering must be a permutation of the vertex set")
    position = {v: i for i, v in enumerate(ordering)}
    coeffs = {v: -1 for v in g.vertices}
    for u, v in g.edges:
        later = u if position[u] > position[v] else v
        coeffs[later] += 1
    return Divisor(g, coeffs)


def _ordering_certificate(g, d_vec_reduced, d: Divisor):
    """The burning order of the q-reduced form of d and its nu, which dominates d.

    _dhar_unburnt appends a vertex after q only once its edges to earlier
    vertices exceed its chips, so nu >= D there; at q, nu(q) = -1 >= D(q)
    when D has rank -1. A vector that does not burn through is not reduced.
    """
    n = len(g.vertices)
    members, _, _ = _dhar_unburnt(g.adjacency(), d_vec_reduced, 0, n)
    if len(members) != n:
        raise AssertionError("vector is not q-reduced: burning stalled")
    ordering = tuple(g.vertices[i] for i in members)
    nu = nu_divisor(g, ordering)
    if not is_winnable(g, nu - d):
        raise AssertionError("burning-order nu does not dominate; engine is broken")
    return ordering, nu


def rank_with_certificate(g: MultiGraph, d: Divisor) -> RankResult:
    """rank(g, d) together with re-verifiable evidence for the value."""
    sess = _graph_session(g)
    red = sess.reduced(tuple(_bound_vector(g, d)))
    value = _rank_reduced(sess, red)
    if value == -1:
        ordering, nu = _ordering_certificate(g, red, d)
        return RankResult(
            rank=-1,
            effective_witness=None,
            failing_evidence=None,
            nu_ordering=ordering,
            nu=nu,
        )
    # The high-degree branch never searches rank + 1, so search it here;
    # the memo then records the first failing vertex at every step.
    if _search(sess, red, value + 1):
        raise AssertionError("no failing evidence at rank+1; engine is broken")
    failing = [0] * len(g.vertices)
    node, k = red, value + 1
    while node[0] >= 0:
        v = sess.geq_memo[(node, k)]
        failing[v] += 1
        node, k = _child(sess, node, v), k - 1
    failing[0] += k  # a chain that empties the class early is padded at q
    return RankResult(
        rank=value,
        effective_witness=Divisor.from_vector(g, list(red)),
        failing_evidence=Divisor.from_vector(g, failing),
        nu_ordering=None,
        nu=None,
    )


# -- Riemann-Roch -------------------------------------------------------------


@dataclass(frozen=True)
class RiemannRochReport:
    degree: int
    genus: int
    rank: int
    canonical_minus_rank: int
    lhs: int
    rhs: int
    equal: bool


def _riemann_roch_report(degree, gg, r_d, r_kd) -> RiemannRochReport:
    lhs = r_d - r_kd
    rhs = degree + 1 - gg
    return RiemannRochReport(
        degree=degree,
        genus=gg,
        rank=r_d,
        canonical_minus_rank=r_kd,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
    )


def riemann_roch_check(g: MultiGraph, d: Divisor) -> RiemannRochReport:
    """Evaluate both sides of r(D) - r(K - D) = deg(D) + 1 - g independently,
    each by the direct search, so the check never assumes what it tests."""
    r_d = _direct_rank(g, d)
    r_kd = _direct_rank(g, canonical_divisor(g) - d)
    return _riemann_roch_report(d.degree, genus(g), r_d, r_kd)
