"""Divisor arithmetic, the Laplacian, and q-reduced normal forms.

A divisor is an integer vector indexed by the vertices of a fixed graph;
linear equivalence is difference by a Laplacian image. Equality of classes
is decided through the unique q-reduced representative, reached by one of
two routes, read off the input away from q: burn or max-script.

- Burn. At most one chip of debt, at one vertex v (what the rank search
  produces when it removes a chip from a reduced divisor), and at most
  sum(deg) = 2|E| chips: while v is in debt, unfire the set that burns
  outward from v with q fireproof (lending), then Dhar-burn from q and
  fire the unburnt set as often as it legally can, until everything
  burns. After lending on a reduced divisor minus one chip that pass
  fires nothing, and rank skips it.
- Max-script. Every other input: fire the rounded-down exact solution
  x = floor(L_q^-1 D_q) of the reduced-Laplacian system (Baker-Shokrieh
  2013) through a sparse fraction-free factor of L_q cached per graph and
  root, then unfire each remaining debtor as often as it needs. Legal
  firing scripts are closed under max, and every step stays above the
  largest one, whose result is the q-reduced form, so no burning pass
  runs at all (the lemma at _lower_to_max_script), and large inputs skip
  the thousands of burning passes that would each move chips one step.

_dhar_unburnt is the one burning pass behind lending and burning, the
superstable enumeration, metric reduction and the burning order of
rank's ordering certificate.

At the first vertex q_reduce, is_equivalent and is_winnable reduce through
the graph's rank session (rank._Session.reduced, the one memoized
reduction), so no vector is reduced twice on one graph object.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import DivisorError, MissingVertexError, UnboundVertexError, _expect
from .graphs import MultiGraph


class _DivisorCore:
    """Immutable integer combination of the points of one carrier: the
    vertices of a MultiGraph (Divisor) or the rational points of a QGraph
    (QDivisor).

    Coefficients are arbitrary-precision ints; absent points are zero.
    Subclasses name their carrier's type in _carrier_kind, validate and
    canonicalize points in _point and list them in canonical order in
    items(); everything else, +, -, negation and integer scaling included,
    is shared.
    """

    __slots__ = ("_carrier", "_coeffs")

    def __init__(self, carrier, coeffs=None):
        _expect(carrier, self._carrier_kind, DivisorError)
        object.__setattr__(self, "_carrier", carrier)
        clean = {}
        if coeffs is not None:
            _expect(coeffs, Mapping, DivisorError)
        if coeffs:
            canonical = self._point
            for point, value in coeffs.items():
                point = canonical(carrier, point)
                if type(value) is not int:  # bool, float, str, ... are never coerced
                    raise DivisorError(
                        f"coefficient of {point!r} must be an int, got {value!r}"
                    )
                if value:
                    # Two inputs may name one point (a QPoint at an edge end
                    # is that vertex), so coefficients add up and may cancel.
                    value += clean.get(point, 0)
                    if value:
                        clean[point] = value
                    else:
                        del clean[point]
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, point):
        return self._coeffs.get(self._point(self._carrier, point), 0)

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        if self._carrier is not other._carrier and self._carrier != other._carrier:
            raise UnboundVertexError("divisors bound to different graphs")
        coeffs = dict(self._coeffs)
        for p, c in other._coeffs.items():
            coeffs[p] = coeffs.get(p, 0) + sign * c
        return type(self)(self._carrier, coeffs)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self._carrier, {p: -c for p, c in self._coeffs.items()})

    def __rmul__(self, k):
        if type(k) is not int:
            return NotImplemented
        return type(self)(self._carrier, {p: k * c for p, c in self._coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._carrier == other._carrier and self._coeffs == other._coeffs

    def __hash__(self):
        # Equal carriers may be distinct objects, so the carrier stays out of
        # the hash; __eq__ tells divisors on different carriers apart.
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        name = type(self).__name__
        if not self._coeffs:
            return f"{name}(0)"
        return f"{name}(" + " + ".join(f"{c}({p})" for p, c in self.items()) + ")"


class Divisor(_DivisorCore):
    """Sparse integer vector on the vertices of a bound MultiGraph."""

    __slots__ = ()
    _carrier_kind = MultiGraph

    @property
    def graph(self) -> MultiGraph:
        return self._carrier

    @staticmethod
    def _point(graph, label):
        if not graph.has_vertex(label):
            raise UnboundVertexError(f"vertex {label!r} not in graph")
        return label

    def items(self):
        """Nonzero (label, coefficient) pairs in canonical vertex order."""
        return [
            (v, self._coeffs[v]) for v in self._carrier.vertices if v in self._coeffs
        ]

    def to_json_dict(self):
        return dict(self.items())

    def to_vector(self):
        """Dense coefficient list in canonical vertex order."""
        return [self._coeffs.get(v, 0) for v in self._carrier.vertices]

    @classmethod
    def from_vector(cls, graph, vec):
        return cls(graph, {graph.vertices[i]: c for i, c in enumerate(vec) if c})


def _bound_vector(g: MultiGraph, d: Divisor):
    """d.to_vector(), provided d is bound to g or to a graph equal to it;
    otherwise its vector would be read in another vertex order."""
    _expect(d, Divisor, DivisorError)
    if d.graph is not g and d.graph != g:
        raise UnboundVertexError("divisor is bound to a different graph")
    return d.to_vector()


def divisor_of_vertex(graph: MultiGraph, label, coeff=1) -> Divisor:
    return Divisor(graph, {label: coeff})


def zero_divisor(graph: MultiGraph) -> Divisor:
    return Divisor(graph, {})


# -- Laplacian ---------------------------------------------------------------


def laplacian_apply(g: MultiGraph, f) -> Divisor:
    """Apply the Laplacian to an integer vertex function.

    f maps every vertex label to an int, and nothing else; the result sums
    (f(v) - f(w)) over all edge ends at v and always has degree zero. Values
    are never coerced, as in a Divisor.
    """
    _expect(f, Mapping, DivisorError)
    for label in f:
        if not g.has_vertex(label):
            raise UnboundVertexError(f"vertex {label!r} not in graph")
    vals = []
    for v in g.vertices:
        if v not in f:
            raise MissingVertexError(f"function missing vertex {v!r}")
        if type(f[v]) is not int:  # bool, float, str, ... are never coerced
            raise DivisorError(f"value at {v!r} must be an int, got {f[v]!r}")
        vals.append(f[v])
    adj = g.adjacency()
    coeffs = {}
    for i, v in enumerate(g.vertices):
        total = 0
        for j, mult in adj[i]:
            total += mult * (vals[i] - vals[j])
        if total:
            coeffs[v] = total
    return Divisor(g, coeffs)


# -- q-reduction (hot path: plain int lists, no Divisor objects) -------------


def _dhar_unburnt(adj, vec, q, n, source=None):
    """One burning pass from source (q by default), in which q never burns
    unless it is the source; returns (members in burning order, burnt
    flags, threat). v burns once threat[v], its edges into the burnt
    region, exceeds vec[v]. Burning is a monotone closure, so the walk
    order cannot change the burnt set.
    """
    if source is None:
        source = q
    burnt = bytearray(n)
    burnt[source] = 1
    threat = [0] * n
    members = [source]
    for u in members:  # the list grows while it is walked
        for j, mult in adj[u]:
            if not burnt[j]:
                threat[j] += mult
                if threat[j] > vec[j] and j != q:
                    burnt[j] = 1
                    members.append(j)
    return members, burnt, threat


def superstable_configs(g: MultiGraph, max_size=None, _tested=None):
    """Yield all superstable configurations as dense tuples (base entry 0).

    A configuration is superstable when burning from the base vertex
    consumes the whole graph. Subconfigurations of superstable ones are
    superstable, so a failed extension cuts its branch. Configurations come
    in lexicographic order of their entries, found by a loop rather than by
    recursion, so the vertex count is not bounded by the recursion limit.
    A walk keeps nothing but its current configuration; _tested is the
    burning-test memo of a rank session (see _superstable_steps).
    """
    yield from (config for config, _ in _superstable_steps(g, max_size, _tested))


def _superstable_steps(g: MultiGraph, max_size, tested=None):
    """superstable_configs as (config, v) pairs: each config but the zero
    one (v = 0) is the last one of one chip fewer plus a chip at v.

    tested, if given, maps each configuration tried to its burning test's
    outcome: a test found there is not run again, and one run is recorded
    there. The walk and what it yields are the same either way."""
    n = len(g.vertices)
    adj = g.adjacency()
    degs = g.degrees()
    if max_size is None:
        max_size = sum(degs[i] - 1 for i in range(1, n))
    if max_size < 0:
        return
    vec = [0] * n
    total = 0
    yield tuple(vec), 0
    pos = n - 1
    while pos:
        # Raise the last entry that can still grow; every entry after it is
        # zero, and zero needs no new check.
        if vec[pos] < degs[pos] - 1 and total < max_size:
            vec[pos] += 1
            config = tuple(vec)
            burns = None if tested is None else tested.get(config)
            if burns is None:
                burns = len(_dhar_unburnt(adj, vec, 0, n)[0]) == n
                if tested is not None:
                    tested[config] = burns
            if burns:
                total += 1
                yield config, pos
                pos = n - 1
                continue
            vec[pos] -= 1  # larger values fail too
        total -= vec[pos]
        vec[pos] = 0
        pos -= 1


def _adjugate_times(g: MultiGraph, vec, q):
    """(det L_q, Y) with Y = adj(L_q) D_q, Y(q) = 0, from the cached factor
    of g.reduced_factor(q), without building the adjugate.

    Forward: carry D_q through the factor's elimination as one more column,
    rescaled lazily like its rows, to D'. Back: the factor rows U satisfy
    U Y = det * D' exactly, so Y(v) = (det D'(v) - sum a Y(j)) // pivot is
    an exact division.
    """
    det, steps = g.reduced_factor(q)
    b = list(vec)
    level = [0] * len(b)
    pivots = [1]
    for k, (p, pivot, row) in enumerate(steps):
        prev = pivots[k]
        bp = b[p] = b[p] * prev // pivots[level[p]]
        for j, a in row:
            x = b[j]
            if level[j] != k:
                x = x * prev // pivots[level[j]]
            b[j] = (pivot * x - a * bp) // prev
            level[j] = k + 1
        pivots.append(pivot)
    y = [0] * len(b)
    for p, pivot, row in reversed(steps):
        y[p] = (det * b[p] - sum(a * y[j] for j, a in row)) // pivot
    return det, y


def _fire_floor_potential(g: MultiGraph, vec, q):
    """Set vec to D - L x for x = floor(L_q^-1 D_q) and x(q) = 0, i.e. fire
    each vertex v != q x(v) times (Baker-Shokrieh 2013).

    With y the exact solution of L_q y = D_q, the coefficients away from q
    become L_q (y - x) with y - x in [0, 1) everywhere, so each lies strictly
    between -deg(v) and deg(v). x is computed in integers as
    floor(adj(L_q) D_q / det L_q) by _adjugate_times.
    """
    det, y = _adjugate_times(g, vec, q)
    adj = g.adjacency()
    for i, yi in enumerate(y):
        x = yi // det
        if x:
            for j, mult in adj[i]:
                vec[i] -= x * mult
                vec[j] += x * mult


def _lower_to_max_script(g: MultiGraph, vec, q):
    """q-reduce vec in place and return it: fire
    x = floor(L_q^-1 D_q), then unfire each debtor v ceil(-vec[v] / deg v)
    times until none is left. No burning pass runs.

    Lemma. Call an integer vector f with f(q) = 0 legal for D when D - L f is
    nonnegative away from q. The largest legal f* exists, x >= f*, and
    D - L f* is the q-reduced form of D; if f >= f* and (D - L f)(v) < 0 at
    some v != q, then f - ceil(-(D - L f)(v) / deg v) 1_v >= f* still. Proof:
    if f and f' are legal, so is h = max(f, f'): at v with h(v) = f(v),
    (L h)(v) <= (L f)(v) since h >= f at the neighbours. Every legal f has
    L_q f_q <= D_q, and L_q^-1 is entrywise nonnegative, so f <= x, an
    integer bound; and some f is legal (every class has a member that is
    nonnegative away from q). So f* exists, and D - L f* is q-reduced: a
    nonempty set A avoiding q that could fire legally from it would make
    f* + 1_A legal. For the step, let u = f - f* >= 0. Then
    0 <= (D - L f*)(v) = (D - L f)(v) + deg(v) u(v) - sum of u over the
    neighbours of v <= (D - L f)(v) + deg(v) u(v), so u(v) is at least the
    number of unfirings. Each round lowers f, which stays >= f*, so the loop
    stops; it stops when f is legal, that is at f = f*. This is the least
    action principle (Fey-Levine-Peres 2010) run from above.
    """
    _fire_floor_potential(g, vec, q)
    adj = g.adjacency()
    degs = g.degrees()
    # x moved chips, so the debtors are found again; a vertex joins the
    # worklist when it falls into debt and is out of debt when it leaves.
    debtors = [i for i in range(len(vec)) if vec[i] < 0 and i != q]
    while debtors:
        v = debtors.pop()
        t = (degs[v] - 1 - vec[v]) // degs[v]
        vec[v] += t * degs[v]
        for j, mult in adj[v]:
            c = vec[j]
            vec[j] = c - t * mult
            if c >= 0 > vec[j] and j != q:
                debtors.append(j)
    return vec


def reduce_vector(g: MultiGraph, vec, q=0, _one_short=False):
    """q-reduce a dense coefficient list in place and return it; vec[q] + a
    reduces to the same plus a at q. With _one_short (a q-reduced divisor
    minus one chip away from q) lending ends on the reduced form: no pass from q."""
    n = len(g.vertices)
    if n == 1:
        return vec
    debtors = [i for i in range(n) if vec[i] < 0 and i != q]
    # Below 2|E| chips away from q, burning has only a bounded amount of
    # work left; every other input lowers to the max script.
    if (len(debtors) > 1 or debtors and vec[debtors[0]] != -1
            or sum(vec) - vec[q] > 2 * len(g.edges)):
        return _lower_to_max_script(g, vec, q)
    v = debtors[0] if debtors else q  # the vertex lent to; q when none owes
    adj = g.adjacency()
    while True:
        source = v if vec[v] < 0 else q
        if _one_short and source != v:
            return vec
        members, burnt, threat = _dhar_unburnt(adj, vec, q, n, source)
        if source == q:
            if len(members) == n:
                return vec
            # Fire the whole unburnt set the largest number of times that
            # keeps it nonnegative; legal because threat[w] <= vec[w] on it.
            frontier = (w for w in range(n) if threat[w] and not burnt[w])
            t = max(1, min(vec[w] // threat[w] for w in frontier))
        else:
            # Lend to v, the only debt away from q: unfire once the set A
            # that burnt from v, which q never joins. That moves one chip
            # along every edge from outside A into A, so a vertex outside A
            # other than q loses at most what it holds, A only gains, and
            # only v and q can owe.
            #
            # Lemma. Let C be a vector of this kind and t >= 0 an integer vector for
            # which C + L t (C with every vertex w unfired t(w) times) is nonnegative
            # away from q. Then t >= 1 on A. Proof: C(v) < 0 <= (C + L t)(v) forces
            # t(v) to exceed the value of t at some neighbour, so t(v) >= 1. If w
            # were the first vertex to join A with t(w) = 0, then
            # (C + L t)(w) = C(w) - sum of t over the neighbours of w
            # <= C(w) - (edges from w into A) < 0, with w != q: a contradiction.
            # So t - 1_A is again such a vector, and rounds repeated until v is out
            # of debt stop after at most t(v) of them; this is the least action
            # principle of chip-firing (Fey-Levine-Peres 2010) for unfiring.
            #
            # Corollary. If D = C + (v) is q-reduced, lending ends on the q-reduced
            # form R = C + L t of C (t(q) = 0) itself, after exactly t(v) rounds. A
            # vector S nonnegative away from q reaches its q-reduced form by Dhar
            # firings of sets avoiding q, i.e. as S - L f with f >= 0 and f(q) = 0.
            # Applied to S = R + (v), whose reduced form is D = R + (v) - L t, this
            # gives t >= 0 (t - f vanishes at q and L (t - f) = 0), so the lemma
            # applies. Lending stops at S = R - L u with u >= 0 and u(q) = 0, and
            # applied to that S, R = S - L f gives u = -f, so u = f = 0.
            t = 1
        # Firing the unburnt set t times is unfiring the burnt one t times.
        for u in members:
            for j, mult in adj[u]:
                if not burnt[j]:
                    vec[u] += t * mult
                    vec[j] -= t * mult


def _base_reduced(g: MultiGraph, vec):
    """The q-reduced form of vec at the first vertex, as a tuple, from g's
    rank session."""
    from .rank import _graph_session  # rank imports this module

    return _graph_session(g).reduced(tuple(vec))


def q_reduce(g: MultiGraph, d: Divisor, q) -> Divisor:
    """The unique divisor equivalent to d that is q-reduced.

    Nonnegative away from q, and no nonempty vertex set avoiding q can fire
    without driving one of its members negative. At the first vertex it is
    read from g's rank session (_base_reduced).
    """
    qi = g.index(q)
    vec = _bound_vector(g, d)
    if qi:
        reduce_vector(g, vec, qi)
    else:
        vec = _base_reduced(g, vec)
    return Divisor.from_vector(g, vec)


def is_q_reduced(g: MultiGraph, d: Divisor, q) -> bool:
    qi = g.index(q)
    vec = _bound_vector(g, d)
    if any(vec[i] < 0 for i in range(len(vec)) if i != qi):
        return False
    members, _, _ = _dhar_unburnt(g.adjacency(), vec, qi, len(vec))
    return len(members) == len(vec)


def is_equivalent(g: MultiGraph, d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence: equal degree and equal q-reduction at the first
    vertex, each read from g's rank session (_base_reduced)."""
    v1 = _bound_vector(g, d1)
    v2 = _bound_vector(g, d2)
    if sum(v1) != sum(v2):
        return False
    return v1 == v2 or _base_reduced(g, v1) == _base_reduced(g, v2)


def is_winnable(g: MultiGraph, d: Divisor) -> bool:
    """True iff d is equivalent to an effective divisor: its q-reduction at
    the first vertex, read from g's rank session, keeps q out of debt."""
    return _base_reduced(g, _bound_vector(g, d))[0] >= 0


def canonical_divisor(g: MultiGraph) -> Divisor:
    """Coefficient deg(v) - 2 at every vertex; degree 2*genus - 2."""
    degs = g.degrees()
    return Divisor(
        g, {v: degs[i] - 2 for i, v in enumerate(g.vertices) if degs[i] != 2}
    )
