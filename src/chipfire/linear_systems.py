"""Linear-system queries built on the rank engine.

Degree-minimal systems of given rank, gonality, hyperellipticity,
Weierstrass points and gap sequences. Searches enumerate one q-reduced
representative per divisor class: the part away from the base vertex
ranges over superstable configurations, which are closed downward, so the
enumeration prunes by a single burning test per extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError
from .graphs import MultiGraph, genus
from .divisors import Divisor, superstable_configs
from .rank import _graph_session, _rank_at_least, _rank_of, _rank_reduced


@dataclass(frozen=True)
class GrdWitness:
    """A divisor realizing a linear system of the recorded degree and rank."""

    divisor: Divisor
    degree: int
    rank: int


def _witness_at_degree(sess, g, r, d):
    """Some divisor class of degree exactly d with rank >= r, or None.

    Whether such a class exists is monotone in d: adding chips at the base
    vertex never lowers rank. Only configurations of size at most d - r
    can carry rank r: if r(D) >= r, then D - r(q) is winnable and still
    q-reduced, so the reduced form of D has at least r chips at q. Below
    rank_degree_floor(genus, r) no class has rank r, so none is enumerated.
    """
    if d < rank_degree_floor(genus(g), r):
        return None
    for config in superstable_configs(g, max_size=d - r, _tested=sess.tested):
        vec = list(config)
        vec[0] = d - sum(config)
        red = tuple(vec)  # superstable away from base: already reduced
        if _rank_at_least(sess, red, r):
            exact = _rank_of(sess, red)
            return GrdWitness(
                divisor=Divisor.from_vector(g, vec), degree=d, rank=exact
            )
    return None


def exists_grd_witness(g: MultiGraph, r: int, d: int):
    """A witness of degree exactly d and rank >= r if one exists, else None."""
    for name, value in (("r", r), ("d", d)):
        if type(value) is not int or value < 0:  # a bool is refused too
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    return _witness_at_degree(_graph_session(g), g, r, d)


def min_degree_grd(g: MultiGraph, r: int, d_max: int):
    """The minimal-degree linear system of rank exactly r, searching d <= d_max.

    Every divisor class of each candidate degree is visited once through
    its reduced representative; at the minimal degree any witness has rank
    exactly r, since otherwise removing well-chosen vertices would produce
    a smaller witness.
    """
    for name, value in (("r", r), ("d_max", d_max)):
        if type(value) is not int or value < 1:  # a bool is refused too
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    sess = _graph_session(g)
    for d in range(max(r, 1), d_max + 1):
        witness = _witness_at_degree(sess, g, r, d)
        if witness is not None:
            if witness.rank != r:
                raise AssertionError(
                    f"minimal-degree witness has rank {witness.rank}, expected {r}"
                )
            return witness
    return None


def rank_degree_floor(graph_genus: int, r: int) -> int:
    """Least degree any rank-r divisor can have on a genus-g graph.

    Either the divisor is nonspecial (degree g + r) or Clifford's bound
    r <= deg/2 applies, and the special route only exists for r <= g - 1.
    """
    if r <= graph_genus - 1:
        return min(graph_genus + r, 2 * r)
    return graph_genus + r


def gonality(g: MultiGraph) -> int:
    """Least degree of a rank-1 system; at most genus+1, which bounds the search."""
    witness = min_degree_grd(g, 1, genus(g) + 1)
    if witness is None:
        raise AssertionError("no rank-1 divisor of degree <= genus+1; engine broken")
    return witness.degree


def is_hyperelliptic(g: MultiGraph) -> bool:
    """Genus at least 2 and a degree-2 rank-1 system."""
    return genus(g) >= 2 and gonality(g) == 2


def weierstrass_points(g: MultiGraph):
    """Vertices P with rank(genus * (P)) >= 1, in canonical order. For
    genus >= 2 that degree is special, and by Riemann-Roch the test is
    whether K - genus * (P) is winnable."""
    gg = genus(g)
    sess = _graph_session(g)
    found = []
    for i, label in enumerate(g.vertices):
        vec = [0] * len(g.vertices)
        vec[i] = gg
        red = sess.reduced(tuple(vec))
        if _rank_at_least(sess, red, 1):
            found.append(label)
    return tuple(found)


def gap_sequence(g: MultiGraph, p):
    """Sorted Weierstrass gaps of p: the k in [1, 2g-1] where the rank of
    k*(p) does not grow; there are always exactly genus of them."""
    gg = genus(g)
    if gg < 1:
        raise ValueError("gap sequences need genus >= 1")
    pi = g.index(p)
    sess = _graph_session(g)
    n = len(g.vertices)
    ranks = []
    for k in range(0, 2 * gg):
        vec = [0] * n
        vec[pi] = k
        ranks.append(_rank_reduced(sess, sess.reduced(tuple(vec))))
    gaps = [k for k in range(1, 2 * gg) if ranks[k] == ranks[k - 1]]
    if len(gaps) != gg:
        raise AssertionError(
            f"gap count {len(gaps)} != genus {gg}; the rank engine is broken"
        )
    return gaps


def is_residual_tree_vertex(g: MultiGraph, v) -> bool:
    """True when deleting v and its edges leaves a tree (so v is never a
    Weierstrass point). With |E| = |V| - 1 edges left, the rest is a tree
    exactly when it is connected, which MultiGraph checks on construction."""
    if genus(g) < 2:
        raise ValueError("residual-tree criterion needs genus >= 2")
    g.index(v)  # an unknown vertex is a GraphError
    edges = [e for e in g.edges if v not in e]
    if len(edges) != len(g.vertices) - 2:
        return False
    try:
        MultiGraph([w for w in g.vertices if w != v], edges)
    except DisconnectedError:
        return False
    return True
