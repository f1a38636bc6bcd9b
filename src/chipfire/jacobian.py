"""Integer linear algebra over the graph Laplacian.

Jacobian group structure via Smith normal form: the ±1 pivots of L_q are
eliminated on sparse rows, the core left is eliminated modulo its own
determinant D (the lattice it spans contains D Z^m, so a unit of Z/D gives
a factor of 1), and the dense SNF runs only on a residual block with no
unit mod D. Its class coordinates are an equivalence oracle independent
of the chip-firing machinery. The spanning-tree count is det L_q from the
reducer's own factor, the sparse fraction-free elimination of L_q that
MultiGraph.reduced_factor caches, so Kirchhoff's |Jac(G)| = det L_q
compares the Smith normal form with the elimination the reducer solves
through, and a graph whose trees were counted is not eliminated again by
its first max-script reduction. Everything is exact arbitrary-precision
integer arithmetic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import NonzeroDegreeError
from .graphs import MultiGraph
from .divisors import Divisor, _bound_vector


def reduced_laplacian(g: MultiGraph, q):
    """Laplacian matrix with the row and column of q deleted.

    Diagonal entries are vertex degrees, off-diagonal entries are minus the
    edge multiplicities; rows/columns follow canonical vertex order with q
    skipped.
    """
    qi = g.index(q)
    keep = [i for i in range(len(g.vertices)) if i != qi]
    adj = g.adjacency()
    degs = g.degrees()
    mult = [dict(adj[i]) for i in range(len(g.vertices))]
    return [
        [degs[i] if i == j else -mult[i].get(j, 0) for j in keep] for i in keep
    ]


def smith_normal_form(matrix):
    """Smith normal form with transforms: returns (U, S, V) with U*M*V = S.

    U and V are unimodular; S is diagonal with each entry dividing the next.
    Pivots are chosen by least absolute value, with exact integer
    elimination throughout. The matrix must be rectangular with int
    entries (not bool); anything else raises ValueError naming the row.
    """
    s = [list(row) for row in matrix]
    n = len(s)
    cols = len(s[0]) if n else 0
    for r, row in enumerate(s):
        if len(row) != cols:
            raise ValueError(f"row {r} has {len(row)} entries, row 0 has {cols}")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"row {r} has a non-integer entry {x!r}")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(a, b):
        s[a], s[b] = s[b], s[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        for row in s:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]

    def add_row(src, dst, factor):
        s[dst] = [a + factor * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + factor * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in s:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(a):
        s[a] = [-x for x in s[a]]
        u[a] = [-x for x in u[a]]

    for t in range(min(n, cols)):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, cols):
                    x = s[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
                if best == 1:
                    break  # no entry is smaller, so the scan can stop
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(pi, t)
            if pj != t:
                swap_cols(pj, t)
            done = True
            for i in range(t + 1, n):
                if s[i][t] != 0:
                    add_row(t, i, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        done = False
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    add_col(t, j, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        done = False
            if not done:
                continue
            if s[t][t] in (1, -1):
                break  # a unit divides every entry
            # Divisibility fix: fold any non-multiple into the pivot's column.
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < min(n, cols) and s[t][t] < 0:
            negate_row(t)

    diag = [s[i][i] for i in range(min(n, cols))]
    return u, diag, v


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Invariant-factor form of a finite abelian group."""

    invariant_factors: tuple
    order: int

    @property
    def nontrivial_factors(self):
        """Factors greater than 1, for display."""
        return tuple(f for f in self.invariant_factors if f > 1)

    def describe(self) -> str:
        if not self.nontrivial_factors:
            return "trivial group"
        return " x ".join(f"Z/{f}" for f in self.nontrivial_factors)


def _bareiss_determinant(matrix):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination. Each step takes the first row with a nonzero entry in the
    leading column as its pivot and divides exactly by the previous pivot,
    so every entry is a minor of the input and none swells past Hadamard's
    bound.
    """
    rows = [list(row) for row in matrix]
    sign, prev = 1, 1
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p % 2:
            sign = -sign  # moving row p to the top is p transpositions
        prow = rows.pop(p)
        pivot, rest = prow[0], prow[1:]
        rows = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], rest)]
            if row[0]
            else [x * pivot // prev for x in row[1:]]
            for row in rows
        ]
        prev = pivot
    return sign * prev


def _snf_at_base(g: MultiGraph):
    """Invariant factors of L_q at the canonical base vertex, and for those
    above 1 the rows of a unimodular U with U L_q V diagonal, each reduced
    mod its factor; cached per graph so coordinates are reproducible.

    Unit pivots go first, on sparse rows (Dumas, Saunders and Villard 2001):
    each ±1 entry, taken by Markowitz cost (r - 1)(c - 1) from a lazily
    checked heap (a cost that rose since its push goes back in; one that
    fell is taken as it stands), clears its column by row operations and
    gives a factor of 1. Clearing the pivot's row by column operations
    costs nothing, as V is not kept.

    The core C left has no ±1 entry. Its modulus D = |det C| comes from
    its own fraction-free elimination (_bareiss_determinant), never from
    the reducer's factor, so Kirchhoff's check still compares two separate
    eliminations. The lattice C Z^m contains D Z^m (C adj C = det C * I),
    so Z^m / C Z^m is (Z/D)^m modulo the columns of C mod D, and
    elementary row operations mod D keep it. An entry coprime to D is a
    unit of Z/D: it clears its column and row and gives a factor of 1
    (Cohen, GTM 138, Alg. 2.4.14, after Domich, Kannan and Trotter 1987
    and Hafner and McCurley 1991). A residual block R with no unit entry goes to the
    dense smith_normal_form of [R | D I]; the factors multiply to D.

    Rows of U are not carried: every row operation, exact or mod D, is
    logged as (pivot row p, [(row k, multiplier f), ...]) for k -= f * p.
    A kept row of U is its residual SNF row run back through the log, each
    step giving p the coefficient -sum f * (k's coefficient); it is taken
    mod its factor, which is enough as every factor divides D.
    """
    if g._snf_cache is None:
        degs = g.degrees()
        # Row and column i stand for vertex i + 1; vertex 0 is the base.
        rows = {
            i - 1: {j - 1: -m for j, m in nbrs if j} | {i - 1: degs[i]}
            for i, nbrs in enumerate(g.adjacency()) if i
        }
        cols = {j: set(row) for j, row in rows.items()}  # L_q is symmetric

        def cost(i, j):
            return (len(rows[i]) - 1) * (len(cols[j]) - 1)

        heap = [
            (cost(i, j), i, j)
            for i, row in rows.items() for j, a in row.items() if a in (1, -1)
        ]
        heapq.heapify(heap)
        log = []
        while heap:
            stale, i, j = heapq.heappop(heap)
            prow = rows.get(i)
            if prow is None or prow.get(j) not in (1, -1):
                continue  # eliminated, or no longer a unit
            now = cost(i, j)
            if now > stale:
                heapq.heappush(heap, (now, i, j))
                continue
            del rows[i]
            for c in prow:
                cols[c].discard(i)
            steps, fresh = [], []
            for k in sorted(cols.pop(j)):
                row = rows[k]
                f = row.pop(j) * prow[j]  # a unit pivot is its own inverse
                steps.append((k, f))
                for c, a in prow.items():
                    if c != j:
                        x = row.get(c, 0) - f * a
                        if x:
                            row[c] = x
                            cols[c].add(k)
                            if x == 1 or x == -1:
                                fresh.append((k, c))
                        else:
                            del row[c]
                            cols[c].discard(k)
            log.append((i, steps))
            for k, c in fresh:
                heapq.heappush(heap, (cost(k, c), k, c))
        live_cols = sorted(cols)
        core = {i: [rows[i].get(j, 0) for j in live_cols] for i in sorted(rows)}
        modulus = abs(_bareiss_determinant(core.values()))
        work = {i: [x % modulus for x in row] for i, row in core.items()}
        while True:  # each pivot is an entry coprime to D, a unit of Z/D
            pivot = next(
                (
                    (i, j)
                    for i, row in work.items()
                    for j, x in enumerate(row)
                    if math.gcd(x, modulus) == 1
                ),
                None,
            )
            if pivot is None:
                break
            i, j = pivot
            prow = work.pop(i)
            inv = pow(prow[j], -1, modulus)
            steps = []
            for k, row in work.items():
                f = row[j] * inv % modulus
                if f:
                    steps.append((k, f))
                    row[:] = [(x - f * y) % modulus for x, y in zip(row, prow)]
                del row[j]
            log.append((i, steps))
        u, diag, _ = smith_normal_form(
            [
                row + [modulus if k == t else 0 for k in range(len(work))]
                for t, row in enumerate(work.values())
            ]
        )
        factors = (1,) * (len(degs) - 1 - len(work)) + tuple(diag)
        if math.prod(factors) != modulus:
            raise AssertionError(
                f"invariant factors {factors} do not multiply to the core's"
                f" determinant {modulus}; engine is broken"
            )
        nontrivial = []
        for residual_row, factor in zip(u, diag):
            if factor > 1:
                w = [0] * (len(degs) - 1)
                for i, coef in zip(work, residual_row):
                    w[i] = coef % factor
                for i, steps in reversed(log):
                    w[i] = -sum(w[k] * f for k, f in steps) % factor
                nontrivial.append(tuple(w))
        object.__setattr__(g, "_snf_cache", (factors, tuple(nontrivial)))
    return g._snf_cache


def jacobian_structure(g: MultiGraph) -> AbelianGroupStructure:
    """Invariant factors of the divisor class group Div0/Prin."""
    diag, _ = _snf_at_base(g)
    order = 1
    for d in diag:
        order *= d
    return AbelianGroupStructure(invariant_factors=tuple(diag), order=order)


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning trees, det L_q at the base vertex (Kirchhoff).

    The count is the last pivot of the reducer's factor of L_q, which
    MultiGraph.reduced_factor caches on the graph: every later max-script
    reduction at the base vertex solves through it without eliminating L_q
    again. The Smith normal form never reads that factor (its unit pivots
    and its core determinant are its own eliminations), so Kirchhoff's
    check still compares two independent computations.
    """
    return g.reduced_factor(0)[0]


@dataclass(frozen=True)
class ClassCoordinates:
    """Coordinates of a degree-zero divisor class in the invariant-factor basis.

    The row transform pinning the basis, one row per invariant factor above
    1 (reduced mod that factor), is included so results can be reproduced;
    coordinates are all zero exactly when the divisor is principal.
    """

    coordinates: tuple
    invariant_factors: tuple
    row_transform: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def class_coordinates(g: MultiGraph, d: Divisor) -> ClassCoordinates:
    """Image of a degree-zero divisor in the invariant-factor decomposition."""
    vec = _bound_vector(g, d)[1:]  # drop the base vertex; degree 0 makes it redundant
    if d.degree != 0:
        raise NonzeroDegreeError(
            f"class coordinates need degree 0, got {d.degree}"
        )
    diag, rows = _snf_at_base(g)
    trivial = len(diag) - len(rows)
    coords = (0,) * trivial + tuple(
        sum(a * x for a, x in zip(row, vec)) % factor
        for row, factor in zip(rows, diag[trivial:])
    )
    return ClassCoordinates(
        coordinates=coords, invariant_factors=diag, row_transform=rows
    )
