"""Integer linear algebra over the graph Laplacian.

Jacobian group structure via Smith normal form: the ±1 pivots of L_q are
eliminated on sparse rows, then a dense SNF runs on the small core left.
Its class coordinates are an equivalence oracle independent of the
chip-firing machinery. The spanning-tree count is det L_q from the sparse
fraction-free elimination behind the reducer's factor
(graphs.sparse_factor), so Kirchhoff's |Jac(G)| = det L_q compares the
Smith normal form with the elimination the reducer actually runs.
Everything is exact arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonzeroDegreeError
from .graphs import MultiGraph, sparse_factor
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
    elimination throughout.
    """
    s = [row[:] for row in matrix]
    n = len(s)
    cols = len(s[0]) if n else 0
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
        srow = s[src]
        drow = s[dst]
        for j in range(cols):
            drow[j] += factor * srow[j]
        urow_s = u[src]
        urow_d = u[dst]
        for j in range(n):
            urow_d[j] += factor * urow_s[j]

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


def _snf_at_base(g: MultiGraph):
    """Invariant factors of L_q at the canonical base vertex, and for those
    above 1 the rows of a unimodular U with U L_q V diagonal, each reduced
    mod its factor; cached per graph so coordinates are reproducible.

    Unit pivots go first, on sparse rows (Dumas, Saunders and Villard 2001):
    each ±1 entry of least Markowitz cost (r - 1)(c - 1) clears its column
    by row operations, which each live row's sparse row of U follows, and
    gives a factor of 1. Clearing the pivot's row by column operations
    costs nothing, as V is not kept. The small core left, with no unit
    entry, goes to the dense smith_normal_form.
    """
    if g._snf_cache is None:
        degs = g.degrees()
        # Row and column i stand for vertex i + 1; vertex 0 is the base.
        rows = {
            i - 1: {j - 1: -m for j, m in nbrs if j} | {i - 1: degs[i]}
            for i, nbrs in enumerate(g.adjacency()) if i
        }
        urows = {i: {i: 1} for i in rows}
        cols = {j: set(row) for j, row in rows.items()}  # L_q is symmetric
        while True:
            pivot = None
            for i, row in rows.items():
                r = len(row) - 1
                for j, a in row.items():
                    if a == 1 or a == -1:
                        cost = r * (len(cols[j]) - 1)
                        if pivot is None or cost < pivot[0]:
                            pivot = (cost, i, j)
            if pivot is None:
                break
            _, i, j = pivot
            prow, purow = rows.pop(i), urows.pop(i)
            for c in prow:
                cols[c].discard(i)
            for k in sorted(cols.pop(j)):
                row, urow = rows[k], urows[k]
                f = row.pop(j) * prow[j]  # a unit pivot is its own inverse
                for c, a in prow.items():
                    if c != j:
                        x = row.get(c, 0) - f * a
                        if x:
                            row[c] = x
                            cols[c].add(k)
                        else:
                            del row[c]
                            cols[c].discard(k)
                for c, a in purow.items():
                    x = urow.get(c, 0) - f * a
                    if x:
                        urow[c] = x
                    else:
                        del urow[c]
        live, live_cols = sorted(rows), sorted(cols)
        u, diag, _ = smith_normal_form(
            [[rows[i].get(j, 0) for j in live_cols] for i in live]
        )
        nontrivial = []
        for core_row, factor in zip(u, diag):
            if factor > 1:
                out = [0] * (len(degs) - 1)
                for coef, i in zip(core_row, live):
                    for c, a in urows[i].items():
                        out[c] += coef * a
                nontrivial.append(tuple(x % factor for x in out))
        ones = (1,) * (len(degs) - 1 - len(live))  # one per unit pivot
        object.__setattr__(g, "_snf_cache", (ones + tuple(diag), tuple(nontrivial)))
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

    The count runs the reducer's elimination but leaves the graph's factor
    cache as it was: a caller that only counts trees keeps no factor alive,
    and the first reduction on the graph pays for its own factor whether or
    not the trees were counted first.
    """
    return sparse_factor(g, 0)[0]


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
