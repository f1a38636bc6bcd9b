#!/usr/bin/env python3
"""Time a dense Smith normal form of L_q against jacobian_structure.

jacobian_structure eliminates the ±1 pivots of L_q on sparse rows, then
the core left modulo its own determinant D, and runs the dense
smith_normal_form only on a residual block with no unit mod D. Each row
times one run of the reference, a dense elimination of the whole of L_q
that pivots as the public smith_normal_form does but keeps only the
diagonal (no U, no V; about 0.5 s at 320 vertices), and the median of
--repeats runs of jacobian_structure, each on a freshly built copy of the
graph (so no cache is warm), for the eight graphs of the class-group
benchmark panel and three larger sparse graphs of genus n/2, up to 320
vertices; the script exits non-zero unless both give identical invariant
factors. At 640 vertices the reference would take about 7 s, more than
twice the rest of the script, so that row checks instead that the
factors multiply to det L_q from the reducer's sparse elimination
(graphs.sparse_factor), that every kept row of U annihilates L_q modulo
its factor, and that jacobian_structure takes under 10 s; any failed
check exits non-zero.

    PYTHONPATH=src python3 scripts/snf_panel.py [--repeats 5]
"""

import argparse
import json
import math
import platform
import statistics
import sys
import time

import chipfire as cf
from chipfire.graphs import sparse_factor

PANEL = tuple((40 + i, (40 + i) // 2, 1000 + i) for i in range(8))
LARGER = ((80, 40, 0), (120, 60, 0), (320, 160, 0))
SCALE = (640, 320, 0)
SCALE_LIMIT_S = 10.0


def _timed(fn, g, repeats):
    times = []
    for _ in range(repeats):
        fresh = cf.MultiGraph(g.vertices, g.edges)
        started = time.perf_counter()
        value = fn(fresh)
        times.append(time.perf_counter() - started)
    return value, statistics.median(times)


def _dense_diagonal(matrix):
    """The diagonal of cf.smith_normal_form(matrix): the same pivoting (the
    least nonzero absolute value, first in row order; then, if the pivot is
    not a unit, fold a row with an entry it does not divide into the pivot
    row), with no transforms kept. A finished pivot's row and column drop
    out, so the block left shrinks as the elimination goes."""
    s = [list(row) for row in matrix]
    diag = []
    while s and s[0]:
        while True:
            best = pivot = None
            for i, row in enumerate(s):
                for j, x in enumerate(row):
                    if x and (best is None or abs(x) < best):
                        best, pivot = abs(x), (i, j)
                if best == 1:
                    break  # no entry is smaller, so the scan can stop
            if pivot is None:
                return diag + [0] * min(len(s), len(s[0]))
            pi, pj = pivot
            s[0], s[pi] = s[pi], s[0]
            for row in s:
                row[0], row[pj] = row[pj], row[0]
            top = s[0]
            p = top[0]
            done = True
            for row in s[1:]:
                if row[0]:
                    f = row[0] // p
                    row[:] = [a - f * b for a, b in zip(row, top)]
                    done = done and not row[0]
            for j in range(1, len(top)):
                if top[j]:
                    f = top[j] // p
                    for row in s:
                        row[j] -= f * row[0]
                    done = done and not top[j]
            if not done:
                continue
            if p in (1, -1):
                break  # a unit divides every entry
            offender = next(
                (row for row in s[1:] if any(x % p for x in row[1:])), None
            )
            if offender is None:
                break
            s[0] = [a + b for a, b in zip(top, offender)]
        diag.append(abs(s[0][0]))
        s = [row[1:] for row in s[1:]]
    return diag


def _dense(g):
    return tuple(_dense_diagonal(cf.reduced_laplacian(g, g.vertices[0])))


def _sparse(g):
    return cf.jacobian_structure(g).invariant_factors


def _scale_faults(g, factors, sparse_s):
    """What the 640-vertex row gets wrong, checked without the dense SNF."""
    faults = []
    det = sparse_factor(g, 0)[0]
    if math.prod(factors) != det:
        faults.append(f"factors multiply to {math.prod(factors)}, det L_q is {det}")
    rows = cf.class_coordinates(g, cf.zero_divisor(g)).row_transform
    degs = g.degrees()
    for row, d in zip(rows, factors[len(factors) - len(rows):]):
        # (u L_q)_j over the sparse Laplacian; vertex 0 is the base.
        for j, nbrs in enumerate(g.adjacency()):
            if not j:
                continue
            uj = degs[j] * row[j - 1] - sum(m * row[i - 1] for i, m in nbrs if i)
            if uj % d:
                faults.append(f"a kept row does not annihilate L_q mod {d}")
                break
    if sparse_s > SCALE_LIMIT_S:
        faults.append(
            f"jacobian_structure took {sparse_s:.1f} s, over {SCALE_LIMIT_S} s"
        )
    return faults


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rows = []
    mismatches = []
    for n, genus, seed in PANEL + LARGER:
        g = cf.random_multigraph(n, genus, seed=seed)
        dense, dense_s = _timed(_dense, g, 1)
        sparse, sparse_s = _timed(_sparse, g, args.repeats)
        if dense != sparse:
            mismatches.append({"n": n, "seed": seed})
        row = {
            "n": n,
            "genus": genus,
            "seed": seed,
            "nontrivial_factors": sum(1 for f in sparse if f > 1),
            "dense_ms": round(dense_s * 1000, 3),
            "sparse_ms": round(sparse_s * 1000, 3),
        }
        rows.append(row)
        print(
            f"n={n:>3} seed={seed:>4}  dense {row['dense_ms']:8.2f} ms"
            f"  unit pivots + mod det {row['sparse_ms']:7.2f} ms"
            f"  x{dense_s / sparse_s:5.1f}  {'same' if dense == sparse else 'DIFFER'}"
        )
    n, genus, seed = SCALE
    g = cf.random_multigraph(n, genus, seed=seed)
    sparse, sparse_s = _timed(_sparse, g, args.repeats)
    faults = _scale_faults(g, sparse, sparse_s)
    scale = {
        "n": n,
        "genus": genus,
        "seed": seed,
        "nontrivial_factors": sum(1 for f in sparse if f > 1),
        "sparse_ms": round(sparse_s * 1000, 3),
        "checks_pass": not faults,
    }
    print(
        f"n={n:>3} seed={seed:>4}  dense not run  unit pivots + mod det"
        f" {scale['sparse_ms']:7.2f} ms"
        f"  {'; '.join(faults) or 'det and kernel rows check'}"
    )
    panel = rows[: len(PANEL)]
    dense_ms = sum(r["dense_ms"] for r in panel)
    sparse_ms = sum(r["sparse_ms"] for r in panel)
    summary = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "panel_dense_ms": round(dense_ms, 3),
        "panel_sparse_ms": round(sparse_ms, 3),
        "panel_speedup": round(dense_ms / sparse_ms, 2),
        "factors_identical": not mismatches,
        "rows": rows,
        "scale": scale,
    }
    print(json.dumps(summary))
    if mismatches:
        sys.exit(f"invariant factors differ on {mismatches}")
    if faults:
        sys.exit(f"n={n}: {'; '.join(faults)}")


if __name__ == "__main__":
    main()
