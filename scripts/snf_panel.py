#!/usr/bin/env python3
"""Time the dense Smith normal form of L_q against jacobian_structure.

jacobian_structure eliminates the ±1 pivots of L_q on sparse rows, then
the core left modulo its own determinant D, and runs the dense
smith_normal_form only on a residual block with no unit mod D. Each row
times one run of the dense SNF of the whole of L_q, the reference (24–29 s
at 320 vertices), and the median of --repeats runs of jacobian_structure,
each on a freshly built copy of the graph (so no cache is warm), for the
eight graphs of the class-group benchmark panel and three larger sparse
graphs of genus n/2, up to 320 vertices; the script exits non-zero unless
both give identical invariant factors. At 640 vertices the dense SNF does
not finish, so that row checks instead that the factors multiply to
det L_q from the reducer's sparse elimination (graphs.sparse_factor), that
every kept row of U annihilates L_q modulo its factor, and that
jacobian_structure takes under 10 s; any failed check exits non-zero.

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


def _dense(g):
    return tuple(cf.smith_normal_form(cf.reduced_laplacian(g, g.vertices[0]))[1])


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
