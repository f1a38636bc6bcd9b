#!/usr/bin/env python3
"""Time the dense Smith normal form of L_q against jacobian_structure.

jacobian_structure eliminates the ±1 pivots of L_q on sparse rows and runs
the dense smith_normal_form only on the small core left. Each row is the
median wall time of --repeats runs of each on a freshly built copy of the
graph (so no cache is warm), for the eight graphs of the class-group
benchmark panel and two larger sparse graphs of genus n/2. The script
exits non-zero unless both give identical invariant factors.

    PYTHONPATH=src python3 scripts/snf_panel.py [--repeats 5]
"""

import argparse
import json
import platform
import statistics
import sys
import time

import chipfire as cf

PANEL = tuple((40 + i, (40 + i) // 2, 1000 + i) for i in range(8))
LARGER = ((80, 40, 0), (120, 60, 0))


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rows = []
    mismatches = []
    for n, genus, seed in PANEL + LARGER:
        g = cf.random_multigraph(n, genus, seed=seed)
        dense, dense_s = _timed(_dense, g, args.repeats)
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
            f"  unit pivots {row['sparse_ms']:7.2f} ms"
            f"  x{dense_s / sparse_s:5.1f}  {'same' if dense == sparse else 'DIFFER'}"
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
    }
    print(json.dumps(summary))
    if mismatches:
        sys.exit(f"invariant factors differ on {mismatches}")


if __name__ == "__main__":
    main()
