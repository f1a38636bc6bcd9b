#!/usr/bin/env python3
"""Time one Q1-reduction on banana(3) with long chains, with and without rounding.

Each edge of banana(3) is cut into k edges, and 2|E| + 5 chips sit at Q2,
just past the threshold at which reduce_vector fires the rounded exact
solution before it burns. Each row is the median wall time of --repeats
reductions, each on a freshly built graph, so the sparse factor of L_q is
built inside the timed call. "burn only" patches the rounding step to a
no-op, as the tests do. The script exits non-zero unless both ways give
the same reduced vector.

    PYTHONPATH=src python3 scripts/chain_reduction.py [--repeats 5]
"""

import argparse
import json
import platform
import statistics
import time
from unittest import mock

import chipfire as cf
from chipfire import divisors

CUTS = (50, 100, 200)


def _median_reduction(k, repeats):
    times = []
    for _ in range(repeats):
        g, _ = cf.subdivide(cf.banana_graph(3), k)
        vec = [0] * len(g.vertices)
        vec[g.index("Q2")] = 2 * len(g.edges) + 5
        started = time.perf_counter()
        divisors.reduce_vector(g, vec, g.index("Q1"))
        times.append(time.perf_counter() - started)
    return vec, statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rows = []
    for k in CUTS:
        rounded, round_s = _median_reduction(k, args.repeats)
        with mock.patch.object(divisors, "_fire_floor_potential", lambda g, vec, q: None):
            burnt, burn_s = _median_reduction(k, args.repeats)
        if rounded != burnt:
            raise SystemExit(f"cut {k}: rounding and burning alone disagree")
        row = {
            "cut": k,
            "vertices": len(rounded),
            "round_ms": round(round_s * 1000, 3),
            "burn_only_ms": round(burn_s * 1000, 3),
        }
        rows.append(row)
        print(
            f"cut {k:>4}  {row['vertices']:>5} vertices  round {row['round_ms']:.3f} ms"
            f"  burn only {row['burn_only_ms']:.3f} ms"
        )
    summary = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "max_round_over_burn": round(
            max(row["round_ms"] / row["burn_only_ms"] for row in rows), 2
        ),
        "rows": rows,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
