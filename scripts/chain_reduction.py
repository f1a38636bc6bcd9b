#!/usr/bin/env python3
"""Time q-reductions on long chains and sparse random graphs, each route against the one it replaces.

Debt-free case: each edge of banana(3) is cut into k edges, and 2|E| + 5
chips sit at Q2, just past the threshold at which reduce_vector fires the
rounded exact solution before it burns. Each row is the median wall time
of --repeats reductions, each on a freshly built graph, so the sparse
factor of L_q is built inside the timed call. "burn only" patches the
rounding step to a no-op, as the tests do.

Debt case: a divisor drawn from [-3, 3] (seeded by n or k) on
random_multigraph(n, n // 2, seed=n), reduced at its first vertex, and on
banana(3) with each edge cut into k = 50 or 100, reduced at Q1.
reduce_vector sends it down the max-script route: fire floor(L_q^-1 D_q),
then unfire debtors. The old path settles the debts first
(_settle_debts); nothing is in debt after that, so reduce_vector runs its
debt-free route, unchanged. Each row
is the median of --repeats reductions of the same input on one graph whose
factor of L_q and distance layers are built before the clock starts, as in
a session, where every reduction at one root shares them; both paths use
them. --sizes 160 320 480 adds n = 480, whose old path takes seconds, as
it does on the 599-vertex chain, which the debt case leaves out.

The script exits non-zero unless both ways give the same reduced vector
in every row.

    PYTHONPATH=src python3 scripts/chain_reduction.py [--repeats 5] [--sizes 160 320]
"""

import argparse
import json
import platform
import random
import statistics
import time
from unittest import mock

import chipfire as cf
from chipfire import divisors

CUTS = (50, 100, 200)
DEBT_CUTS = (50, 100)


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


def _median_debt_reduction(g, vec, q, repeats, settle_first):
    times = []
    for _ in range(repeats):
        out = list(vec)
        started = time.perf_counter()
        if settle_first:
            divisors._settle_debts(g, out, q)
        divisors.reduce_vector(g, out, q)
        times.append(time.perf_counter() - started)
    return out, statistics.median(times)


def _debt_row(name, g, q, seed, repeats):
    rng = random.Random(seed)
    vec = [rng.randint(-3, 3) for _ in g.vertices]
    g.reduced_factor(q)
    g.distance_layers(q)
    new, new_s = _median_debt_reduction(g, vec, q, repeats, False)
    old, old_s = _median_debt_reduction(g, vec, q, repeats, True)
    if new != old:
        raise SystemExit(f"{name}: the max-script route and the old path disagree")
    row = {
        "graph": name,
        "vertices": len(vec),
        "max_script_ms": round(new_s * 1000, 3),
        "old_path_ms": round(old_s * 1000, 3),
        "old_over_max_script": round(old_s / new_s, 1),
    }
    print(
        f"debt {name:<26} {row['vertices']:>5} vertices  max-script {row['max_script_ms']:.3f} ms"
        f"  settle + reduce {row['old_path_ms']:.3f} ms  ({row['old_over_max_script']}x)"
    )
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=[160, 320])
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
    debt_rows = [
        _debt_row(f"random_multigraph({n}, {n // 2})",
                  cf.random_multigraph(n, n // 2, seed=n), 0, n, args.repeats)
        for n in args.sizes
    ]
    for k in DEBT_CUTS:
        g, _ = cf.subdivide(cf.banana_graph(3), k)
        debt_rows.append(_debt_row(f"banana(3) cut {k}", g, g.index("Q1"), k, args.repeats))
    summary = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "max_round_over_burn": round(
            max(row["round_ms"] / row["burn_only_ms"] for row in rows), 2
        ),
        "min_old_over_max_script": min(row["old_over_max_script"] for row in debt_rows),
        "rows": rows,
        "debt_rows": debt_rows,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
