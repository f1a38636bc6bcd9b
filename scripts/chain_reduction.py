#!/usr/bin/env python3
"""Time q-reduction's max-script route against burning alone on long chains and sparse random graphs, and check every result.

Debt-free rows: each edge of banana(3) cut into k edges, with 2|E| + 5
chips at Q2 reduced at Q1, and random_multigraph(n, n // 2, seed=n) with
2|E| + 5 chips spread over it (seeded by n) reduced at its first vertex.
Both lie just past the 2|E| chips above which reduce_vector takes the
max-script route: fire floor(L_q^-1 D_q), then unfire debtors. The
reference is burning alone: Dhar passes from q, each firing the unburnt
set as often as it legally can, until everything burns; both must give
the same vector. The ratio column is max-script time over burning time.
On a long chain floor(L_q^-1 D_q) sits far above the maximal legal
script and each unfiring moves one chip one edge, so those rows show
the chain cost of the max-script route.

Debt rows: a divisor drawn from [-3, 3] on the same random graphs and on
banana(3) cut k = 50 or 100. Burning alone cannot take debts, so the
reference is the definition: the output is q-reduced and differs from
the input by a principal divisor (its class coordinates are zero).

Each time is the median of --repeats reductions of the same input, each
on a freshly built graph, so the sparse factor of L_q is built inside the
timed call. The script exits non-zero unless every row agrees with its
reference.

    PYTHONPATH=src python3 scripts/chain_reduction.py [--repeats 5] [--sizes 160 320]
"""

import argparse
import json
import platform
import random
import statistics
import time

import chipfire as cf
from chipfire import divisors

CUTS = (50, 100, 200)
DEBT_CUTS = (50, 100)


def _burn_alone(g, vec, q):
    """Reduce a vector with no debt away from q by Dhar passes alone."""
    adj, n = g.adjacency(), len(vec)
    while True:
        members, burnt, threat = divisors._dhar_unburnt(adj, vec, q, n)
        if len(members) == n:
            return vec
        t = min(vec[w] // threat[w] for w in range(n) if threat[w] and not burnt[w])
        for u in members:
            for j, mult in adj[u]:
                if not burnt[j]:
                    vec[u] += t * mult
                    vec[j] -= t * mult


def _chain(k):
    """A builder of banana(3) with each edge cut into k; Q1 is vertex 0."""
    return lambda: cf.subdivide(cf.banana_graph(3), k)[0]


def _median_ms(build, vec, q, reduce, repeats):
    times = []
    for _ in range(repeats):
        g, out = build(), list(vec)
        started = time.perf_counter()
        reduce(g, out, q)
        times.append(time.perf_counter() - started)
    return out, round(statistics.median(times) * 1000, 3)


def _row(name, build, vec, repeats):
    g, q, debts = build(), 0, min(vec) < 0
    out, max_script_ms = _median_ms(build, vec, q, divisors.reduce_vector, repeats)
    row = {"graph": name, "vertices": len(vec), "debts": debts, "max_script_ms": max_script_ms}
    if debts:
        moved = cf.Divisor.from_vector(g, [a - b for a, b in zip(out, vec)])
        agree = cf.is_q_reduced(g, cf.Divisor.from_vector(g, out), g.vertices[q]) \
            and cf.class_coordinates(g, moved).is_zero()
        note = "q-reduced and equivalent" if agree else "WRONG"
    else:
        burnt, row["burn_alone_ms"] = _median_ms(build, vec, q, _burn_alone, repeats)
        agree = burnt == out
        row["max_script_over_burn"] = round(max_script_ms / row["burn_alone_ms"], 2)
        note = f"burn alone {row['burn_alone_ms']:.3f} ms  ({row['max_script_over_burn']}x)"
    print(f"{'debt' if debts else 'free'} {name:<26} {len(vec):>5} vertices"
          f"  max-script {max_script_ms:.3f} ms  {note}")
    if not agree:
        raise SystemExit(f"{name}: the max-script route and its reference disagree")
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=[160, 320])
    args = parser.parse_args()
    rows = []
    for k in CUTS:
        vec = [0, 2 * 3 * k + 5] + [0] * (3 * k - 3)  # 2|E| + 5 chips at Q2
        rows.append(_row(f"banana(3) cut {k}", _chain(k), vec, args.repeats))
    randoms = [(f"random_multigraph({n}, {n // 2})", n,
                lambda n=n: cf.random_multigraph(n, n // 2, seed=n)) for n in args.sizes]
    for name, n, build in randoms:
        rng, vec = random.Random(n), [0] * n
        for _ in range(2 * len(build().edges) + 5):
            vec[rng.randrange(1, n)] += 1
        rows.append(_row(name, build, vec, args.repeats))
    chains = [(f"banana(3) cut {k}", k, _chain(k)) for k in DEBT_CUTS]
    for name, seed, build in randoms + chains:
        rng = random.Random(seed)
        vec = [rng.randint(-3, 3) for _ in build().vertices]
        rows.append(_row(name, build, vec, args.repeats))
    print(json.dumps({"python": platform.python_version(), "repeats": args.repeats,
                      "rows": rows}))


if __name__ == "__main__":
    main()
