#!/usr/bin/env python3
"""Time the superstable high-degree rank audit against the chip-removal search.

Above degree 2g - 2 the rank of D is forced to k = deg D - g (Riemann-Roch
for graphs, Baker-Norine 2007), and rank() audits r(D) >= k over the
effective classes of degree k, one per superstable configuration c of size
at most k (rank._Session.audit_high_degree). It walks the configurations
in enumeration order: each c is an earlier one plus a chip at v, so the
reduced form of D - c is one chip removal away, at most one lending, and
no reduction at all when the earlier form has a chip at v. The search
rank._search decides the same statement by removing chips one at a time,
k levels deep. For every graph of a fixed panel (K5, K6, seeded
random multigraphs, and 2x and 3x subdivisions of genus-2 and genus-3
graphs) and one seeded reduced divisor of each degree 2g - 1, 2g and
2g + 1, both run on a fresh copy of the graph and a fresh session; a row
gives the median wall time of --repeats runs of each, summed over the
three degrees.

A shared-session pass then runs the three audits on one fresh copy of
each graph, through that graph's own session (rank._graph_session), in
the order 2g, 2g + 1, 2g - 1, and counts the configurations each walks.
The audit at 2g (k = g) walks every superstable, so the graph keeps its
verdict and the audit at 2g + 1 must walk none; at 2g - 1 (k = g - 1) the
verdict depends on the divisor, so that audit must still walk.

The script prints one JSON row per graph, then a JSON summary, and exits
non-zero unless the audit and the search return True on every divisor
and the shared-session pass walks as described.

    PYTHONPATH=src python3 scripts/high_degree_audit.py [--repeats 5]
"""

import argparse
import importlib
import json
import platform
import random
import statistics
import sys
import time

import chipfire as cf

# The package re-exports the function rank under the module's name.
rank_module = importlib.import_module("chipfire.rank")


def _panel():
    yield "K5", cf.complete_graph(5)
    yield "K6", cf.complete_graph(6)
    for n, genus, seed in ((6, 3, 1), (8, 4, 2), (10, 3, 3)):
        g = cf.random_multigraph(n, genus, seed=seed)
        yield f"random({n},{genus},seed={seed})", g
    for n, genus, seed in ((3, 2, 4), (4, 2, 5), (4, 3, 6), (5, 3, 7)):
        base = cf.random_multigraph(n, genus, seed=seed)
        for k in (2, 3):
            name = f"random({n},{genus},seed={seed}) subdivided {k}x"
            yield name, cf.subdivide(base, k)[0]


def _divisors(g, seed):
    """One reduced divisor of each degree 2g - 1, 2g, 2g + 1, chips placed
    by a seeded draw."""
    gg = cf.genus(g)
    n = len(g.vertices)
    rng = random.Random(seed)
    sess = rank_module._Session(g)
    for degree in range(2 * gg - 1, 2 * gg + 2):
        vec = [0] * n
        for _ in range(degree):
            vec[rng.randrange(n)] += 1
        yield sess.reduced(tuple(vec)), degree - gg


def _timed(check, g, red, k, repeats):
    times = []
    for _ in range(repeats):
        sess = rank_module._Session(cf.MultiGraph(g.vertices, g.edges))
        started = time.perf_counter()
        value = check(sess, red, k)
        times.append(time.perf_counter() - started)
    return value, statistics.median(times)


def _shared_session(g, divisors):
    """(returned, configurations walked) of each audit, in the order 2g,
    2g + 1, 2g - 1, all on the session of one fresh copy of g."""
    sess = rank_module._graph_session(cf.MultiGraph(g.vertices, g.edges))
    real_steps = rank_module._superstable_steps
    walked = []

    def counted(*args):
        for step in real_steps(*args):
            walked.append(step)
            yield step

    by_degree = dict(zip(("2g-1", "2g", "2g+1"), divisors))
    out = {}
    rank_module._superstable_steps = counted
    try:
        for label in ("2g", "2g+1", "2g-1"):
            del walked[:]
            returned = sess.audit_high_degree(*by_degree[label])
            out[label] = (returned, len(walked))
    finally:
        rank_module._superstable_steps = real_steps
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rows = []
    failures = []
    unshared = []
    for seed, (name, g) in enumerate(_panel()):
        audit_s = search_s = 0.0
        classes = 0
        agree = True
        divisors = list(_divisors(g, seed))
        for red, k in divisors:
            audited, a_s = _timed(
                rank_module._Session.audit_high_degree, g, red, k, args.repeats
            )
            searched, s_s = _timed(rank_module._search, g, red, k, args.repeats)
            audit_s += a_s
            search_s += s_s
            classes += sum(1 for _ in cf.superstable_configs(g, max_size=k))
            agree = agree and audited is searched is True
        shared = _shared_session(g, divisors)
        shared_ok = (
            all(returned is True for returned, _ in shared.values())
            and shared["2g+1"][1] == 0
            and shared["2g-1"][1] > 0
        )
        row = {
            "graph": name,
            "n": len(g.vertices),
            "genus": cf.genus(g),
            "classes": classes,
            "audit_ms": round(audit_s * 1000, 3),
            "search_ms": round(search_s * 1000, 3),
            "speedup": round(search_s / audit_s, 2),
            "agree": agree,
            "shared_walks": {label: walks for label, (_, walks) in shared.items()},
            "shared_ok": shared_ok,
        }
        rows.append(row)
        print(json.dumps(row))
        if not agree:
            failures.append(name)
        if not shared_ok:
            unshared.append(name)
    audit_ms = sum(r["audit_ms"] for r in rows)
    search_ms = sum(r["search_ms"] for r in rows)
    print(json.dumps({
        "python": platform.python_version(),
        "repeats": args.repeats,
        "panel_audit_ms": round(audit_ms, 3),
        "panel_search_ms": round(search_ms, 3),
        "panel_speedup": round(search_ms / audit_ms, 2),
        "all_agree": not failures,
        "shared_ok": not unshared,
    }))
    if failures:
        sys.exit(f"the audit and the search disagree on {failures}")
    if unshared:
        sys.exit(f"the shared-session audits walked wrongly on {unshared}")


if __name__ == "__main__":
    main()
