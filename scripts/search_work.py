#!/usr/bin/env python3
"""Count the rank engine's work on a fixed panel of rank and g^r_d queries.

The panel: gonality of small graphs, min_degree_grd at rank 2, and ranks of
seeded divisors above degree 2g - 2 on 2x and 3x subdivisions, where the
high-degree audit decides the value. The engine has no counters of its
own yet, so the script counts from outside by wrapping its functions:

- reductions: calls of divisors.reduce_vector;
- memo hits: calls of rank._Session.reduced that the session's memo,
  keyed by the part of a state away from q, answered without a reduction;
- lendings: reductions of a q-reduced divisor minus one chip, the input
  rank._child hands over (reduce_vector's _one_short);
- burning passes (divisors._dhar_unburnt) and the adjacency entries they
  scan, split by caller: the rank layer's innermost frame (audit, search,
  g^r_d enumeration, Riemann-Roch dual, entry) and the kind of pass
  (lend: from a debtor; dhar: from q; superstable: the enumeration's test).

A graph keeps its rank session's memos, so each query runs on its graph
built afresh and its row counts only its own work. Each panel value on a
graph of at most 5 vertices is checked against the brute-force oracles of
tests/oracles.py; the script exits non-zero if one differs. It prints one
JSON row per query, then a certificate row, then a JSON summary.

The certificate row is the class-group benchmark's moved-divisor check on
one of its panel graphs, built afresh: a principal check, then
is_equivalent, rank_with_certificate and verify on a Laplacian image with
one chip moved. All of them reduce through the graph's rank session, so
the moved check reduces only D and nu - D (the zero vector's reduction is
kept from the principal check) and reads the rest from the memo. The
script exits non-zero unless the rank is -1, the certificate verifies and
is_equivalent agrees with the class group (class_coordinates).

    PYTHONPATH=src python3 scripts/search_work.py
"""

import contextlib
import importlib
import json
import os
import random
import sys
from collections import Counter
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

import chipfire as cf  # noqa: E402
from chipfire import divisors  # noqa: E402
from oracles import effective_vectors, rank_oracle  # noqa: E402

# The package re-exports the function rank under the module's name.
rank_module = importlib.import_module("chipfire.rank")

ORACLE_MAX_VERTICES = 5
ROLES = {
    "audit_high_degree": "audit",
    "_rank_geq": "search",
    "_witness_at_degree": "grd enumeration",
    "_dual": "dual",
}


class Counts:
    def __init__(self):
        self.work = Counter()
        self.passes = Counter()
        self.edges = Counter()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the engine's functions so that they fill these counts."""
        real_pass = divisors._dhar_unburnt
        real_reduce = divisors.reduce_vector
        real_reduced = rank_module._Session.reduced
        real_engine = rank_module._Session._reduce
        counts = self

        def counted_pass(adj, vec, q, n, source=None):
            result = real_pass(adj, vec, q, n, source)
            caller = sys._getframe(1).f_code.co_name
            if caller == "reduce_vector":
                kind = "dhar" if source in (None, q) else "lend"
            elif caller == "_superstable_steps":
                kind = "superstable"
            else:
                kind = caller
            frame, role = sys._getframe(1), "entry"
            while frame is not None:
                if frame.f_code.co_name in ROLES:
                    role = ROLES[frame.f_code.co_name]
                    break
                frame = frame.f_back
            key = f"{role}/{kind}"
            counts.passes[key] += 1
            counts.edges[key] += sum(len(adj[u]) for u in result[0])
            return result

        def counted_reduce(g, vec, q=0, _one_short=False):
            counts.work["reductions"] += 1
            counts.work["lendings"] += _one_short
            return real_reduce(g, vec, q, _one_short)

        def counted_reduced(sess, vec_tuple, one_short=False):
            counts.work["memo_lookups"] += 1
            return real_reduced(sess, vec_tuple, one_short)

        def counted_engine(sess, vec_tuple, one_short):
            counts.work["memo_misses"] += 1
            return real_engine(sess, vec_tuple, one_short)

        session = rank_module._Session
        with contextlib.ExitStack() as stack:
            for module in (divisors, rank_module):
                for name, wrapper in (
                    ("_dhar_unburnt", counted_pass),
                    ("reduce_vector", counted_reduce),
                ):
                    stack.enter_context(mock.patch.object(module, name, wrapper))
            stack.enter_context(mock.patch.object(session, "reduced", counted_reduced))
            stack.enter_context(mock.patch.object(session, "_reduce", counted_engine))
            yield

    def summary(self):
        work = dict(self.work)
        work["memo_hits"] = work.get("memo_lookups", 0) - work.get("memo_misses", 0)
        return {
            **{k: work.get(k, 0) for k in ("reductions", "memo_hits", "lendings")},
            "burning_passes": sum(self.passes.values()),
            "edges_scanned": sum(self.edges.values()),
            "passes_by_caller": dict(sorted(self.passes.items())),
            "edges_by_caller": dict(sorted(self.edges.items())),
        }


def _panel():
    """(query, graph, argument) triples; rank queries carry a coefficient list."""
    small = [
        ("banana(3)", cf.banana_graph(3)),
        ("K4", cf.complete_graph(4)),
        ("K5", cf.complete_graph(5)),
    ]
    small += [
        (f"random({n},{genus},seed={seed})", cf.random_multigraph(n, genus, seed=seed))
        for n, genus, seed in ((4, 2, 1), (5, 3, 2), (6, 3, 3), (7, 4, 4))
    ]
    for name, g in small:
        yield "gonality", name, g, None
    for name, g in small[1:]:
        yield "min_degree_grd r=2", name, g, None
    for n, genus, seed in ((2, 2, 5), (3, 2, 6), (4, 3, 7), (5, 3, 8)):
        base = cf.random_multigraph(n, genus, seed=seed)
        for k in (2, 3):
            g = cf.subdivide(base, k)[0]
            rng = random.Random(f"{n}:{genus}:{seed}:{k}")
            gg = cf.genus(g)
            for degree in (2 * gg - 1, 2 * gg + 1):
                vec = [0] * len(g.vertices)
                for _ in range(degree):
                    vec[rng.randrange(len(vec))] += 1
                name = f"random({n},{genus},seed={seed}) subdivided {k}x"
                yield "rank", name, g, vec


def _least_degree_oracle(g, r, d_max):
    """Least degree of an effective divisor of oracle rank >= r, by brute force."""
    for d in range(r, d_max + 1):
        if any(rank_oracle(g, v) >= r for v in effective_vectors(len(g.vertices), d)):
            return d
    return None


def _run(query, g, vec):
    if query == "gonality":
        return cf.gonality(g)
    if query == "rank":
        return cf.rank(g, cf.Divisor.from_vector(g, vec))
    witness = cf.min_degree_grd(g, 2, cf.genus(g) + 2)
    return None if witness is None else witness.degree


def _oracle(query, g, vec):
    if query == "gonality":
        return _least_degree_oracle(g, 1, cf.genus(g) + 1)
    if query == "rank":
        return rank_oracle(g, vec)
    return _least_degree_oracle(g, 2, cf.genus(g) + 2)


def _certificate_row():
    """The moved-divisor check on random_multigraph(45, 22, seed=1005), with
    its counts, and whether its three checks hold."""
    g = cf.random_multigraph(45, 22, seed=1005)
    rng = random.Random("certificate row")

    def image():
        return cf.laplacian_apply(g, {v: rng.randint(-20, 20) for v in g.vertices})

    zero = cf.zero_divisor(g)
    principal, moved = Counts(), Counts()
    with principal.installed():
        principal_ok = cf.is_equivalent(g, image(), zero)
    src, dst = rng.sample(g.vertices, 2)
    d = image() - cf.Divisor(g, {src: 1}) + cf.Divisor(g, {dst: 1})
    with moved.installed():
        equivalent = cf.is_equivalent(g, d, zero)
        result = cf.rank_with_certificate(g, d)
        verified = result.verify(g, d)
    class_zero = cf.class_coordinates(g, d).is_zero()
    row = {
        "query": "moved-divisor certificate",
        "graph": "random(45,22,seed=1005)",
        "n": len(g.vertices),
        "rank": result.rank,
        "verified": verified,
        "equivalent": equivalent,
        "class_zero": class_zero,
        "principal_reductions": principal.summary()["reductions"],
    }
    row.update({k: v for k, v in moved.summary().items() if "_by_" not in k})
    ok = principal_ok and result.rank == -1 and verified and equivalent == class_zero
    return row, ok


def main():
    total = Counts()
    failures = []
    for query, name, g, vec in _panel():
        fresh = cf.MultiGraph(g.vertices, g.edges)  # no memos from earlier rows
        counts = Counts()
        with counts.installed():
            value = _run(query, fresh, vec)
        for key in ("work", "passes", "edges"):
            getattr(total, key).update(getattr(counts, key))
        row = {"query": query, "graph": name, "n": len(g.vertices), "value": value}
        if len(g.vertices) <= ORACLE_MAX_VERTICES:
            expected = _oracle(query, g, vec)
            row["oracle"] = expected
            if expected != value:
                failures.append(f"{query} on {name}")
        row.update({k: v for k, v in counts.summary().items() if "_by_" not in k})
        print(json.dumps(row))
    row, certificate_ok = _certificate_row()
    print(json.dumps(row))
    print(json.dumps({
        "panel": total.summary(),
        "all_match_oracle": not failures,
        "certificate_checks_hold": certificate_ok,
    }))
    if failures:
        sys.exit(f"values differ from the oracle: {failures}")
    if not certificate_ok:
        sys.exit("the moved-divisor certificate row fails its checks")


if __name__ == "__main__":
    main()
