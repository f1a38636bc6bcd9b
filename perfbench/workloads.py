"""Seeded workloads for the chipfire benchmark.

A workload turns (seed, round index) into the plan of one round (plain
data: seeds, labels, integer vectors) and a plan into that round's
instances. Each instance is a callable that builds its own engine objects,
calls the public API, checks the result against a theorem or an
independent oracle, and returns a JSON-able output for the round digest.
A check that fails raises CheckFailed; any other exception counts as a
failed instance too.

Every round draws new inputs, so a run averages over as many inputs as it
has time for and no cache that outlives a call can replay earlier work.
Input cost varies by orders of magnitude between random instances, so each
round is stratified on the property that drives its cost; that keeps the
cost of a round close to seed-independent while the seed still picks every
concrete instance.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction


class CheckFailed(Exception):
    """An instance's output contradicts its theorem or oracle."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- metric-probe ---------------------------------------------------------------

# The three instances of acceptance criterion 10 (the semicontinuity probe).
_THETA = "a b 1\na b 1/2\na c 1/2\nc b 1/2\n"
_PROBE_EPS = Fraction(1, 6)
_PROBE_GRID = 24  # semicontinuity_probe's default grid_denominator
# Probe samples per criterion instance and round; multiples of the grid width.
_PROBE_SAMPLES = (27, 3, 27)
_SCAN_N = 5
_SCAN_DEN = 12


def _criterion_10(cf, index):
    if index == 2:
        qg = cf.parse_qgraph(_THETA)
        return qg, cf.QDivisor(qg, {qg.point(0, Fraction(1, 2)): 2})
    qg = cf.QGraph.unit(cf.banana_graph(4))
    if index == 0:
        return qg, cf.QDivisor(qg, {qg.point(0, Fraction(1, 2)): 3})
    return qg, cf.QDivisor(
        qg, {qg.point(1, Fraction(1, 3)): 2, qg.vertex_point("Q2"): 1}
    )


def _probe_top():
    """Largest grid multiple a probe draws per coordinate, as the probe sets it."""
    step = Fraction(4, _PROBE_GRID)
    if step > _PROBE_EPS:
        step = _PROBE_EPS / 4
    return int(_PROBE_EPS / step)


def _probe_draws(probe_seed, coords, top):
    """The grid multiples semicontinuity_probe(samples=1, seed=probe_seed)
    draws: one per model edge (length deltas), then one per interior
    support point (point shifts)."""
    rng = random.Random(probe_seed)
    return tuple(rng.randint(-top, top) for _ in range(coords))


def _balanced_probe_seeds(rng, coords, key, samples, top):
    """Probe seeds whose perturbations take every grid value equally often on
    every coordinate, and every pair of values equally often on the key pair
    (the length delta of the edge under the support point, and the point's
    shift) when samples allow. The key pair sets the denominator of the
    perturbed point, hence the unit-model size and a tenfold cost
    difference, so independent draws would make a round's cost depend on
    the seed."""
    values = range(-top, top + 1)
    width = len(values)
    columns = {}
    if samples % (width * width) == 0:
        pairs = list(itertools.product(values, repeat=2)) * (samples // width**2)
        rng.shuffle(pairs)
        for position, c in enumerate(key):
            columns[c] = [pair[position] for pair in pairs]
    for c in range(coords):
        if c not in columns:
            columns[c] = list(values) * (samples // width)
            rng.shuffle(columns[c])
    wanted = {}
    for target in zip(*(columns[c] for c in range(coords))):
        wanted[target] = wanted.get(target, 0) + 1
    picked = []
    while len(picked) < samples:
        candidate = rng.randrange(1 << 31)
        target = _probe_draws(candidate, coords, top)
        if wanted.get(target):
            wanted[target] -= 1
            picked.append(candidate)
    return picked


def metric_probe_plan(cf, seed, round_index):
    rng = random.Random(f"metric-probe:{seed}:{round_index}")
    top = _probe_top()
    probes = []
    rr = []
    for index, samples in enumerate(_PROBE_SAMPLES):
        qg, d = _criterion_10(cf, index)
        interior = [p for p in d.support() if p.vertex is None]
        coords = len(qg.lengths) + len(interior)
        key = (interior[0].edge, len(qg.lengths))
        for probe_seed in _balanced_probe_seeds(rng, coords, key, samples, top):
            probes.append([index, probe_seed])
        # Metric Riemann-Roch on the probe divisor moved by a seeded vertex chip.
        rr.append([index, rng.choice(qg.model.vertices), rng.choice([-1, 1, 2])])
    return {"probes": probes, "scan": [_SCAN_N, _SCAN_DEN], "rr": rr}


def _probe_instance(cf, index, probe_seed):
    qg, d = _criterion_10(cf, index)
    report = cf.semicontinuity_probe(
        qg, d, eps=_PROBE_EPS, samples=1, seed=probe_seed
    )
    _check(len(report.records) == 1, "probe returned the wrong sample count")
    _check(not report.violations, f"semicontinuity violated at seed {probe_seed}")
    record = report.records[0]
    return [
        report.base_rank,
        list(record.ranks),
        [str(x) for x in record.length_deltas],
        [str(x) for _, x in record.point_shifts],
    ]


def _scan_instance(cf, n, den, j):
    # One point of norine_scan(n, den): the rank of 3(P) on the unit banana.
    qg = cf.QGraph.unit(cf.banana_graph(n))
    offset = Fraction(j, den)
    value = cf.q_rank(qg, cf.QDivisor(qg, {qg.point(0, offset): 3}))
    # For P at distance x < 1/3 from Q1, reducing 3(P) - (Q2) toward Q2
    # ends at 2(Q1) + (the point at 3x) - (Q2), so the rank is 0; by symmetry
    # the same holds for x > 2/3, and on the middle third the rank is 1
    # (acceptance criterion 7; Clifford's bound caps it at 1).
    expected = 1 if Fraction(1, 3) <= offset <= Fraction(2, 3) else 0
    _check(value == expected, f"scan rank {value} at {offset}, expected {expected}")
    return value


def _rr_instance(cf, index, vertex, coeff):
    qg, d = _criterion_10(cf, index)
    d = d + cf.QDivisor(qg, {qg.vertex_point(vertex): coeff})
    report = cf.metric_rr_check(qg, d)
    _check(report.equal, f"metric Riemann-Roch fails: {report}")
    return [report.rank, report.canonical_minus_rank]


def metric_probe_round(cf, plan, workdir):
    for index, probe_seed in plan["probes"]:
        yield "probe", lambda i=index, s=probe_seed: _probe_instance(cf, i, s)
    n, den = plan["scan"]
    for j in range(den + 1):
        yield "scan", lambda j=j: _scan_instance(cf, n, den, j)
    for index, vertex, coeff in plan["rr"]:
        yield "rr", lambda i=index, v=vertex, c=coeff: _rr_instance(cf, i, v, c)


# -- grd-sweep ----------------------------------------------------------------

# (CLI kind, CLI flags, gmax and nmax of the sweep's sampler, strata, records
# per stratum). The criterion-9 mix at reduced counts. A subdivision record
# re-checks the rank of a random divisor on the subdivided graph; at genus 3
# and up a high-degree divisor makes that one search take up to seconds (at
# six vertices, up to 13 s), which would decide a round's time alone. So that
# sweep keeps to genus at most 2 and two to five vertices.
_SWEEPS = (
    ("gonality", ["--gmax", "6"], 6, 7, range(1, 7), range(2, 8), 1),
    ("bn", ["--gmax", "6", "--rmax", "2"], 6, 7, range(1, 7), range(2, 8), 1),
    (
        "subdivision",
        ["--gmax", "2", "--kmax", "3", "--rmax", "2"],
        2,
        6,
        range(1, 3),
        range(2, 6),
        3,
    ),
)


def _sampled_shape(sweep_seed, gmax, nmax):
    """(genus, vertices) of the graph a one-record sweep draws at sweep_seed,
    following the sampler's documented rule (instance i uses seed base+i)."""
    rng = random.Random(f"sample:{sweep_seed}")
    return rng.randint(1, gmax), rng.randint(2, nmax)


def grd_sweep_plan(cf, seed, round_index):
    rng = random.Random(f"grd-sweep:{seed}:{round_index}")
    records = []
    for kind, flags, gmax, nmax, genera, sizes, per in _SWEEPS:
        need = {(g, n): per for g in genera for n in sizes}
        chosen = []
        while need:
            sweep_seed = rng.randrange(1_000_000)
            shape = _sampled_shape(sweep_seed, gmax, nmax)
            if shape in need:
                chosen.append(sweep_seed)
                need[shape] -= 1
                if not need[shape]:
                    del need[shape]
        records.extend([kind, s] for s in sorted(chosen))
    return {"records": records}


def _cli(cf, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cf.cli.main(argv)
    lines = out.getvalue().strip().splitlines()
    _check(code == 0 and lines, f"chipfire {' '.join(argv)} exited {code}")
    return json.loads(lines[-1])


def _sweep_instance(cf, kind, flags, sweep_seed, path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    argv = ["sweep", kind, *flags, "--seeds", "1", "--seed", str(sweep_seed)]
    payload = _cli(cf, argv + ["--out", path, "--json"])
    _check(payload["status"] in ("ok", "finding"), f"sweep status {payload}")
    _check(payload["records"] == 1, "sweep wrote the wrong record count")
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    _check(len(lines) == 1, "record file holds the wrong record count")
    result = lines[0]["result"]
    _check(result.get("theorem_ok", True), f"theorem violated: {result}")
    return result


def _replay_instance(cf, path):
    payload = _cli(cf, ["replay", path, "--json"])
    _check(payload["status"] == "ok", f"replay status {payload['status']}")
    _check(payload["records"] == 1, "replay read the wrong record count")
    _check(not payload["mismatches"], f"replay mismatches {payload['mismatches']}")
    return payload["records"]


def grd_sweep_round(cf, plan, workdir):
    flags = {kind: f for kind, f, *_ in _SWEEPS}
    paths = []
    for kind, sweep_seed in plan["records"]:
        path = os.path.join(workdir, f"{kind}-{sweep_seed}.jsonl")
        paths.append(path)
        yield "sweep", lambda k=kind, s=sweep_seed, p=path: _sweep_instance(
            cf, k, flags[k], s, p
        )
    for path in paths:
        yield "replay", lambda p=path: _replay_instance(cf, p)


# -- class-group --------------------------------------------------------------

# A fixed panel of sparse random multigraphs (genus n/2, average degree 3).
# Reduction cost varies about 45% between random graphs of one size, so a
# seeded choice of graphs would move a round's cost by more than any useful
# bound; the seed picks the divisors instead. 80- to 120-vertex graphs take
# 1 s to 11 s per divisor check, so the panel stays at 40 to 47 vertices.
_PANEL = tuple((40 + i, 1000 + i) for i in range(8))
# One check on a principal divisor costs about one large reduction, one on a
# moved divisor about four; cost varies about 40% between random f, so a
# round holds many of the cheap kind.
_PRINCIPAL_PER_GRAPH = 6
_MOVED_PER_GRAPH = 1
_F_MAX = 20


def class_group_plan(cf, seed, round_index):
    rng = random.Random(f"class-group:{seed}:{round_index}")
    graphs = []
    for n, graph_seed in _PANEL:
        g = cf.random_multigraph(n, n // 2, seed=graph_seed)
        checks = []
        for c in range(_PRINCIPAL_PER_GRAPH + _MOVED_PER_GRAPH):
            f = [rng.randint(-_F_MAX, _F_MAX) for _ in g.vertices]
            # Moving one chip almost always leaves the principal class; the
            # check accepts either outcome as long as both oracles agree.
            move = rng.sample(range(n), 2) if c >= _PRINCIPAL_PER_GRAPH else None
            checks.append([f, move])
        graphs.append(
            {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges],
             "checks": checks}
        )
    return {"graphs": graphs}


def _kirchhoff_instance(cf, spec, holder):
    g = cf.MultiGraph(spec["vertices"], [tuple(e) for e in spec["edges"]])
    structure = cf.jacobian_structure(g)
    trees = cf.spanning_tree_count(g)
    _check(structure.order == trees, f"Jacobian order {structure.order} != {trees} trees")
    holder.append(g)
    return [list(structure.invariant_factors), trees]


def _divisor_instance(cf, holder, f, move):
    g = holder[-1]
    d = cf.laplacian_apply(g, dict(zip(g.vertices, f)))
    if move is not None:
        src, dst = (g.vertices[i] for i in move)
        d = d - cf.Divisor(g, {src: 1}) + cf.Divisor(g, {dst: 1})
    zero_class = cf.class_coordinates(g, d).is_zero()
    equivalent = cf.is_equivalent(g, d, cf.zero_divisor(g))
    _check(equivalent == zero_class, "is_equivalent disagrees with SNF coordinates")
    if move is None:
        _check(equivalent, "a Laplacian image is not principal")
        return [equivalent]
    if equivalent:
        return [equivalent]
    result = cf.rank_with_certificate(g, d)
    _check(result.rank == -1, f"non-principal degree-0 divisor has rank {result.rank}")
    _check(result.verify(g, d), "rank -1 certificate does not verify")
    return [equivalent, list(result.nu_ordering)]


def class_group_round(cf, plan, workdir):
    for spec in plan["graphs"]:
        holder = []
        yield "snf", lambda s=spec, h=holder: _kirchhoff_instance(cf, s, h)
        for f, move in spec["checks"]:
            yield "divisor", lambda h=holder, f=f, m=move: _divisor_instance(cf, h, f, m)


WORKLOADS = {
    "metric-probe": (metric_probe_plan, metric_probe_round),
    "grd-sweep": (grd_sweep_plan, grd_sweep_round),
    "class-group": (class_group_plan, class_group_round),
}
