"""Seeded random instances and desk-scale sweeps of the open conjectures.

Each sweep samples graphs deterministically from a base seed (instance i
uses seed base+i), runs a per-instance check, and appends one
self-contained JSONL record per instance. Theorem-backed equalities are
hard assertions; conjecture audits record findings instead of failing,
because a counterexample to an open conjecture is a discovery, not a bug.
The Brill-Noether audit escalates a miss to uniform subdivisions with
factors up to 3. Each experiment's params are declared once, in _SPECS,
and one check serves a sweep's arguments and a replayed record.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field

from . import __version__ as ENGINE_VERSION
from .errors import GraphError, RecordError
from .graphs import (
    MultiGraph,
    _check_count,
    genus,
    parse_graph,
    serialize_graph,
    subdivide,
)
from .divisors import Divisor
from .rank import rank
from .linear_systems import exists_grd_witness, gonality, min_degree_grd


def brill_noether_threshold(g: int, r: int) -> int:
    """Least d with g - (r+1)(g-d+r) >= 0."""
    # g - (r+1)(g-d+r) >= 0  <=>  d >= g + r - g/(r+1)
    return g + r - g // (r + 1)


def random_multigraph(n: int, g: int, seed: int) -> MultiGraph:
    """Connected loopless multigraph with n vertices and genus exactly g:
    a uniform random labeled spanning tree plus g extra non-loop edges
    drawn uniformly with replacement. Deterministic per seed."""
    _check_count(n, 1, "vertex count")
    _check_count(g, 0, "genus")
    if n == 1 and g > 0:
        raise GraphError("n = 1 with positive genus would force loop edges")
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    if n >= 2:
        # Pruefer decoding gives the uniform distribution on labeled trees.
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for i in seq:
            degree[i] += 1
        for i in seq:
            leaf = min(j for j in range(n) if degree[j] == 1)
            edges.append((labels[leaf], labels[i]))
            degree[leaf] -= 1
            degree[i] -= 1
        last = [j for j in range(n) if degree[j] == 1]
        edges.append((labels[last[0]], labels[last[1]]))
    for _ in range(g):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((labels[u], labels[v]))
    graph = MultiGraph(labels, edges)
    if genus(graph) != g:
        raise AssertionError("sampled graph has wrong genus; bug")
    return graph


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep datum; self-contained, so replaying the experiment on the
    stored graph with the stored seed reproduces the payload exactly."""

    experiment: str
    graph: str
    params: dict
    result: dict
    seed: int
    engine_version: str = ENGINE_VERSION
    wall_ms: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "graph": self.graph,
                "params": self.params,
                "result": self.result,
                "seed": self.seed,
                "engine_version": self.engine_version,
                "wall_ms": self.wall_ms,
            },
            sort_keys=True,
        )

    @functools.cached_property
    def parsed_graph(self) -> MultiGraph:
        """The stored graph text, parsed on first use."""
        return parse_graph(self.graph)

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        """Parse one JSONL line. Missing or mistyped entries, an unknown
        experiment, a param it reads that is missing or out of range, or
        graph text that does not parse raise RecordError, so replay never
        re-runs a malformed record. Params it does not read are ignored."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"a record must be JSON: {exc.msg}") from exc
        if type(data) is not dict:
            raise RecordError(f"a record must be a JSON object, got {data!r}")
        for key, kind in _RECORD_KINDS.items():
            got = data.get(key)
            if type(got) is not kind:
                raise RecordError(f"record needs {kind.__name__} {key!r}, got {got!r}")
        experiment = data["experiment"]
        if experiment not in _SPECS:
            raise RecordError(f"unknown experiment {experiment!r}")
        _check_params(data["params"], _SPECS[experiment][0], RecordError)
        record = cls(
            experiment=experiment,
            graph=data["graph"],
            params=data["params"],
            result=data["result"],
            seed=data["seed"],
            engine_version=data.get("engine_version", "unknown"),
            wall_ms=data.get("wall_ms", 0.0),
        )
        try:
            record.parsed_graph  # parsed here once; replay_record reuses it
        except GraphError as exc:
            raise RecordError(f"record graph text does not parse: {exc}") from exc
        return record


@dataclass
class SweepResult:
    records: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write_jsonl(self, path):
        """Append the records to path; an OSError names the file, also when
        a write or flush (which knows no file name) fails."""
        try:
            with open(path, "a", encoding="utf-8") as fh:
                for record in self.records:
                    fh.write(record.to_json() + "\n")
                    fh.flush()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc


# bn_instance escalates a miss to uniform subdivisions with factors up to this.
BN_ESCALATION_KMAX = 3


def _random_divisor(graph: MultiGraph, rng) -> Divisor:
    n = len(graph.vertices)
    support = rng.sample(range(n), rng.randint(1, min(n, 4)))
    return Divisor(
        graph, {graph.vertices[i]: rng.randint(-2, 3) for i in support}
    )


# -- per-instance payload functions (shared by sweeps and replay) -----------


def bn_instance(graph: MultiGraph, params: dict, seed: int) -> dict:
    """Brill-Noether existence on one graph: for each r, is there a divisor
    of rank exactly r with degree at most the nonnegativity threshold?

    If no vertex-supported witness exists, the search escalates to uniform
    subdivisions with factors 2 up to BN_ESCALATION_KMAX = 3 (rational
    points of bounded denominator) before reporting a miss; the escalation
    is the bounded falsification hook for the metric-side statements.
    """
    g = genus(graph)
    out = {"genus": g, "per_rank": []}
    # One graph per factor k serves every r, and so does its rank session.
    subdivided = {1: graph}
    for r in range(1, params["rmax"] + 1):
        d = brill_noether_threshold(g, r)
        entry = {"r": r, "d_threshold": d, "found": False, "escalated_k": None}
        for k in range(1, BN_ESCALATION_KMAX + 1):
            if k not in subdivided:
                subdivided[k] = subdivide(graph, k)[0]
            witness = min_degree_grd(subdivided[k], r, d)
            if witness is not None:
                entry["found"] = k == 1
                entry["escalated_k"] = None if k == 1 else k
                entry["witness_degree"] = witness.degree
                entry["witness"] = witness.divisor.to_json_dict()
                break
        out["per_rank"].append(entry)
    out["conjecture_holds"] = all(e["found"] for e in out["per_rank"])
    return out


def gonality_instance(graph: MultiGraph, params: dict, seed: int) -> dict:
    g = genus(graph)
    bound = (g + 3) // 2
    value = gonality(graph)
    within = value <= bound
    return {
        "genus": g,
        "gonality": value,
        "bound": bound,
        "within_bound": within,
        # the bound is proved for genus <= 3, so a violation there is an
        # engine bug, not a conjecture counterexample
        "theorem_ok": within or g > 3,
    }


def subdivision_instance(graph: MultiGraph, params: dict, seed: int) -> dict:
    """Rank invariance under uniform subdivision (hard assertion) plus the
    minimal-degree invariance audit (conjecture; recorded, not asserted)."""
    rng = random.Random(seed)
    g = genus(graph)
    d = _random_divisor(graph, rng)
    base_rank = rank(graph, d)
    # One subdivided graph per k serves the rank check and the g^r_d audit.
    subdivided = {k: subdivide(graph, k) for k in range(2, params["kmax"] + 1)}
    ranks = {}
    for k, (sub, vmap) in subdivided.items():
        transported = Divisor(sub, {vmap[v]: c for v, c in d.items()})
        ranks[str(k)] = rank(sub, transported)
    theorem_ok = all(v == base_rank for v in ranks.values())
    out = {
        "genus": g,
        "divisor": d.to_json_dict(),
        "rank": base_rank,
        "subdivided_ranks": ranks,
        "theorem_ok": theorem_ok,
    }
    grd = {}
    holds = True
    for r in range(1, params["rmax"] + 1):
        base = min_degree_grd(graph, r, g + r)
        if base is None:
            raise AssertionError("degree g+r always carries rank r; bug")
        entry = {"base": base.degree, "subdivided": {}}
        for k, (sub, vmap) in subdivided.items():
            # The transported base witness must keep its rank, which
            # settles existence at the base degree; existence at a given
            # degree is monotone in the degree, so one check just below
            # the base rules out every smaller degree. Below the
            # Clifford/Riemann-Roch floor that check enumerates nothing.
            carried = Divisor(sub, {vmap[v]: c for v, c in base.divisor.items()})
            if rank(sub, carried) < r:
                raise AssertionError(
                    "rank must survive subdivision at the base degree; bug"
                )
            smaller = exists_grd_witness(sub, r, base.degree - 1)
            value = base.degree if smaller is None else smaller.degree
            entry["subdivided"][str(k)] = value
            if value != base.degree:
                holds = False
        grd[str(r)] = entry
    out["grd_degrees"] = grd
    out["conjecture_holds"] = holds
    return out


_INSTANCE_FUNCTIONS = {
    "bn_existence": bn_instance,
    "gonality_bound": gonality_instance,
    "subdivision_invariance": subdivision_instance,
}

# Per experiment: the int params its instance function reads, each with its
# least value, and the payload key whose False marks a finding.
_SPECS = {
    "bn_existence": ({"rmax": 1}, "conjecture_holds"),
    "gonality_bound": ({}, "within_bound"),
    "subdivision_invariance": ({"kmax": 2, "rmax": 1}, "conjecture_holds"),
}
# The least values of the sampler's arguments, and the JSON kinds of a
# record's entries.
_SAMPLER_LEAST = {"seed_count": 0, "gmax": 1, "nmax": 2}
_RECORD_KINDS = dict(experiment=str, graph=str, params=dict, result=dict, seed=int)


def _check_params(params, least, error):
    """Raise error naming the first key of least (name -> least value) whose
    entry in params is missing, not an int, or below its least value."""
    for key, low in least.items():
        got = params.get(key)
        if type(got) is not int or got < low:
            raise error(f"param {key!r} must be an int >= {low}, got {got!r}")


def _sweep(name, params, seed_count, seed, gmax, nmax, out):
    """Run experiment name with params on one graph per seed in seed ..
    seed + seed_count - 1, its genus and vertex count drawn per seed from
    [1, gmax] and [2, nmax]; append the records to out if given.

    The arguments are checked, and out is opened for appending, before the
    first graph is drawn; a check failure raises ValueError."""
    least, finding = _SPECS[name]
    sampler = {"seed_count": seed_count, "gmax": gmax, "nmax": nmax}
    _check_params({**sampler, **params}, {**_SAMPLER_LEAST, **least}, ValueError)
    if out is not None:
        open(out, "a", encoding="utf-8").close()
    result = SweepResult()
    fn = _INSTANCE_FUNCTIONS[name]
    for s in range(seed, seed + seed_count):
        rng = random.Random(f"sample:{s}")
        g = rng.randint(1, gmax)
        graph = random_multigraph(rng.randint(2, nmax), g, seed=s)
        started = time.perf_counter()
        payload = fn(graph, params, s)
        elapsed = (time.perf_counter() - started) * 1000.0
        record = ExperimentRecord(
            experiment=name,
            graph=serialize_graph(graph),
            params=params,
            result=payload,
            seed=s,
            wall_ms=round(elapsed, 3),
        )
        result.records.append(record)
        if payload[finding] is False:
            result.findings.append({"experiment": name, "seed": s, "result": payload})
        if not payload.get("theorem_ok", True):
            raise AssertionError(f"theorem violation in {name} at seed {s}: {payload}")
    if out is not None:
        result.write_jsonl(out)
    return result


def bn_existence_sweep(
    gmax: int, rmax: int, seed_count: int, seed: int = 0, nmax: int = 7, out=None
) -> SweepResult:
    """Brill-Noether existence audit over random graphs of genus <= gmax."""
    return _sweep("bn_existence", {"rmax": rmax}, seed_count, seed, gmax, nmax, out)


def gonality_bound_sweep(
    gmax: int, seed_count: int, seed: int = 0, nmax: int = 7, out=None
) -> SweepResult:
    """Gonality vs floor((g+3)/2) over random graphs, with per-genus maxima
    and the small-family tightness witnesses recorded on the side."""
    result = _sweep("gonality_bound", {}, seed_count, seed, gmax, nmax, out)
    max_seen = {}
    for record in result.records:
        g = record.result["genus"]
        max_seen[g] = max(max_seen.get(g, 0), record.result["gonality"])
    result.summary = {
        "max_gonality_per_genus": {str(g): v for g, v in sorted(max_seen.items())},
        "family_witnesses": _family_tightness(gmax),
    }
    return result


def _family_tightness(gmax: int):
    """Known family members whose gonality meets the bound exactly, as
    fresh dicts over the witnesses computed once per gmax."""
    return [
        {"graph": name, "genus": g, "gonality": value}
        for name, g, value in _family_witnesses(gmax)
    ]


@functools.cache
def _family_witnesses(gmax: int):
    """_family_tightness(gmax) as a tuple of (name, genus, gonality): a
    function of gmax alone, over fixed graphs."""
    from .graphs import banana_graph, complete_graph, cycle_graph

    witnesses = []
    candidates = [("cycle(3)", cycle_graph(3)), ("banana(3)", banana_graph(3))]
    n = 4
    while (n * (n - 1)) // 2 - n + 1 <= gmax:
        candidates.append((f"complete({n})", complete_graph(n)))
        n += 1
    for name, graph in candidates:
        g = genus(graph)
        if g > gmax:
            continue
        value = gonality(graph)
        bound = (g + 3) // 2
        if value == bound:
            witnesses.append((name, g, value))
    return tuple(witnesses)


def subdivision_invariance_sweep(
    kmax: int,
    seed_count: int,
    seed: int = 0,
    gmax: int = 5,
    nmax: int = 6,
    rmax: int = 2,
    out=None,
) -> SweepResult:
    """Rank invariance (hard) and minimal-degree invariance (audit) under
    uniform subdivision with factors up to kmax."""
    params = {"kmax": kmax, "rmax": rmax}
    return _sweep("subdivision_invariance", params, seed_count, seed, gmax, nmax, out)


# -- replay -----------------------------------------------------------------


def read_records(path):
    """The records of a JSONL file; a malformed one raises RecordError
    naming its line of the file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(ExperimentRecord.from_json(line))
                except RecordError as exc:
                    raise RecordError(f"{path}, line {number}: {exc}") from exc
    return records


def replay_record(record: ExperimentRecord):
    """Re-run one record's experiment on its stored graph and seed.

    Returns (matches, recomputed payload)."""
    fn = _INSTANCE_FUNCTIONS[record.experiment]
    payload = fn(record.parsed_graph, record.params, record.seed)
    return payload == record.result, payload


def replay_records(path):
    """Verify every record in a JSONL file; returns a list of
    (record, matches, recomputed)."""
    out = []
    for record in read_records(path):
        matches, payload = replay_record(record)
        out.append((record, matches, payload))
    return out
