"""Random instance generation, sweeps, records, and replay."""

import json

import pytest

import chipfire as cf
from chipfire import ExperimentRecord, GraphError, experiments


def test_random_multigraph_tree():
    g = cf.random_multigraph(6, 0, seed=1)
    assert cf.genus(g) == 0
    assert len(g.vertices) == 6
    assert len(g.edges) == 5


def test_random_multigraph_two_vertices_forced_banana():
    g = cf.random_multigraph(2, 2, seed=3)
    assert len(g.edges) == 3
    assert cf.genus(g) == 2
    assert g.multiplicity("v1", "v2") == 3


def test_random_multigraph_deterministic():
    a = cf.random_multigraph(6, 4, seed=42)
    b = cf.random_multigraph(6, 4, seed=42)
    assert a == b
    c = cf.random_multigraph(6, 4, seed=43)
    assert a != c or cf.serialize_graph(a) == cf.serialize_graph(c)


def test_random_multigraph_exact_genus():
    for i in range(20):
        n = 2 + i % 6
        g = i % 7
        graph = cf.random_multigraph(n, g, seed=i)
        assert cf.genus(graph) == g
        assert len(graph.vertices) == n


def test_random_multigraph_rejects_impossible():
    with pytest.raises(GraphError):
        cf.random_multigraph(1, 2, seed=0)


def test_brill_noether_threshold():
    # r = 1 reproduces the gonality bound floor((g+3)/2)
    for g in range(0, 12):
        assert cf.brill_noether_threshold(g, 1) == (g + 3) // 2
    assert cf.brill_noether_threshold(6, 2) == 6
    # threshold is the least d with nonnegative rho
    for g in range(1, 8):
        for r in (1, 2, 3):
            d = cf.brill_noether_threshold(g, r)
            assert g - (r + 1) * (g - d + r) >= 0
            assert g - (r + 1) * (g - (d - 1) + r) < 0


def test_record_json_round_trip():
    record = ExperimentRecord(
        experiment="bn_existence",
        graph="a b\n",
        params={"rmax": 1},
        result={"found": True},
        seed=7,
        wall_ms=1.25,
    )
    again = ExperimentRecord.from_json(record.to_json())
    assert again == record


def test_bn_sweep_records_and_determinism(tmp_path):
    out = tmp_path / "bn.jsonl"
    first = cf.bn_existence_sweep(gmax=3, rmax=1, seed_count=5, seed=11, out=str(out))
    second = cf.bn_existence_sweep(gmax=3, rmax=1, seed_count=5, seed=11)
    # payloads are byte-identical across runs; wall time is not part of them
    key = lambda r: json.dumps(
        [r.experiment, r.graph, r.params, r.result, r.seed], sort_keys=True
    )
    assert [key(r) for r in first.records] == [key(r) for r in second.records]
    assert first.findings == []
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        json.loads(line)


def test_bn_sweep_finds_hyperelliptic_witness_at_genus_two():
    result = cf.bn_existence_sweep(gmax=2, rmax=1, seed_count=8, seed=2)
    for record in result.records:
        if record.result["genus"] == 2:
            entry = record.result["per_rank"][0]
            assert entry["found"] and entry["witness_degree"] == 2


def test_gonality_sweep_within_lemma_range_for_small_genus():
    result = cf.gonality_bound_sweep(gmax=3, seed_count=12, seed=5)
    assert result.findings == []
    for record in result.records:
        assert record.result["within_bound"]
    assert result.summary["family_witnesses"]


def test_family_witnesses_computed_once_per_gmax(monkeypatch):
    """The tightness witnesses are a function of gmax over fixed graphs:
    a second sweep summary with the same gmax computes no gonality, and
    each caller gets dicts of its own."""
    calls = []
    real = experiments.gonality
    monkeypatch.setattr(experiments, "gonality", lambda g: calls.append(g) or real(g))
    experiments._family_witnesses.cache_clear()
    first = experiments._family_tightness(5)
    assert first == [
        {"graph": "cycle(3)", "genus": 1, "gonality": 2},
        {"graph": "banana(3)", "genus": 2, "gonality": 2},
        {"graph": "complete(4)", "genus": 3, "gonality": 3},
    ]
    assert len(calls) == 3
    first[0]["gonality"] = 99
    assert experiments._family_tightness(5)[0]["gonality"] == 2
    assert len(calls) == 3


def test_subdivision_sweep_theorem_and_audit():
    result = cf.subdivision_invariance_sweep(
        kmax=2, seed_count=4, seed=21, gmax=3, nmax=4
    )
    assert result.findings == []
    for record in result.records:
        assert record.result["theorem_ok"]
        grd = record.result["grd_degrees"]
        for entry in grd.values():
            for value in entry["subdivided"].values():
                assert value == entry["base"]


def test_subdivision_banana_example():
    graph = cf.banana_graph(3)
    payload = cf.experiments.subdivision_instance(
        graph, {"kmax": 2, "rmax": 1}, seed=0
    )
    assert payload["grd_degrees"]["1"]["base"] == 2
    assert payload["grd_degrees"]["1"]["subdivided"]["2"] == 2


def test_replay_matches(tmp_path):
    out = tmp_path / "replay.jsonl"
    cf.subdivision_invariance_sweep(
        kmax=2, seed_count=3, seed=31, gmax=3, nmax=4, out=str(out)
    )
    rows = cf.replay_records(str(out))
    assert len(rows) == 3
    for record, ok, recomputed in rows:
        assert ok, (record.seed, recomputed)


# Record lines as written when escalate_kmax and grd_audit were params.
_OLD_RECORDS = (
    '{"engine_version": "0.1.0", "experiment": "bn_existence", "graph": "# vertices:'
    ' v1 v2\\nv1 v2\\nv2 v1\\n", "params": {"escalate_kmax": 3, "rmax": 1}, "result":'
    ' {"conjecture_holds": true, "genus": 1, "per_rank": [{"d_threshold": 2,'
    ' "escalated_k": null, "found": true, "r": 1, "witness": {"v1": 2},'
    ' "witness_degree": 2}]}, "seed": 0, "wall_ms": 0.139}',
    '{"engine_version": "0.1.0", "experiment": "subdivision_invariance", "graph":'
    ' "# vertices: v1 v2\\nv1 v2\\nv2 v1\\n", "params": {"grd_audit": true, "kmax": 2,'
    ' "rmax": 1}, "result": {"conjecture_holds": true, "divisor": {"v1": 2},'
    ' "genus": 1, "grd_degrees": {"1": {"base": 2, "subdivided": {"2": 2}}},'
    ' "rank": 1, "subdivided_ranks": {"2": 1}, "theorem_ok": true}, "seed": 0,'
    ' "wall_ms": 0.366}',
)


def test_records_carry_only_the_params_read_and_old_records_replay(tmp_path):
    """A sweep records only the params its experiment reads; replay ignores
    params an experiment no longer reads."""
    bn = cf.bn_existence_sweep(gmax=1, rmax=1, seed_count=1, seed=0, nmax=2)
    sub = cf.subdivision_invariance_sweep(
        kmax=2, rmax=1, seed_count=1, seed=0, gmax=1, nmax=2
    )
    assert bn.records[0].params == {"rmax": 1}
    assert sub.records[0].params == {"kmax": 2, "rmax": 1}
    path = tmp_path / "old.jsonl"
    path.write_text("".join(line + "\n" for line in _OLD_RECORDS))
    rows = cf.replay_records(str(path))
    assert [ok for _, ok, _ in rows] == [True, True]
    assert [new for _, _, new in rows] == [bn.records[0].result, sub.records[0].result]


def test_replay_detects_tampering(tmp_path):
    out = tmp_path / "tampered.jsonl"
    cf.gonality_bound_sweep(gmax=2, seed_count=1, seed=77, out=str(out))
    record = cf.read_records(str(out))[0]
    bad = json.loads(record.to_json())
    bad["result"]["gonality"] = 99
    out.write_text(json.dumps(bad) + "\n")
    rows = cf.replay_records(str(out))
    assert not rows[0][1]


def test_theorem_violation_raises(monkeypatch):
    """A rank change under subdivision is an engine bug and must abort the
    sweep, unlike conjecture findings."""
    from chipfire import experiments

    def broken_instance(graph, params, seed):
        return {"theorem_ok": False, "conjecture_holds": True}

    monkeypatch.setitem(
        experiments._INSTANCE_FUNCTIONS, "subdivision_invariance", broken_instance
    )
    with pytest.raises(AssertionError):
        cf.subdivision_invariance_sweep(kmax=2, seed_count=1, seed=0, gmax=2, nmax=3)


def test_unwritable_out_fails_before_any_instance(tmp_path, monkeypatch):
    """An out path in a missing directory raises before the sweep runs."""
    from chipfire import experiments

    seen = []

    def spy(graph, params, seed):
        seen.append(seed)
        return experiments.gonality_instance(graph, params, seed)

    monkeypatch.setitem(experiments._INSTANCE_FUNCTIONS, "gonality_bound", spy)
    with pytest.raises(OSError):
        cf.gonality_bound_sweep(
            gmax=2, seed_count=2, seed=0, out=str(tmp_path / "missing" / "x.jsonl")
        )
    assert seen == []


def test_jsonl_append_only(tmp_path):
    out = tmp_path / "append.jsonl"
    cf.gonality_bound_sweep(gmax=2, seed_count=2, seed=1, out=str(out))
    cf.gonality_bound_sweep(gmax=2, seed_count=2, seed=50, out=str(out))
    assert len(out.read_text().strip().splitlines()) == 4
