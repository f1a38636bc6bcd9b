"""The command-line surface: parsing, payloads, exit codes."""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import chipfire as cf
from chipfire import __version__, cli
from chipfire.cli import CommandResult, main
from chipfire.experiments import SweepResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_rank_banana(capsys):
    code, payload = run_json(capsys, "rank", "banana(3)", '{"Q1": 1, "Q2": 1}')
    assert code == 0
    assert payload == {"rank": 1, "status": "ok"}


def test_rank_certificate_negative(capsys):
    code, payload = run_json(
        capsys, "rank", "banana(3)", '{"Q1": -1, "Q2": 2}', "--certificate"
    )
    assert code == 0
    assert payload["rank"] == -1
    assert payload["nuOrdering"] == ["Q1", "Q2"]
    assert payload["nu"] == {"Q1": -1, "Q2": 2}


def test_rank_malformed_json_exits_nonzero(capsys):
    code, out, err = run(capsys, "rank", "banana(3)", "{bad")
    assert code == 1
    assert "JSON" in err
    assert "column" in err


def test_rank_inline_edge_list(capsys):
    code, payload = run_json(capsys, "rank", "a b;a b;a b", '{"a": 1, "b": 1}')
    assert code == 0 and payload["rank"] == 1


def test_graph_from_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("a b\na b\na b\n")
    code, payload = run_json(capsys, "rank", f"@{path}", '{"a": 1, "b": 1}')
    assert code == 0 and payload["rank"] == 1


def test_gonality_complete(capsys):
    code, payload = run_json(capsys, "gonality", "complete(4)")
    assert code == 0
    assert payload["gonality"] == 3
    assert payload["hyperelliptic"] is False


def test_grd(capsys):
    code, payload = run_json(capsys, "grd", "complete(4)", "--r", "2", "--dmax", "5")
    assert code == 0
    assert payload["found"] and payload["rank"] == 2


def test_weierstrass(capsys):
    code, payload = run_json(capsys, "weierstrass", "complete(4)")
    assert payload["weierstrassPoints"] == ["v1", "v2", "v3", "v4"]


def test_gaps(capsys):
    code, payload = run_json(capsys, "gaps", "banana(3)", "Q1")
    assert payload["gaps"] == [1, 2]


def test_jacobian(capsys):
    code, payload = run_json(capsys, "jacobian", "complete(4)")
    assert payload["invariantFactors"] == [4, 4]
    assert payload["order"] == payload["spanningTrees"] == 16


def test_qrank(capsys):
    code, payload = run_json(
        capsys,
        "qrank",
        "Q1 Q2 1;Q1 Q2 1;Q1 Q2 1;Q1 Q2 1",
        '[{"edge": 0, "offset": "1/2", "coeff": 3}]',
    )
    assert code == 0 and payload["rank"] == 1


def test_norine_scan(capsys):
    code, payload = run_json(capsys, "norine-scan", "--n", "4", "--den", "6")
    ranks = {p["offset"]: p["rank"] for p in payload["points"]}
    assert ranks["1/2"] >= 1 and ranks["0"] == 0


def test_semicontinuity(capsys):
    code, payload = run_json(
        capsys,
        "--seed",
        "9",
        "semicontinuity",
        "Q1 Q2 1;Q1 Q2 1;Q1 Q2 1;Q1 Q2 1",
        '[{"edge": 0, "offset": "1/2", "coeff": 3}]',
        "--eps",
        "1/6",
        "--samples",
        "3",
    )
    assert code == 0
    assert payload["violations"] == []
    assert payload["baseRank"] == 1


def test_semicontinuity_malformed_eps_is_error(capsys):
    for eps in ("x", "1/0"):
        code, payload = run_json(
            capsys, "semicontinuity", "banana(4)",
            '[{"edge": 0, "offset": "1/2", "coeff": 3}]', "--eps", eps,
        )
        assert code == 1, eps
        assert payload["status"] == "error", eps
        assert "eps" in payload["error"], eps


def test_semicontinuity_on_a_graph_with_no_edges_is_error(capsys):
    code, payload = run_json(
        capsys, "semicontinuity", "# vertices: a", '[{"vertex": "a", "coeff": 1}]',
        "--eps", "1/6", "--samples", "1",
    )
    assert code == 1
    assert payload["status"] == "error"
    assert "no edges" in payload["error"]


def test_rrcheck(capsys):
    code, payload = run_json(capsys, "rrcheck", "banana(3)", '{"Q1": 1, "Q2": 1}')
    assert code == 0 and payload["equal"] is True


def test_specialize_bundled_fixture(capsys):
    code, payload = run_json(capsys, "specialize")
    assert code == 0
    named = {row["name"]: row for row in payload["divisors"]}
    assert named["K1"]["specialized"] == {"P'": 1, "Q1": 3}
    assert all(named[k]["equivalentToCanonical"] for k in ("K1", "K2", "K3", "K4"))
    assert named["gonality"]["rankG"] >= 1


def test_sweep_and_replay(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    code, payload = run_json(
        capsys,
        "--seed",
        "3",
        "sweep",
        "gonality",
        "--gmax",
        "3",
        "--seeds",
        "4",
        "--out",
        str(out),
    )
    assert code == 0
    assert payload["records"] == 4 and payload["findings"] == []
    code2, payload2 = run_json(capsys, "replay", str(out))
    assert code2 == 0 and payload2["mismatches"] == []


def test_fixtures_all_pass(capsys):
    code, payload = run_json(capsys, "fixtures")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] > 20


def test_fixtures_human_table(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_json_output_stable_across_runs(capsys):
    args = ("--json", "jacobian", "complete(4)")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_unknown_command_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0


def test_exit_code_contract():
    ok = CommandResult("ok", {})
    finding = CommandResult("finding", {})
    error = CommandResult("error", {})
    assert ok.exit_code(strict=False) == 0
    assert ok.exit_code(strict=True) == 0
    assert finding.exit_code(strict=False) == 0
    assert finding.exit_code(strict=True) == 2
    assert error.exit_code(strict=False) == 1


def test_replay_missing_file_is_input_error(tmp_path, capsys):
    code, payload = run_json(capsys, "replay", str(tmp_path / "missing.jsonl"))
    assert code == 1
    assert payload["status"] == "error"
    assert "missing.jsonl" in payload["error"]


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"experiment": "nope", "graph": "a b", "params": {}, "result": {},'
         ' "seed": 1}', "unknown experiment 'nope'"),
        ('{"graph": "a b", "params": {}, "result": {}, "seed": 1}',
         "needs str 'experiment', got None"),
        ("[1, 2]", "must be a JSON object"),
        ('{"experiment": "subdivision_invariance", "graph": "a b", "params": {},'
         ' "result": {}, "seed": 1}', "param 'kmax'"),
        ('{"experiment": "bn_existence", "graph": "a b", "params": {"rmax": "2",'
         ' "escalate_kmax": 3}, "result": {}, "seed": 1}', "param 'rmax'"),
        ('{"experiment": "subdivision_invariance", "graph": "a b", "params":'
         ' {"kmax": 1, "rmax": 2}, "result": {}, "seed": 1}',
         "param 'kmax' must be an int >= 2, got 1"),
        ('{"experiment": "bn_existence", "graph": "a b", "params": {"rmax": 0},'
         ' "result": {}, "seed": 1}', "param 'rmax' must be an int >= 1, got 0"),
        ('{"experiment": "gonality_bound", "graph": "a a\\n", "params": {},'
         ' "result": {}, "seed": 1}', "line 2: record graph text does not parse"),
        ('{"experiment": "gonality_bound", "graph": "a b", "params": {},'
         ' "result": [], "seed": 1}', "needs dict 'result', got []"),
        ("not json", "line 2"),
    ],
)
def test_replay_malformed_record_is_error(tmp_path, capsys, line, message):
    """A malformed record is a typed error, also after a valid record."""
    path = tmp_path / "bad.jsonl"
    good = '{"experiment": "gonality_bound", "graph": "a b", "params": {},'
    path.write_text(good + ' "result": {}, "seed": 1}\n' + line + "\n")
    code, payload = run_json(capsys, "replay", str(path))
    assert code == 1
    assert payload["status"] == "error"
    assert message in payload["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # failing evidence at rank + 1: a search 4,999 levels deep
        ("rank", "banana(3)", '{"Q1": 5000}', "--certificate"),
        ("qrank", "banana(4)", '[{"vertex": "Q1", "coeff": 5000}]'),
    ],
)
def test_too_deep_rank_search_is_error(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["status"] == "error"
    assert "recursion limit" in payload["error"]


def test_high_degree_rank_needs_no_deep_search(capsys):
    code, payload = run_json(capsys, "rank", "banana(3)", '{"Q1": 5000}')
    assert code == 0
    assert payload == {"rank": 4998, "status": "ok"}


def test_qrank_malformed_entries_are_input_errors(capsys):
    banana = "Q1 Q2 1;Q1 Q2 1;Q1 Q2 1"
    for divisor in (
        "[3]",
        '[{"edge": 0, "offset": "1/2"}]',
        '[{"coeff": 1}]',
        '[{"edge": 0, "coeff": 1}]',
        '[{"edge": [0], "offset": "1/2", "coeff": 1}]',
        '[{"vertex": "Q1", "coeff": null}]',
        '[{"vertex": "Q1", "coeff": true}]',
        '[{"vertex": "Q1", "coeff": 1.5}]',
        '[{"edge": 0, "offset": "1/2", "coeff": "x"}]',
        '[{"edge": true, "offset": "1/2", "coeff": 1}]',
        '[{"edge": 0, "offset": 0.5, "coeff": 3}]',
        '[{"edge": 0, "offset": 1e-17, "coeff": 3}]',
    ):
        code, payload = run_json(capsys, "qrank", banana, divisor)
        assert code == 1, divisor
        assert payload["status"] == "error", divisor
        assert "entry" in payload["error"], divisor


def test_rank_non_integer_coefficient_is_input_error(capsys):
    for divisor in (
        '{"Q1": null}',
        '{"Q1": 1.5, "Q2": true}',
        '{"Q1": true}',
        '{"Q1": 2.0}',
        '{"Q1": "one"}',
    ):
        code, payload = run_json(capsys, "rank", "banana(3)", divisor)
        assert code == 1, divisor
        assert payload["status"] == "error", divisor


def test_sweep_out_into_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.jsonl"
    code, payload = run_json(
        capsys, "sweep", "gonality", "--gmax", "2", "--seeds", "1", "--out", str(out)
    )
    assert code == 1
    assert payload["status"] == "error"
    assert "x.jsonl" in payload["error"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_sweep_out_that_cannot_be_written_is_error(capsys):
    """Opening /dev/full succeeds; writing the records fails."""
    code, payload = run_json(
        capsys, "sweep", "gonality", "--gmax", "2", "--seeds", "1", "--out", "/dev/full"
    )
    assert code == 1
    assert payload["status"] == "error"
    assert "/dev/full" in payload["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "gonality", "--seeds", "x"), "argument --seeds: invalid int value: 'x'"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
    ],
)
def test_usage_error_under_json_is_error_payload(capsys, argv, message):
    """argparse's refusal is the payload's error, on stdout, with exit 1."""
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["error"].startswith(message)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: chipfire") and message in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("sweep", "gonality", "--seeds", "-3"), "seed_count"),
        (("sweep", "gonality", "--gmax", "0"), "gmax"),
        (("sweep", "bn", "--rmax", "-1"), "rmax"),
        (("sweep", "subdivision", "--rmax", "0"), "rmax"),
        (("semicontinuity", "banana(4)", '[{"edge": 0, "offset": "1/2", "coeff": 3}]',
          "--eps", "1/6", "--samples", "-2"), "samples"),
    ],
)
def test_out_of_range_count_is_error(capsys, argv, name):
    """A count out of range is refused, not read as an empty run. The CLI
    names its flag; past the parser, the library names its parameter."""
    code, payload = run_json(capsys, *argv)
    flag, value = argv[-2:]
    assert code == 1
    assert payload["status"] == "error"
    assert f"argument {flag}: must be >= " in payload["error"]
    args = cli.build_parser().parse_args([*argv[:-1], "5"])
    setattr(args, flag[2:], int(value))
    with pytest.raises(ValueError, match=name):
        args.fn(args)


def test_specialize_bad_fixtures_are_input_errors(tmp_path, capsys):
    code, payload = run_json(capsys, "specialize", str(tmp_path / "missing.json"))
    assert code == 1
    assert payload["status"] == "error"
    assert "missing.json" in payload["error"]
    bundled = json.loads(
        (resources.files("chipfire") / "fixtures" / "quartic_x0.json").read_text()
    )

    def changed(edit):
        data = json.loads(json.dumps(bundled))
        edit(data)
        return data

    point = next(iter(bundled["divisors"][0]["coeffs"]))

    def first(data):
        return data["divisors"][0]

    for data, needle in (
        (changed(lambda d: d.pop("divisors")), "divisors"),
        (changed(lambda d: first(d)["coeffs"].update({point: 1.5})), "1.5"),
        (changed(lambda d: first(d).update(coeffs=[[point, 1]])), "coeffs"),
        (changed(lambda d: d.update(assignments=5)), "assignments"),
        (changed(lambda d: d.update(divisors=5)), "divisors"),
        (changed(lambda d: d.update(graph=5)), "graph"),
        (changed(lambda d: first(d).update(statedRank=1.5)), "statedRank"),
        (changed(lambda d: first(d).update(statedRank=True)), "statedRank"),
        ([bundled], "object"),
    ):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(data))
        code, payload = run_json(capsys, "specialize", str(path))
        assert code == 1, needle
        assert payload["status"] == "error", needle
        assert needle in payload["error"]
        code, out, err = run(capsys, "specialize", str(path))
        assert code == 1 and out == "", needle
        assert err.startswith("error:"), needle


# One process, many main() calls: a flag given on one call must not reach the
# next. Each entry is (argv, expected exit code).
MIXED_CALLS = (
    (("--version",), 0),
    (("--help",), 0),
    (("rank", "--help"), 0),
    (("rank", "banana(3)"), 1),  # usage error: no divisor
    (("--json", "jacobian", "complete(4)"), 0),
    (("jacobian", "complete(4)"), 0),
    (("--json", "--seed", "5", "sweep", "gonality"), 0),
    (("--json", "sweep", "gonality"), 0),
    (("--json", "sweep", "gonality", "--seed", "5"), 0),
    (("sweep", "gonality"), 0),
    (("--strict", "--json", "sweep", "gonality"), 2),
    (("--json", "sweep", "gonality"), 0),
    (("sweep", "gonality", "--strict", "--json"), 2),
    (("--json", "sweep", "gonality"), 0),
    (("frobnicate",), 1),
    (("--json", "rank", "banana(3)", '{"Q1": 1, "Q2": 1}'), 0),
)


def _sweep_finding(gmax, seed_count, seed, out):
    """Stand-in sweep that reports one finding naming the seed it was given."""
    result = SweepResult()
    result.findings.append({"experiment": "gonality_bound", "seed": seed})
    return result


def test_repeated_main_calls_share_one_parser(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gonality_bound_sweep", _sweep_finding)
    with monkeypatch.context() as patch:
        # the uncached builder: a fresh parser for every call
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv, _ in MIXED_CALLS]
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv, _ in MIXED_CALLS]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(MIXED_CALLS) - 1)
    assert shared == fresh
    for (argv, expected), (code, out, _) in zip(MIXED_CALLS, shared):
        assert code == expected, argv
        assert out.startswith("{") == ("--json" in argv), argv
        if "sweep" in argv and "--json" in argv:
            seed = json.loads(out)["findings"][0]["seed"]
            assert seed == (5 if "--seed" in argv else 0), argv
    assert shared[0][1].strip() == __version__


# -- --json payloads are data: they parse, carry status and round-trip --------


def _round_trip(*argv):
    """Run main(["--json", *argv]) and return its payload after checking
    that stdout is one JSON object with a status that matches the exit
    code, and that json.loads/json.dumps reproduce it unchanged."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", *argv])
    text = out.getvalue()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert json.loads(json.dumps(payload)) == payload
    assert payload["status"] in ("ok", "finding", "error")
    assert code == (1 if payload["status"] == "error" else 0)
    return payload


_COEFFS = st.one_of(
    st.integers(-2, 3), st.integers(-2, 3), st.sampled_from([True, 1.5, None, "1"])
)


@st.composite
def _graph_and_divisor(draw):
    seed = draw(st.integers(0, 10**6))
    n, genus = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    g = cf.random_multigraph(n, genus, seed=seed)
    spec = ";".join(f"{u} {v}" for u, v in g.edges)
    labels = st.sampled_from(list(g.vertices) + ["nowhere"])
    coeffs = draw(st.dictionaries(labels, _COEFFS, max_size=3))
    return spec, json.dumps(coeffs)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_graph_and_divisor(), st.booleans())
def test_rank_json_round_trip(graph_and_divisor, certificate):
    spec, divisor = graph_and_divisor
    flags = ["--certificate"] if certificate else []
    payload = _round_trip("rank", spec, divisor, *flags)
    assert ("rank" in payload) == (payload["status"] == "ok")


_LENGTHS = st.sampled_from(["1", "1/2", "2/3", "3/2", "2"])
_OFFSETS = st.builds(
    "{}/{}".format, st.integers(-1, 3), st.integers(0, 3)
) | st.sampled_from(["0", "1", "abc", None, 0.5])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.lists(_LENGTHS, min_size=2, max_size=4),
    st.lists(
        st.fixed_dictionaries(
            {"edge": st.integers(-1, 4), "offset": _OFFSETS, "coeff": _COEFFS}
        ),
        max_size=3,
    ),
    st.booleans(),
)
def test_qrank_json_round_trip(lengths, entries, no_audit):
    spec = ";".join(f"Q1 Q2 {length}" for length in lengths)
    flags = ["--no-audit"] if no_audit else []
    payload = _round_trip("qrank", spec, json.dumps(entries), *flags)
    assert ("rank" in payload) == (payload["status"] == "ok")


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    st.sampled_from(["gonality", "bn", "subdivision"]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 10**6),
)
def test_sweep_and_replay_json_round_trip(kind, gmax, seeds, seed):
    if kind == "subdivision":
        gmax = min(gmax, 2)  # genus 3 audits can take seconds each
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.jsonl")
        swept = _round_trip(
            "--seed", str(seed), "sweep", kind,
            "--gmax", str(gmax), "--seeds", str(seeds), "--out", path,
        )
        assert swept["records"] == seeds
        replayed = _round_trip("replay", path)
    assert replayed["status"] == "ok" and replayed["records"] == seeds
