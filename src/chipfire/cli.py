"""Command-line entry point wiring every module, with machine-readable output.

One binary, subcommand style. Every command supports --json for a stable
structured payload; all randomness is controlled by an explicit --seed.
Exit codes: 0 on success, 1 on error, 2 for findings under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from . import __version__
from .errors import ChipfireError
from .graphs import family, genus, parse_graph
from .divisors import Divisor, canonical_divisor
from .rank import rank, rank_with_certificate, riemann_roch_check
from .linear_systems import (
    gap_sequence,
    gonality,
    is_hyperelliptic,
    min_degree_grd,
    weierstrass_points,
)
from .jacobian import jacobian_structure, spanning_tree_count
from .metric import QDivisor, QGraph, norine_scan, parse_qgraph, q_rank, semicontinuity_probe
from .specialization import fixture_reports, load_fixture
from .experiments import (
    bn_existence_sweep,
    gonality_bound_sweep,
    replay_records,
    subdivision_invariance_sweep,
)


@dataclass
class CommandResult:
    status: str  # ok | finding | error
    payload: dict

    def exit_code(self, strict: bool) -> int:
        if self.status == "error":
            return 1
        if self.status == "finding" and strict:
            return 2
        return 0


class InputError(ChipfireError):
    """A divisor argument that is not JSON of the expected shape, or a bad
    metric divisor entry; unreadable paths surface as OSError."""


_FAMILY_RE = re.compile(r"^([a-z_]+)\(([-0-9,\s]*)\)$")


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _load_graph(arg: str):
    """Graph argument: @file, a family like banana(3), or inline edge text
    (';' accepted as a line separator)."""
    match = _FAMILY_RE.match(arg.strip())
    if match:
        name = match.group(1)
        params = [int(p) for p in match.group(2).split(",") if p.strip()]
        return family(name, *params)
    return parse_graph(_read_arg(arg).replace(";", "\n"))


def _load_qgraph(arg: str):
    if _FAMILY_RE.match(arg.strip()):
        return QGraph.unit(_load_graph(arg))
    return parse_qgraph(_read_arg(arg).replace(";", "\n"))


def _load_json(arg: str, kind, shape: str):
    """The divisor argument (inline or @file) as JSON of the given kind;
    the divisor constructors check what it holds."""
    try:
        data = json.loads(_read_arg(arg))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"divisor is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    if not isinstance(data, kind):
        raise InputError(shape)
    return data


def _load_divisor(graph, arg: str) -> Divisor:
    return Divisor(
        graph, _load_json(arg, dict, "divisor JSON must be an object of label: integer")
    )


def _load_qdivisor(qgraph, arg: str) -> QDivisor:
    data = _load_json(
        arg, list,
        'metric divisor JSON must be a list of {"edge", "offset", "coeff"}'
        ' or {"vertex", "coeff"} entries',
    )
    total = QDivisor(qgraph)
    for entry in data:
        if not isinstance(entry, dict) or "coeff" not in entry or not (
            "vertex" in entry or ("edge" in entry and "offset" in entry)
        ):
            raise InputError(
                'each metric divisor entry must be an object with "coeff" and'
                f' either "vertex" or "edge" and "offset"; got {entry!r}'
            )
        try:
            if "vertex" in entry:
                point = qgraph.vertex_point(entry["vertex"])
            else:
                # The raw JSON values: point() refuses a float offset, which
                # would otherwise be silently rounded to a binary fraction.
                point = qgraph.point(entry["edge"], entry["offset"])
            total += QDivisor(qgraph, {point: entry["coeff"]})
        except ChipfireError as exc:
            raise InputError(f"bad metric divisor entry {entry!r}: {exc}") from exc
    return total


# -- commands ------------------------------------------------------------


def _cmd_rank(args) -> CommandResult:
    g = _load_graph(args.graph)
    d = _load_divisor(g, args.divisor)
    if not args.certificate:
        return CommandResult("ok", {"rank": rank(g, d)})
    res = rank_with_certificate(g, d)
    payload = {"rank": res.rank}
    if res.rank >= 0:
        payload["witness"] = res.effective_witness.to_json_dict()
        payload["failingE"] = res.failing_evidence.to_json_dict()
    else:
        payload["nuOrdering"] = list(res.nu_ordering)
        payload["nu"] = res.nu.to_json_dict()
    return CommandResult("ok", payload)


def _cmd_gonality(args) -> CommandResult:
    g = _load_graph(args.graph)
    witness = min_degree_grd(g, 1, genus(g) + 1)
    return CommandResult(
        "ok",
        {
            "gonality": witness.degree,
            "genus": genus(g),
            "hyperelliptic": genus(g) >= 2 and witness.degree == 2,
            "witness": witness.divisor.to_json_dict(),
        },
    )


def _cmd_grd(args) -> CommandResult:
    g = _load_graph(args.graph)
    witness = min_degree_grd(g, args.r, args.dmax)
    if witness is None:
        return CommandResult(
            "ok", {"found": False, "r": args.r, "dmax": args.dmax}
        )
    return CommandResult(
        "ok",
        {
            "found": True,
            "degree": witness.degree,
            "rank": witness.rank,
            "divisor": witness.divisor.to_json_dict(),
        },
    )


def _cmd_weierstrass(args) -> CommandResult:
    g = _load_graph(args.graph)
    points = weierstrass_points(g)
    return CommandResult(
        "ok", {"weierstrassPoints": list(points), "genus": genus(g)}
    )


def _cmd_gaps(args) -> CommandResult:
    g = _load_graph(args.graph)
    gaps = gap_sequence(g, args.vertex)
    return CommandResult(
        "ok", {"vertex": args.vertex, "gaps": gaps, "genus": genus(g)}
    )


def _cmd_jacobian(args) -> CommandResult:
    g = _load_graph(args.graph)
    structure = jacobian_structure(g)
    return CommandResult(
        "ok",
        {
            "invariantFactors": list(structure.nontrivial_factors),
            "order": structure.order,
            "spanningTrees": spanning_tree_count(g),
        },
    )


def _cmd_qrank(args) -> CommandResult:
    qg = _load_qgraph(args.graph)
    d = _load_qdivisor(qg, args.divisor)
    value = q_rank(qg, d, audit=not args.no_audit)
    return CommandResult("ok", {"rank": value, "degree": d.degree})


def _cmd_norine_scan(args) -> CommandResult:
    points = [
        {"offset": str(offset), "rank": value}
        for offset, value in norine_scan(args.n, args.den)
    ]
    return CommandResult("ok", {"n": args.n, "denominator": args.den, "points": points})


def _cmd_semicontinuity(args) -> CommandResult:
    qg = _load_qgraph(args.graph)
    d = _load_qdivisor(qg, args.divisor)
    report = semicontinuity_probe(
        qg, d, eps=args.eps, samples=args.samples, seed=args.seed
    )
    payload = {
        "baseRank": report.base_rank,
        "samples": len(report.records),
        "violations": [
            {
                "index": r.index,
                "lengthDeltas": [str(x) for x in r.length_deltas],
                "ranks": list(r.ranks),
            }
            for r in report.violations
        ],
    }
    status = "finding" if report.violations else "ok"
    return CommandResult(status, payload)


def _cmd_rrcheck(args) -> CommandResult:
    g = _load_graph(args.graph)
    d = _load_divisor(g, args.divisor)
    report = riemann_roch_check(g, d)
    return CommandResult(
        "ok" if report.equal else "error",
        {
            "rank": report.rank,
            "canonicalMinusRank": report.canonical_minus_rank,
            "degree": report.degree,
            "genus": report.genus,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "equal": report.equal,
        },
    )


def _cmd_specialize(args) -> CommandResult:
    fixture = load_fixture(args.fixture)
    g = fixture.graph
    k = canonical_divisor(g)
    rows = []
    all_hold = True
    for report, equivalent in fixture_reports(fixture):
        all_hold = all_hold and report.bound_holds
        rows.append(
            {
                "name": report.name,
                "specialized": report.specialized.to_json_dict(),
                "degree": report.specialized.degree,
                "rankG": report.graph_rank,
                "statedRank": report.stated_rank,
                "lemmaOk": report.bound_holds,
                "equivalentToCanonical": equivalent,
            }
        )
    return CommandResult(
        "ok" if all_hold else "error",
        {
            "canonical": k.to_json_dict(),
            "divisors": rows,
            "provenance": fixture.provenance,
        },
    )


def _cmd_sweep(args) -> CommandResult:
    # Looked up on each call, so a test can stand in for a sweep function.
    sweep, flags = {
        "bn": (bn_existence_sweep, ("gmax", "rmax")),
        "gonality": (gonality_bound_sweep, ("gmax",)),
        "subdivision": (subdivision_invariance_sweep, ("gmax", "rmax", "kmax")),
    }[args.kind]
    result = sweep(
        seed_count=args.seeds,
        seed=args.seed,
        out=args.out,
        **{flag: getattr(args, flag) for flag in flags},
    )
    payload = {
        "kind": args.kind,
        "records": len(result.records),
        "findings": result.findings,
        "out": args.out,
    }
    if result.summary:
        payload["summary"] = result.summary
    return CommandResult("finding" if result.findings else "ok", payload)


def _cmd_replay(args) -> CommandResult:
    rows = replay_records(args.file)
    mismatches = [
        {"experiment": rec.experiment, "seed": rec.seed, "recomputed": new}
        for rec, ok, new in rows
        if not ok
    ]
    return CommandResult(
        "ok" if not mismatches else "error",
        {"records": len(rows), "mismatches": mismatches},
    )


def _cmd_fixtures(args) -> CommandResult:
    from .graphs import banana_graph, complete_graph

    checks = []

    def check(name, expected, actual):
        checks.append(
            {"check": name, "expected": expected, "actual": actual,
             "pass": expected == actual}
        )

    fixture = load_fixture()
    g = fixture.graph
    k = canonical_divisor(g)
    check("quartic gonality", 3, gonality(g))
    check("quartic weierstrass", ["Q1", "Q2"], list(weierstrass_points(g)))
    check("quartic canonical rank", 2, rank(g, k))
    check("quartic rank(3(Q1)) >= 1", True, rank(g, Divisor(g, {"Q1": 3})) >= 1)
    for report, equivalent in fixture_reports(fixture):
        if report.name.startswith("K"):
            check(f"quartic {report.name} ~ canonical", True, equivalent)
        check(f"quartic {report.name} rank bound", True, report.bound_holds)
    for n in range(3, 7):
        check(f"complete({n}) gonality", n - 1, gonality(complete_graph(n)))
    for n in range(4, 7):
        kn = complete_graph(n)
        check(
            f"complete({n}) all vertices Weierstrass",
            list(kn.vertices),
            list(weierstrass_points(kn)),
        )
    for n in range(3, 9):
        bn = banana_graph(n)
        check(
            f"banana({n}) rank((Q1)+(Q2))",
            1,
            rank(bn, Divisor(bn, {"Q1": 1, "Q2": 1})),
        )
        check(f"banana({n}) weierstrass", [], list(weierstrass_points(bn)))
        check(f"banana({n}) hyperelliptic", True, is_hyperelliptic(bn))
    failed = [c for c in checks if not c["pass"]]
    return CommandResult(
        "ok" if not failed else "error",
        {"checks": checks, "passed": len(checks) - len(failed), "failed": len(failed)},
    )


# -- dispatch -------------------------------------------------------------


class _UsageError(Exception):
    """A command line that argparse refuses: its message, and the usage
    text argparse would print with it."""

    def __init__(self, message, text):
        super().__init__(message)
        self.text = text


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit 2, so
    main can report it like any other input error."""

    def error(self, message):
        raise _UsageError(message, f"{self.format_usage()}{self.prog}: error: {message}")


def _at_least(least):
    """argparse type for an integer flag >= least, so a range error names
    the flag; the library keeps its own check for library callers."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


def _global_flags(parser, suppress):
    """Install the global flags; subparsers get SUPPRESS defaults so values
    set before the subcommand survive."""

    def add(flag, default, **kwargs):
        default = argparse.SUPPRESS if suppress else default
        parser.add_argument(flag, default=default, **kwargs)

    add("--json", False, action="store_true", help="structured output")
    add("--seed", 0, type=int, help="base random seed")
    add("--strict", False, action="store_true", help="exit 2 when findings are reported")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later main() call in the process; callers must not modify it.

    Sharing is safe: parse_args returns a fresh Namespace each time, and the
    subparsers' copies of the global flags default to SUPPRESS, so no value
    carries over from one call to the next.
    """
    parser = _Parser(
        prog="chipfire",
        description="Exact divisor theory on multigraphs and metric Q-graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    _global_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _global_flags(common, suppress=True)
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subparsers.add_parser, parents=[common])

    p = add_parser("rank", help="divisor rank, optionally with certificates")
    p.add_argument("graph")
    p.add_argument("divisor", help='JSON like {"Q1": 1} or @file')
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(fn=_cmd_rank)

    p = add_parser("gonality", help="least degree of a rank-1 system")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_gonality)

    p = add_parser("grd", help="minimal-degree system of given rank")
    p.add_argument("graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(fn=_cmd_grd)

    p = add_parser("weierstrass", help="vertices with rank(g(P)) >= 1")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_weierstrass)

    p = add_parser("gaps", help="Weierstrass gap sequence of a vertex")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.set_defaults(fn=_cmd_gaps)

    p = add_parser("jacobian", help="divisor class group structure")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_jacobian)

    p = add_parser("qrank", help="rank of a rational divisor on a metric graph")
    p.add_argument("graph", help="edge list with rational lengths")
    p.add_argument("divisor", help='JSON list of {"edge", "offset", "coeff"}')
    p.add_argument("--no-audit", action="store_true")
    p.set_defaults(fn=_cmd_qrank)

    p = add_parser("norine-scan", help="ranks of 3(P) along a banana edge")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--den", type=int, required=True)
    p.set_defaults(fn=_cmd_norine_scan)

    p = add_parser("semicontinuity", help="rank upper-semicontinuity probe")
    p.add_argument("graph")
    p.add_argument("divisor")
    p.add_argument("--eps", required=True, help="rational like 1/6")
    p.add_argument("--samples", type=_at_least(0), default=50)
    p.set_defaults(fn=_cmd_semicontinuity)

    p = add_parser("rrcheck", help="both sides of the rank identity")
    p.add_argument("graph")
    p.add_argument("divisor")
    p.set_defaults(fn=_cmd_rrcheck)

    p = add_parser("specialize", help="push curve divisors to the dual graph")
    p.add_argument(
        "fixture", nargs="?", default=None, help="fixture JSON (default: bundled quartic)"
    )
    p.set_defaults(fn=_cmd_specialize)

    p = add_parser("sweep", help="seeded conjecture sweeps")
    p.add_argument("kind", choices=["bn", "gonality", "subdivision"])
    p.add_argument("--gmax", type=_at_least(1), default=6)
    p.add_argument("--seeds", type=_at_least(0), default=50)
    p.add_argument("--rmax", type=_at_least(1), default=2)
    p.add_argument("--kmax", type=_at_least(2), default=3)
    p.add_argument("--out", default=None, help="append records to this JSONL file")
    p.set_defaults(fn=_cmd_sweep)

    p = add_parser("replay", help="re-verify a JSONL record file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_replay)

    p = add_parser("fixtures", help="run the bundled assertion suite")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def _human(result: CommandResult, command: str):
    payload = result.payload
    if command == "fixtures":
        width = max(len(c["check"]) for c in payload["checks"])
        for c in payload["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            print(f"{c['check']:<{width}}  {mark}  (got {c['actual']!r})")
        print(f"{payload['passed']} passed, {payload['failed']} failed")
        return
    if command == "norine-scan":
        for point in payload["points"]:
            print(f"offset {point['offset']:>6}: rank {point['rank']}")
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return 0 if not exc.code else 1
    except _UsageError as exc:
        # Exit 1, not argparse's 2, which is reserved for findings under
        # --strict. The flags did not parse, so look for --json by name.
        if "--json" in argv:
            print(json.dumps({"status": "error", "error": str(exc)}, sort_keys=True))
        else:
            print(exc.text, file=sys.stderr)
        return 1
    try:
        result = args.fn(args)
    except (ChipfireError, ValueError, OSError) as exc:
        # OSError: an unreadable or unwritable path; its str names the file.
        result = CommandResult("error", {"error": str(exc)})
    if args.json:
        print(json.dumps({"status": result.status, **result.payload}, sort_keys=True))
    elif result.status == "error":
        print(f"error: {result.payload.get('error', result.payload)}", file=sys.stderr)
    else:
        _human(result, args.command)
    return result.exit_code(args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
