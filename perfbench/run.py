"""chipfire benchmark: seeded closed-loop workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chipfire checkout. With --trace 0 it prints the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run
and the tracing overhead. Every instance's output is checked. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a result file with the raw rounds and the
machine description goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import reference_seconds, speed_factor  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 9
REFERENCE_SAMPLES = 5
# Percentiles the tail metric may use; it takes the highest one that leaves at
# least ten instances of a single round beyond it. The choice then depends on
# the workload only, not on how many rounds a faster commit fits in, and the
# percentile stays inside a cluster of like instances, where it is steady.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ROUNDS = 3
# The traced run and its untraced twin cover exactly these first rounds, so
# the per-layer counts repeat exactly for a seed.
TRACE_ROUNDS = 2
RUN_LIMIT_SECONDS = 170.0


class BenchError(Exception):
    pass


def _worker(root, args, timeout):
    cmd = [sys.executable, WORKER, *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_seconds(root, workload, seed, deadline):
    """Median CPU time of fresh interpreters that import chipfire and build
    the first round's plan, each scaled by reference samples taken just
    before and after it. CPU time leaves out the waits for a shared host's
    processor; the interpreter does nothing but compute and read cached
    files. One untimed start first writes the bytecode caches."""
    argv = ["--workload", workload, "--seed", str(seed), "--mode", "setup"]
    digests = {_worker(root, argv, deadline - time.monotonic())["plan_digest"]}
    raw = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        samples = [reference_seconds(time.process_time) for _ in range(REFERENCE_SAMPLES)]
        before = _children_cpu()
        digests.add(_worker(root, argv, deadline - time.monotonic())["plan_digest"])
        raw.append(_children_cpu() - before)
        samples += [reference_seconds(time.process_time) for _ in range(REFERENCE_SAMPLES)]
        scaled.append(raw[-1] * speed_factor(samples))
    if len(digests) != 1:
        raise BenchError("the same seed built different plans")
    return statistics.median(scaled), raw


def _tail_percentile(per_round):
    for p in TAIL_LADDER:
        if per_round * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _summary(run):
    rounds = run["rounds"]
    times = [t for r in rounds for t in r["times_ms"]]
    attempted = len(times)
    failures = [f for r in rounds for f in r["failures"]]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digests": [r["digest"] for r in rounds],
        "round_rates": [len(r["times_ms"]) / r["seconds"] for r in rounds],
        "raw_round_rates": [len(r["times_ms"]) / r["raw_seconds"] for r in rounds],
        "rate": attempted / sum(r["seconds"] for r in rounds),
        "times_ms": times,
        "per_round": len(rounds[0]["times_ms"]),
    }


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _end_to_end(root, args, deadline):
    setup_s, setup_times = _setup_seconds(root, args.workload, args.seed, deadline)
    run = _worker(
        root,
        ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run",
         "--seconds", str(args.seconds), "--min-rounds", str(MIN_ROUNDS)],
        deadline - time.monotonic(),
    )
    s = _summary(run)
    p = _tail_percentile(s["per_round"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (s["rate"], "1/s"),
        "instance_p50_ms": (statistics.median(s["times_ms"]), "ms"),
        "instance_tail_ms": (_percentile(s["times_ms"], p), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {
        "failed_frac": s["failed"] / s["attempted"],
        "tail_percentile": p,
        "tail_samples": len(s["times_ms"]),
        "raw_setup_times_s": setup_times,
    }
    return run, s, metrics, notes


def _per_layer(root, args, deadline):
    base_argv = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run",
                 "--seconds", "0", "--min-rounds", str(TRACE_ROUNDS)]
    untraced = _summary(_worker(root, base_argv, deadline - time.monotonic()))
    run = _worker(root, base_argv + ["--trace"], deadline - time.monotonic())
    s = _summary(run)
    # Self times are raw; scale them like the instances of the same rounds.
    factor = sum(r["seconds"] for r in run["rounds"]) / sum(
        r["raw_seconds"] for r in run["rounds"]
    )
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in layer_metrics(run["trace"]).items()
    }
    metrics["trace_overhead_frac"] = (untraced["rate"] / s["rate"] - 1.0, "ratio")
    notes = {
        "untraced_round_rates": untraced["round_rates"],
        "untraced_failed": untraced["failed"],
    }
    s["attempted"] += untraced["attempted"]
    s["failed"] += untraced["failed"]
    # Both processes ran the same rounds; their outputs must agree.
    s["outputs_repeat"] = s["digests"] == untraced["digests"]
    return run, s, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chipfire", "__init__.py")):
        print("error: run from the root of a chipfire checkout (src/chipfire missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    try:
        if args.trace:
            run, s, metrics, notes = _per_layer(root, args, deadline)
        else:
            run, s, metrics, notes = _end_to_end(root, args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = s["failed"] == 0 and s.get("outputs_repeat", True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "chipfire_version": run["chipfire_version"],
        "git_commit": _git_commit(root),
        "round_output_digests": s["digests"],
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "failures": s["failures"],
        "instances_per_round": s["per_round"],
        "rounds": len(run["rounds"]),
        "round_instances_per_s": s["round_rates"],
        "raw_round_instances_per_s": s["raw_round_rates"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(run['rounds'])}"
          f"  instances/round {s['per_round']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<36} {notes['failed_frac']:>14.6g} ratio"
              f"  ({s['failed']}/{s['attempted']})")
        print(f"  instance_tail_ms is p{notes['tail_percentile']:g} of "
              f"{notes['tail_samples']} samples")
    for failure in s["failures"]:
        print(f"  FAILED {failure}")
    print(f"  result file {os.path.relpath(out_path, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
