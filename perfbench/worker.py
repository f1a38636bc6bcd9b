"""One benchmark process: build a workload's plan, then run timed rounds.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run \
        --seconds S [--min-rounds R] [--trace]

Run from the root of a chipfire checkout; chipfire is imported from its
src/ directory and nowhere else. `setup` imports the package, builds the
first round's plan and prints its digest. `run` executes closed-loop
rounds (each instance starts when the previous one has finished; round r
runs the plan of round r) until at least --min-rounds rounds are done and
the next one would end after --seconds, then prints one JSON object. With
--trace the tracer's wrappers are installed in this process only, and it
runs exactly --min-rounds rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import reference_seconds, speed_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Rounds stop starting after this long, so a badly regressed commit still
# finishes within the run's time limit.
_GUARD_SECONDS = 110.0
# A reference sample runs before an instance once this long has passed since
# the last one; an instance is scaled by the median sample within the window
# around it.
_REFERENCE_EVERY = 0.1
_REFERENCE_WINDOW = 0.5


def _import_chipfire(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    cf = importlib.import_module("chipfire")
    importlib.import_module("chipfire.cli")
    if not os.path.abspath(cf.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"chipfire imported from {cf.__file__}, not from {src}")
    return cf


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _reference(references):
    started = time.perf_counter()
    references.append((started, reference_seconds()))


def _run_round(cf, plan, round_fn, workdir):
    spans = []
    kinds = []
    failures = []
    outputs = []
    references = []
    _reference(references)
    for kind, instance in round_fn(cf, plan, workdir):
        if time.perf_counter() - references[-1][0] > _REFERENCE_EVERY:
            _reference(references)
        t0 = time.perf_counter()
        try:
            output = instance()
            ok = True
        except Exception as exc:  # an instance that raises is counted, not fatal
            output = f"{type(exc).__name__}: {exc}"
            ok = False
        spans.append((t0, time.perf_counter()))
        kinds.append(kind)
        outputs.append([kind, output])
        if not ok:
            failures.append(f"{kind} #{len(kinds) - 1}: {output}"[:300])
    _reference(references)
    raw_ms = []
    times_ms = []
    for t0, t1 in spans:
        near = [
            dt for at, dt in references
            if t0 - _REFERENCE_WINDOW <= at <= t1 + _REFERENCE_WINDOW
        ]
        raw_ms.append((t1 - t0) * 1000.0)
        times_ms.append(raw_ms[-1] * speed_factor(near))
    return {
        "seconds": sum(times_ms) / 1000.0,
        "raw_seconds": sum(raw_ms) / 1000.0,
        "times_ms": times_ms,
        "kinds": kinds,
        "failures": failures,
        "digest": _digest(outputs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=3)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    cf = _import_chipfire(root)
    plan_fn, round_fn = WORKLOADS[args.workload]
    plan = plan_fn(cf, args.seed, 0)
    if args.mode == "setup":
        print(json.dumps({"plan_digest": _digest(plan)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        # Plans are built before the wrappers go in, so the trace holds only
        # the instances' work; a traced run runs exactly --min-rounds rounds.
        plans = [plan] + [plan_fn(cf, args.seed, r) for r in range(1, args.min_rounds)]
        tracer = Tracer()
        install(tracer)

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rounds = []
    elapsed = 0.0
    try:
        while True:
            if tracer is not None:
                plan = plans[len(rounds)]
            elif rounds:
                plan = plan_fn(cf, args.seed, len(rounds))
            rounds.append(_run_round(cf, plan, round_fn, workdir))
            elapsed += rounds[-1]["raw_seconds"]
            per_round = elapsed / len(rounds)
            if len(rounds) >= args.min_rounds and (
                tracer is not None or elapsed + per_round > args.seconds
            ):
                break
            if elapsed + per_round > _GUARD_SECONDS:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "chipfire_version": getattr(cf, "__version__", "unknown"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "rounds": rounds,
                "trace": tracer.snapshot() if tracer is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
