"""Self-checks of the benchmark; run from the checkout root with

    python3 -m pytest perfbench/test_perfbench.py -q

Two traced single-round runs at one seed must agree on every work count
and on the digest of all instance outputs; another seed must build another
plan; and the benchmark must refuse to run outside a chipfire checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _worker(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced_round(workload, seed):
    run = _worker("--workload", workload, "--seed", str(seed), "--mode", "run",
                  "--seconds", "0", "--min-rounds", "1", "--trace")
    (round_,) = run["rounds"]
    assert not round_["failures"], round_["failures"]
    metrics = layer_metrics(run["trace"])
    return {name: metrics[name][0] for name in COUNT_METRICS}, round_["digest"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_and_outputs_repeat(workload):
    counts, digest = _traced_round(workload, 7)
    again, digest_again = _traced_round(workload, 7)
    assert counts == again
    assert digest == digest_again
    assert any(counts.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs(workload):
    plans = {
        _worker("--workload", workload, "--seed", str(seed), "--mode", "setup")[
            "plan_digest"
        ]
        for seed in (7, 8)
    }
    assert len(plans) == 2


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grd-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
