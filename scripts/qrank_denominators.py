#!/usr/bin/env python3
"""Time q_rank of 3(P) on the unit banana(4) as P's denominator grows, and
the semicontinuity probe on the instances of acceptance criterion 10 and
on one graph of non-unit lengths.

P sits just past 1/3 along edge 0, at the first j/den above 1/3 that is in
lowest terms and still in the middle third (den = 6 has none and stops at
2/3), where the rank is 1 (acceptance criterion 7). Each row is the median wall time of
--repeats audited q_rank calls. Reduction on the model moves chips across
whole segments, so the cost should not grow with the denominator.

A probe row is the median wall time of --repeats runs of
semicontinuity_probe(eps=1/6) on one instance, and the metric burning
passes and segment skeleton builds of one more, counted by wrapping the
pass that metric.py calls and the session's skeleton builder. A call
builds one skeleton per shape of the interior support it meets and reuses
it on later passes, so a row that builds more skeletons than it runs
passes is a failure.
Each instance has a row of 27 samples and a row of one sample, the call
the metric-probe benchmark times, which pays the call's setup (the grid,
the base rank, the session frame) for its one sample. The instances are
the three of criterion 10 and a banana graph with lengths 3/2, 5/7 and
4/3 and points at offsets 1/3 and 4/9, whose probe grid needs the
numerator 5 of a length. The probe ranks its perturbed
samples on one integer grid, so every record's ranks are rechecked here
against q_rank of the perturbed metric graph and divisor, built through
the public constructors: lengths moved by their deltas, each interior
point kept at its share of its edge, moved by its shift and clamped to the
edge. The script exits 1 on a wrong rank, on any disagreement, or on more
skeleton builds than passes.

    PYTHONPATH=src python3 scripts/qrank_denominators.py [--repeats 21]
"""

import argparse
import importlib
import json
import math
import platform
import statistics
import time
from fractions import Fraction

import chipfire as cf

DENOMINATORS = (6, 12, 96, 192, 768, 1536, 10**4, 10**5, 10**6)
PROBE_EPS = Fraction(1, 6)
PROBE_SAMPLES = (27, 1)
PROBE_SEED = 100_000

metric = importlib.import_module("chipfire.metric")


def _probe_instances():
    b4 = cf.QGraph.unit(cf.banana_graph(4))
    theta = cf.parse_qgraph("a b 1\na b 1/2\na c 1/2\nc b 1/2\n")
    odd = cf.parse_qgraph("a b 3/2\na b 5/7\na b 4/3\n")
    return (
        (b4, cf.QDivisor(b4, {b4.point(0, Fraction(1, 2)): 3})),
        (b4, cf.QDivisor(b4, {b4.point(1, Fraction(1, 3)): 2, b4.vertex_point("Q2"): 1})),
        (theta, cf.QDivisor(theta, {theta.point(0, Fraction(1, 2)): 2})),
        (odd, cf.QDivisor(
            odd, {odd.point(1, Fraction(1, 3)): 2, odd.point(2, Fraction(4, 9)): 1}
        )),
    )


def _perturbed(qg, d, record, scale):
    lengths = [l + delta * scale for l, delta in zip(qg.lengths, record.length_deltas)]
    perturbed = cf.QGraph(qg.model, lengths)
    shifts = dict(record.point_shifts)
    coeffs = {}
    for point, c in d.items():
        if point.vertex is not None:
            new = perturbed.vertex_point(point.vertex)
        else:
            e = point.edge
            offset = point.offset * lengths[e] / qg.lengths[e] + shifts[point] * scale
            new = perturbed.point(e, min(max(offset, Fraction(0)), lengths[e]))
        coeffs[new] = coeffs.get(new, 0) + c
    return perturbed, cf.QDivisor(perturbed, coeffs)


def _counted_work(run):
    """(metric burning passes, segment skeleton builds) of one run."""
    passes = builds = 0
    real_pass = metric._dhar_unburnt
    real_build = metric._MetricSession._skeleton

    def counted_pass(*args):
        nonlocal passes
        passes += 1
        return real_pass(*args)

    def counted_build(*args):
        nonlocal builds
        builds += 1
        return real_build(*args)

    metric._dhar_unburnt = counted_pass
    metric._MetricSession._skeleton = counted_build
    try:
        run()
    finally:
        metric._dhar_unburnt = real_pass
        metric._MetricSession._skeleton = real_build
    return passes, builds


def _median_ms(run, repeats):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return round(statistics.median(times) * 1000, 3)


def _denominator_rows(repeats):
    qg = cf.QGraph.unit(cf.banana_graph(4))
    rows = []
    for den in DENOMINATORS:
        j = den // 3 + 1
        while math.gcd(j, den) != 1 and 3 * (j + 1) <= 2 * den:
            j += 1
        offset = Fraction(j, den)
        d = cf.QDivisor(qg, {qg.point(0, offset): 3})
        value = cf.q_rank(qg, d)
        if value != 1:
            raise SystemExit(f"rank {value} at {offset}, expected 1")
        ms = _median_ms(lambda: cf.q_rank(qg, d), repeats)
        rows.append({"denominator": den, "offset": str(offset), "median_ms": ms})
        print(f"{den:>8}  {str(offset):>16}  rank {value}  {ms:.3f} ms")
    return rows


def _probe_rows(repeats):
    rows = []
    for index, (qg, d) in enumerate(_probe_instances()):
        for samples in PROBE_SAMPLES:

            def probe():
                return cf.semicontinuity_probe(
                    qg, d, eps=PROBE_EPS, samples=samples, seed=PROBE_SEED + index
                )

            report = probe()
            for record in report.records:
                expected = [
                    cf.q_rank(*_perturbed(qg, d, record, scale), audit=False)
                    for scale in report.scales
                ]
                if list(record.ranks) != expected:
                    raise SystemExit(
                        f"instance {index}, sample {record.index} of {samples}: the"
                        f" probe's ranks {list(record.ranks)}, q_rank of the"
                        f" perturbed objects {expected}"
                    )
            ms = _median_ms(probe, repeats)
            passes, builds = _counted_work(probe)
            rows.append({
                "instance": index, "samples": samples, "median_ms": ms,
                "metric_burning_passes": passes, "skeleton_builds": builds,
            })
            print(
                f"probe {index}  {samples:>2} samples  {ms:.3f} ms  {passes} passes"
                f"  {builds} skeleton builds"
            )
            if builds > passes:
                raise SystemExit(
                    f"instance {index}, {samples} samples: {builds} skeleton builds"
                    f" for {passes} burning passes"
                )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    rows = _denominator_rows(args.repeats)
    medians = [row["median_ms"] for row in rows]
    summary = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "max_over_min": round(max(medians) / min(medians), 2),
        "rows": rows,
        "probe_rows": _probe_rows(args.repeats),
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
