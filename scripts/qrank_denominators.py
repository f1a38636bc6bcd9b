#!/usr/bin/env python3
"""Time q_rank of 3(P) on the unit banana(4) as P's denominator grows.

P sits just past 1/3 along edge 0, at the first j/den above 1/3 that is in
lowest terms and still in the middle third (den = 6 has none and stops at
2/3), where the rank is 1 (acceptance criterion 7). Each row is the median wall time of
--repeats audited q_rank calls. Reduction on the model moves chips across
whole segments, so the cost should not grow with the denominator.

    PYTHONPATH=src python3 scripts/qrank_denominators.py [--repeats 21]
"""

import argparse
import json
import math
import platform
import statistics
import time
from fractions import Fraction

import chipfire as cf

DENOMINATORS = (6, 12, 96, 192, 768, 1536, 10**4, 10**5, 10**6)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    qg = cf.QGraph.unit(cf.banana_graph(4))
    rows = []
    for den in DENOMINATORS:
        j = den // 3 + 1
        while math.gcd(j, den) != 1 and 3 * (j + 1) <= 2 * den:
            j += 1
        offset = Fraction(j, den)
        d = cf.QDivisor(qg, {qg.point(0, offset): 3})
        times = []
        for _ in range(args.repeats):
            started = time.perf_counter()
            value = cf.q_rank(qg, d)
            times.append(time.perf_counter() - started)
        if value != 1:
            raise SystemExit(f"rank {value} at {offset}, expected 1")
        ms = round(statistics.median(times) * 1000, 3)
        rows.append({"denominator": den, "offset": str(offset), "median_ms": ms})
        print(f"{den:>8}  {str(offset):>16}  rank {value}  {ms:.3f} ms")
    medians = [row["median_ms"] for row in rows]
    summary = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "max_over_min": round(max(medians) / min(medians), 2),
        "rows": rows,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
