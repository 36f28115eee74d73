#!/usr/bin/env python3
"""Summaries for bench/e2e/run.sh.

  report.py table BENCHMARK.json RESULTS_DIR WORKLOAD...
      Prints every metric of <W>.trace0.json and <W>.trace1.json with its
      unit; fails on an incorrect run or a metric set that differs from
      BENCHMARK.json.
  report.py repeat BENCHMARK.json RESULTS_DIR N WORKLOAD...
      Reads <W>.run0.json .. <W>.run{N-1}.json. Per workload and
      end-to-end metric prints the median, quartiles, the spread (quartile
      distance over the median) and the largest distance of one run from
      the median; fails when the medians of the even and the odd runs
      differ by more than the metric's bound.
"""

import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None


def table(spec, results, workloads):
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = [m["name"] for m in spec[key]]
        for w in workloads:
            r = load(f"{results}/{w}.trace{trace}.json")
            if r is None:
                print(f"{w} (trace {trace}): no result")
                ok = False
                continue
            ratio = r["failed"] / max(1, r["attempted"])
            print(f"{w} (trace {trace}): correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"fail_ratio={ratio:g}")
            for name, m in r["metrics"].items():
                print(f"  {name:28} {m['value']:>16.6g} {m['unit']}")
            if list(r["metrics"]) != want:
                print(f"  metric names differ from BENCHMARK.json {key}")
                ok = False
            ok = ok and r["correct"]
    return ok


def repeat(spec, results, n, workloads):
    ok = True
    for w in workloads:
        runs = [load(f"{results}/{w}.run{i}.json") for i in range(n)]
        if any(r is None or not r["correct"] for r in runs):
            print(f"{w}: a run failed or was incorrect")
            ok = False
            continue
        print(f"{w}: {n} runs")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0
            largest = max(abs(v - med) for v in vals) / med if med else 0
            halves = [statistics.median(vals[0::2]),
                      statistics.median(vals[1::2] or vals)]
            drift = abs(halves[1] / halves[0] - 1) if halves[0] else 0
            verdict = "ok" if drift <= m["bound"] else "DISAGREE"
            ok = ok and verdict == "ok"
            print(f"  {m['name']:14} median {med:12.6g} {m['unit']:5} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.1%} "
                  f"largest {largest:6.1%} halves {drift:6.1%} "
                  f"(bound {m['bound']:.0%}) {verdict}")
    return ok


def main(argv):
    with open(argv[2]) as f:
        spec = json.load(f)
    if argv[1] == "table":
        return 0 if table(spec, argv[3], argv[4:]) else 1
    if argv[1] == "repeat":
        return 0 if repeat(spec, argv[3], int(argv[4]), argv[5:]) else 1
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
