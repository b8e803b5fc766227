#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 ecndbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines appended by `run.py --out`. For every workload
and metric the script prints the median of each side, the change, and, for
end-to-end metrics, whether the change is worse than the bound in
BENCHMARK.json. It refuses (exit 2) when the results' stamps differ in build
type, compiler, flags or nproc: numbers from different build flavours or boxes
are not comparable. The git SHA is shown but may differ, since comparing two
commits is the point.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    if not records:
        sys.exit(f"compare.py: {path} holds no results")
    return records


def flavour(record):
    return {k: v for k, v in record["stamp"].items() if k != "git_sha"}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    flavours = {json.dumps(flavour(r), sort_keys=True) for r in base + new}
    if len(flavours) > 1:
        print("compare.py: refusing to compare results with different stamps:",
              file=sys.stderr)
        for f in sorted(flavours):
            print(f"  {f}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    for side, records in (("base", base), ("new", new)):
        shas = sorted({r["stamp"]["git_sha"] for r in records})
        print(f"{side}: {len(records)} results, git {', '.join(shas)}")
    print(f"stamp: {flavours.pop()}")

    regressions = 0
    keys = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in keys:
        def values(records, metric):
            return [r["metrics"][metric]["value"] for r in records
                    if r["workload"] == workload and r["trace"] == trace
                    and metric in r["metrics"]]
        metrics = sorted({m for r in base + new if r["workload"] == workload
                          and r["trace"] == trace for m in r["metrics"]})
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
        for metric in metrics:
            b, n = values(base, metric), values(new, metric)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if better.get(metric, "lower") == "lower" else -change
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]["bound"]
                verdict = "REGRESSION" if worse > bound else f"ok (bound {bound:.0%})"
                regressions += worse > bound
            print(f"  {metric:32s} {mb:>14.6g} -> {mn:<14.6g} {change:+8.2%}  "
                  f"n={len(b)}/{len(n)} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
