"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE... --change CHANGE...

BASE and CHANGE are result files or directories of them (as written by
run.py under perfbench/results/). Runs are grouped by workload and trace
flag. For every metric it prints each side's median and quartiles, the
ratio of the medians with its base, the share of pairs the change won
(the i-th base run against the i-th change run, in start order, so run the
sides alternately; ties count for neither side), and a verdict:

  gain        the change won at least 9 in 10 pairs and the medians differ
              by more than the base's own interquartile distance
  unresolved  a side's spread (interquartile distance over median) exceeds
              the bound, unless every change run beats every base run
  regression  the change's median is worse by more than the metric's bound
  same        none of the above

Per-layer metrics have no bound; they get a verdict only when they are
counts that repeat exactly ("equal" or "differs").
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles  # noqa: E402


def load(paths: list[str]) -> list[dict]:
    files: list[str] = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    runs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    runs.sort(key=lambda r: r["environment"]["started_utc"])
    return runs


def bench_spec(path: str) -> dict[str, dict[str, dict]]:
    """The metrics BENCHMARK.json names, in its order: for "end_to_end" and
    for "per_layer", name -> {"unit", "better", and "bound" if any}."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def better(a: float, b: float, direction: str) -> bool:
    return b < a if direction == "lower" else b > a


def verdict(base: list[float], change: list[float], direction: str, bound: float | None, unit: str) -> str:
    if bound is None:
        if unit != "count":
            return ""
        return "equal" if len(set(base) | set(change)) == 1 else "differs"
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(change)
    pairs = list(zip(base, change))
    won = sum(better(a, b, direction) for a, b in pairs)
    if pairs and won >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a:
        return "gain"
    spread = max((q3a - q1a) / ma if ma else 0.0, (q3b - q1b) / mb if mb else 0.0)
    if spread > bound and not all(better(a, b, direction) for a in base for b in change):
        return "unresolved"
    worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
    return "regression" if ma and worse > bound else "same"


def compare(base_runs: list[dict], change_runs: list[dict], spec: dict[str, dict]) -> list[str]:
    lines = []
    groups = sorted({(r["environment"]["workload"], r["environment"]["trace"]) for r in base_runs + change_runs})
    for workload, trace in groups:
        a = [r for r in base_runs if (r["environment"]["workload"], r["environment"]["trace"]) == (workload, trace)]
        b = [r for r in change_runs if (r["environment"]["workload"], r["environment"]["trace"]) == (workload, trace)]
        lines.append(f"== {workload} (trace {trace}): {len(a)} base runs, {len(b)} change runs")
        if not a or not b:
            continue
        wrong = sum(not r["correct"] for r in a + b)
        if wrong:
            lines.append(f"   {wrong} run(s) with a wrong verdict")
        lines.append(f"   {'metric':38s} {'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
                     f" {'ratio (base)':>22s} {'won':>6s}  verdict")
        for name in a[0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            m = spec.get(name, {})
            direction, bound = m.get("better", "lower"), m.get("bound")
            unit = a[0]["metrics"][name]["unit"]
            q1a, ma, q3a = quartiles(va)
            q1b, mb, q3b = quartiles(vb)
            ratio = f"{mb / ma:.3f} ({ma:.4g} {unit})" if ma else f"- (0 {unit})"
            pairs = list(zip(va, vb))
            won = f"{sum(better(x, y, direction) for x, y in pairs)}/{len(pairs)}"
            lines.append(f"   {name:38s} {f'{ma:.4g} [{q1a:.4g}, {q3a:.4g}]':>30s}"
                         f" {f'{mb:.4g} [{q1b:.4g}, {q3b:.4g}]':>30s} {ratio:>22s} {won:>6s}"
                         f"  {verdict(va, vb, direction, bound, unit)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of rblam benchmark results.")
    ap.add_argument("base", nargs="+", help="base result files or directories")
    ap.add_argument("--change", nargs="+", required=True, help="change result files or directories")
    args = ap.parse_args(argv)
    kinds = bench_spec(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    spec = {**kinds["end_to_end"], **kinds["per_layer"]}
    for line in compare(load(args.base), load(args.change), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
