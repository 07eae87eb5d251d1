"""rblam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fuzz-sound --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 a fresh interpreter builds the inputs from the seed and makes
passes over them for --seconds (the last pass may run past it), timing
fresh set-up interpreters between passes; it prints the end-to-end metrics.
With --trace 1 it makes a warm-up pass, the same pass traced and again
untraced, and prints the per-layer metrics. Every verdict is checked; the
last line of standard output is the result as JSON, and the full record
(with every sample) is written under perfbench/results/. Exit status: 0
all verdicts right, 1 a wrong verdict, 2 the run could not be made.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import bench_spec  # noqa: E402
from speed import factor  # noqa: E402
from stats import percentile, tail  # noqa: E402

DEADLINE_S = 170.0


class RunError(Exception):
    pass


def worker(role: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, "--workload", args.workload, "--root", ROOT,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{role} run exceeded {timeout:.0f}s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{role} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(xs: list[float]) -> float:
    return percentile(xs, 50.0)


def speed_factor(run: dict, scaled: bool):
    """(start, end) -> the factor that refers a time measured then to
    nominal speed (speed.py); always 1 when not `scaled`."""
    if not scaled:
        return lambda start, end: 1.0
    return lambda start, end: factor(run["speed_probe_starts_s"], run["speed_probes_s"], start, end)


def op_durations(run: dict, scaled: bool) -> tuple[list[float], float]:
    """Per operation, its median duration over the passes, for operations
    that completed; and, as a second value, the sum of the medians of all
    operations plus the median time a pass spent in timed regions outside
    its operations (a fuzz run's own work around its trials)."""
    passes = run["passes"]
    n = len(passes[0]["durations_s"])
    if any(len(p["durations_s"]) != n for p in passes):
        raise RunError("passes ran different operations")
    at = speed_factor(run, scaled)

    def op(p, i):
        start, d = p["starts_s"][i], p["durations_s"][i]
        return d * at(start, start + d)

    def outside(p):
        start, end = p["starts_s"][0], p["starts_s"][-1] + p["durations_s"][-1]
        return max(p["wall_s"] - sum(p["durations_s"]), 0.0) * at(start, end)

    per_op = [median([op(p, i) for p in passes]) for i in range(n)]
    completed = [all(p["completed"][i] for p in passes) for i in range(n)]
    return [d for d, ok in zip(per_op, completed) if ok], sum(per_op) + median([outside(p) for p in passes])


def end_to_end(run: dict, scaled: bool = True) -> tuple[dict[str, float], dict]:
    latencies, wall = op_durations(run, scaled)
    tail_s, tail_pct = tail(latencies)
    at = speed_factor(run, scaled)
    metrics = {
        "setup_s": median([d * at(t, t + d) for t, d in run["setup_samples"]]),
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": 1000.0 * percentile(latencies, 50.0),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {
        "passes": len(run["passes"]),
        "ops_per_pass": len(run["passes"][0]["durations_s"]),
        "op_tail_percentile": tail_pct,
        "op_samples": len(latencies),
    }
    return metrics, detail


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rblam")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "rblam", "cli.py")):
        print(f"error: no rblam sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2

    spec = bench_spec(os.path.join(ROOT, "BENCHMARK.json"))
    record = {"environment": environment(args)}
    try:
        if args.trace == 0:
            run = worker("measure", args, deadline)
            metrics, detail = end_to_end(run)
            detail["unscaled"] = end_to_end(run, scaled=False)[0]
            units = {name: spec["end_to_end"][name]["unit"] for name in metrics}
        else:
            run = worker("trace", args, deadline)
            metrics = run.pop("layers")
            units = {name: spec["per_layer"][name]["unit"] for name in metrics}
            detail = {"passes": 3, "tracer": run.pop("tracer")}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wrong = run["wrong"]
    correct = not wrong
    record.update({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "ops_failed_ratio": run["failed"] / run["attempted"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "detail": detail,
        "run": run,
    })
    out = os.path.join(
        HERE, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{detail['passes']} pass(es), {run['attempted']} ops, {run['failed']} failed "
          f"(ops_failed_ratio {record['ops_failed_ratio']:.4f})")
    for name, v in metrics.items():
        print(f"  {name:40s} {v:14.6g} {units[name]}")
    if args.trace == 0:
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:g} of {detail['op_samples']} operations "
              f"(each the median over {detail['passes']} pass(es))")
    for line in wrong[:20]:
        print(f"  WRONG: {line}")
    for label, error in list(run["errors"].items())[:10]:
        print(f"  failed op: {label}: {error}")
    for label in run.get("traced_only_failures", []):
        print(f"  failed only when traced: {label}")
    print(f"  verdicts: {'all right' if correct else f'{len(wrong)} wrong'}; record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
