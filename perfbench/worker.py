"""One benchmark measurement in a fresh interpreter; started by run.py.

Roles:
  setup    import rblam from ROOT/src, build the workload's lattices, print
           "ready" and exit;
  measure  build the inputs from --seed, then make timed passes over them
           until --seconds have passed; between passes, time fresh `setup`
           interpreters;
  trace    an untraced warm-up pass, the same pass with every layer traced,
           and the same pass untraced again.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("lattice", "syntax", "typecheck", "interp", "harness", "model", "cli")
SETUP_PER_GAP = 2
SETUP_MIN = 7


def import_rblam(root: str) -> types.SimpleNamespace:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    rb = types.SimpleNamespace(**{m: importlib.import_module(f"rblam.{m}") for m in LAYERS})
    if not os.path.abspath(rb.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"rblam imported from {rb.cli.__file__}, not from {src}")
    return rb


def setup_time(b, args) -> tuple[float, float]:
    """(start, seconds) from starting a fresh interpreter to its "ready"
    line: Python start-up, importing rblam and building or loading the
    lattices. The machine's speed is probed just before."""
    b.speed.probe()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", "--workload", args.workload, "--root", args.root]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=args.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {err.strip()[-2000:]}")
    return t0, elapsed


def run_passes(b, workload, plan, args) -> tuple[list[dict], list[tuple[float, float]]]:
    """Timed passes, and the set-up times sampled between them."""
    passes: list[dict] = []
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    for index in itertools.count():
        if args.role == "trace" and index == 3:
            break
        if args.role == "measure" and index > 0 and time.perf_counter() - start >= args.seconds:
            break
        busy, n_ops = b.busy, len(b.durations)
        traced = b.tracer is not None and index == 1
        if traced:
            b.tracer.install(b.rb)
        try:
            workload.run(b, plan, args.seed, index)
        finally:
            if traced:
                b.tracer.uninstall()
        passes.append({
            "wall_s": b.busy - busy,
            "durations_s": b.durations[n_ops:],
            "starts_s": b.starts[n_ops:],
            "completed": b.completed[n_ops:],
        })
        if args.role == "measure":
            setup += [setup_time(b, args) for _ in range(SETUP_PER_GAP)]
    return passes, setup


def trace_overhead(b, untraced: dict, traced: dict) -> tuple[float, list[str]]:
    """Traced over untraced time, summed over the operations that completed
    in both passes; and the labels of the operations that failed only in the
    traced pass (the wrappers' frames bring the recursion limit nearer)."""
    pairs = list(zip(untraced["completed"], traced["completed"]))
    both = [i for i, (u, t) in enumerate(pairs) if u and t]
    ratio = sum(traced["durations_s"][i] for i in both) / sum(untraced["durations_s"][i] for i in both)
    return ratio, [b.labels[i] for i, (u, t) in enumerate(pairs) if u and not t]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    roles = ap.add_subparsers(dest="role", required=True)
    for role in ("setup", "measure", "trace"):
        sub = roles.add_parser(role)
        sub.add_argument("--workload", required=True)
        sub.add_argument("--root", required=True)
        if role != "setup":
            sub.add_argument("--seed", type=int, required=True)
            sub.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    rb = import_rblam(args.root)
    workload = WORKLOADS[args.workload]()
    workload.setup(rb)
    if args.role == "setup":
        print("ready", flush=True)
        return 0

    from workloads import Bench

    tracer = None
    if args.role == "trace":
        from tracer import Tracer

        tracer = Tracer()
    workdir = os.path.join(args.root, "perfbench", ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    # One CPU for the passes, the speed probes and the set-up interpreters,
    # so that each probe speaks for the CPU the work it scales ran on.
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        b = Bench(rb, workdir, tracer)
        plan = workload.prepare(b, args.seed)
        passes, setup = run_passes(b, workload, plan, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if pin:
            os.sched_setaffinity(0, cpus)
        workload.finish(b, args.seed)
        while args.role == "measure" and len(setup) < SETUP_MIN:
            setup.append(setup_time(b, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "passes": passes,
        "attempted": b.attempted,
        "failed": b.failed,
        "errors": b.errors,
        "wrong": b.wrong,
        "counts": b.counts,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples": setup,
        "speed_probes_s": b.speed.samples,
        "speed_probe_starts_s": b.speed.times,
    }
    if tracer is not None:
        from compare import bench_spec
        from layers import layer_metrics

        result["tracer"] = {
            "self_s": tracer.self_time(),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "leaf_s": dict(tracer.leaf_time),
            "spans": len(tracer.spans),
        }
        _, traced, untraced = passes
        overhead, result["traced_only_failures"] = trace_overhead(b, untraced, traced)
        names = list(bench_spec(os.path.join(args.root, "BENCHMARK.json"))["per_layer"])
        result["layers"] = layer_metrics(tracer, b.counts, len(traced["durations_s"]), overhead, names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
