"""Per-layer metrics, computed from one traced run, and the map from each
layer metric to the end-to-end metric and workload it should move.

Self times are seconds in the traced pass; counts are totals over the
same pass, so at a fixed seed every count repeats exactly.
"""

from __future__ import annotations

from tracer import LATTICE_OPS, Tracer

# Which end-to-end metric each group of layer metrics should move, and where.
LAYER_MAP = [
    {"layer_metrics": ["harness.gen_typed_term.self_s", "harness.gen_value.self_s",
                       "harness.gen.synth_error_ratio", "harness.gen.fallback_calls"],
     "moves": "ops_per_s", "on": ["fuzz-sound"], "unchanged_on": ["check-corpus"]},
    {"layer_metrics": ["harness.minimize.calls", "harness.minimize.self_s", "harness.minimize.candidates",
                       "harness.minimize.accept_ratio", "harness.minimize.useful_ratio"],
     "moves": "wall_s", "on": ["hunt-paper"], "unchanged_on": ["fuzz-sound"]},
    {"layer_metrics": ["typecheck.synthesize.calls", "typecheck.synthesize.self_s", "typecheck.synthesize.nodes",
                       "typecheck.synthesize.calls_per_op", "typecheck.retype_value.self_s"],
     "moves": "ops_per_s", "on": ["fuzz-sound", "hunt-paper"],
     "also": "op_tail_ms on check-corpus"},
    {"layer_metrics": ["interp.evaluate.calls", "interp.evaluate.self_s", "interp.evaluate_trace.self_s",
                       "syntax.substitute.calls", "syntax.substitute.self_s", "syntax.to_value.calls"],
     "moves": "op_tail_ms", "on": ["check-corpus"], "little_effect_on": ["fuzz-sound"]},
    {"layer_metrics": ["syntax.parse.self_s", "syntax.parse.nodes_per_s", "syntax.pretty.self_s", "cli.main.self_s"],
     "moves": "op_p50_ms", "on": ["check-corpus"], "also": "syntax.pretty.self_s on hunt-paper"},
    {"layer_metrics": ["lattice.combine.calls", "lattice.leq.calls", "lattice.join.calls", "lattice.bottom.calls",
                       "lattice.self_s", "lattice.check_laws.self_s"],
     "moves": "wall_s", "on": ["fuzz-sound", "hunt-paper", "check-corpus", "model-finite"],
     "also": "more effect on triple than on nat"},
    {"layer_metrics": ["model.build_downset.self_s", "model.interpret_types.self_s", "model.sections",
                       "model.check_presheaf.self_s", "model.check_cost_naturality.self_s",
                       "model.reify_and_check.self_s", "model.check_box_subpresheaf.self_s",
                       "model.check_cost_preservation.self_s"],
     "moves": "wall_s", "on": ["model-finite"], "only": True},
    {"layer_metrics": ["harness.self_s", "typecheck.self_s", "interp.self_s", "syntax.self_s", "model.self_s",
                       "harness.violations", "trace_overhead_ratio"],
     "moves": None, "note": "whole-layer self times, the violation count, and the cost of tracing itself"},
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, counts: dict[str, int], ops: int, overhead: float,
                  names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names` (BENCHMARK.json's, in its order) from a
    traced run. `counts` holds the workload's own counts (violations and
    failures reported); `ops` is the number of operations in the traced
    pass; a `<layer>.<function>.self_s` not computed here is that
    function's self time."""
    self_s = tr.self_time()
    calls, c = tr.calls, tr.counts

    def layer_self(layer: str) -> float:
        return sum(t for name, t in self_s.items() if name.startswith(layer + "."))

    lattice_leaf = sum(tr.leaf_time[f"lattice.{op}"] for op in LATTICE_OPS)
    out: dict[str, float] = {
        "harness.gen.synth_error_ratio": _ratio(c["harness.gen.synth_errors"], c["harness.gen.synth_calls"]),
        "harness.gen.fallback_calls": c["harness.gen.fallback_calls"],
        "harness.minimize.calls": calls["harness.minimize"],
        "harness.minimize.candidates": c["harness.minimize.candidates"],
        "harness.minimize.accept_ratio": _ratio(c["harness.minimize.accepted"], c["harness.minimize.candidates"]),
        "harness.minimize.useful_ratio": _ratio(counts.get("harness.failures_reported", 0),
                                                calls["harness.minimize"]),
        "harness.violations": counts.get("harness.violations", 0),
        "typecheck.synthesize.calls": calls["typecheck.synthesize"],
        "typecheck.synthesize.nodes": c["typecheck.synthesize.nodes"],
        "typecheck.synthesize.calls_per_op": _ratio(calls["typecheck.synthesize"], ops),
        "interp.evaluate.calls": calls["interp.evaluate"],
        "syntax.substitute.calls": calls["syntax.substitute"],
        "syntax.to_value.calls": calls["syntax.to_value"],
        "syntax.parse.nodes_per_s": _ratio(c["syntax.parse.nodes"], self_s.get("syntax.parse", 0.0)),
        "cli.main.self_s": layer_self("cli"),
        "lattice.self_s": layer_self("lattice") + lattice_leaf,
        "model.sections": c["model.sections"],
        "trace_overhead_ratio": overhead,
    }
    for op in LATTICE_OPS:
        out[f"lattice.{op}.calls"] = calls[f"lattice.{op}"]
    for layer in ("harness", "typecheck", "interp", "syntax", "model"):
        out[f"{layer}.self_s"] = layer_self(layer)
    for name in names:
        if name not in out and name.endswith(".self_s"):
            out[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
    return {name: out[name] for name in names}
