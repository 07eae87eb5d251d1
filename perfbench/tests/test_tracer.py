import os

import pytest

from tracer import Spans, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children_and_charged_time():
    spans = Spans()
    a = spans.open(0, 0.0, -1, 1)   # outer: 0..10
    b = spans.open(1, 1.0, a, 1)    # child: 1..4
    c = spans.open(1, 5.0, a, 1)    # child: 5..9, with a grandchild
    d = spans.open(2, 6.0, c, 1)    # grandchild: 6..7
    for i, end in ((a, 10.0), (b, 4.0), (c, 9.0), (d, 7.0)):
        spans.end[i] = end
    spans.charged[c] = 0.5          # e.g. lattice operations inside c
    out = self_times(spans, 3)
    assert out[0] == pytest.approx(10 - 3 - 4)        # 3
    assert out[1] == pytest.approx(3 + (4 - 1 - 0.5))  # b: 3, c: 2.5
    assert out[2] == pytest.approx(1)
    assert sum(out) + 0.5 == pytest.approx(10)        # self times and charged time tile the root


def test_wrappers_nest_spans_fold_recursion_and_charge_leaves():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 1.0

    leaf_w = tr.wrap_leaf("lattice.combine", leaf)

    def inner(n):
        clock.now += 2.0
        leaf_w()
        if n:
            inner_w(n - 1)  # direct recursion through the wrapped name

    inner_w = tr.wrap("syntax.inner", inner)

    def outer():
        clock.now += 1.0
        inner_w(1)
        clock.now += 1.0

    tr.wrap("cli.outer", outer)()
    st = tr.self_time()
    assert tr.calls["syntax.inner"] == 2 and tr.calls["lattice.combine"] == 2
    assert len(tr.spans) == 2                      # the recursive call made no span
    assert st["cli.outer"] == pytest.approx(2.0)
    assert st["syntax.inner"] == pytest.approx(4.0)  # 6 in all, minus 2 of lattice time
    assert tr.leaf_time["lattice.combine"] == pytest.approx(2.0)


def test_a_raising_call_closes_its_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("syntax.boom", boom)()
    assert tr.stack == [] and tr.self_time()["syntax.boom"] == pytest.approx(1.0)


def test_install_traces_rblam_and_uninstall_restores_it(rb):
    original = rb.typecheck.synthesize
    nat = rb.lattice.NAT
    deltas = rb.typecheck.DeltaProfile.default(nat)
    term = rb.syntax.parse("(lam x : Bool . if x then ff else tt) tt", nat)
    tr = Tracer()
    tr.install(rb)
    try:
        assert rb.harness.synthesize is not original and rb.typecheck.synthesize is not original
        rb.typecheck.synthesize(rb.typecheck.Context(), term, nat.element(100), rb.typecheck.Mode.SOUND, deltas)
        rb.interp.evaluate(term, deltas)
    finally:
        tr.uninstall()
    assert rb.typecheck.synthesize is original and rb.harness.synthesize is original
    assert tr.calls["typecheck.synthesize"] == 1
    assert tr.counts["typecheck.synthesize.nodes"] == rb.syntax.term_size(term) == 7
    assert tr.calls["interp.evaluate"] == 1 and tr.calls["syntax.substitute"] == 1
    assert tr.calls["lattice.combine"] > 0 and tr.calls["lattice.bottom"] > 0
    assert "lattice.combine" not in vars(rb.lattice.NatLattice)  # only the base class was patched
    assert all(t >= 0 for t in tr.self_time().values())


class TinyWorkload:
    """One evaluation per pass, through the library."""

    def run(self, b, plan, seed, index):
        nat = b.rb.lattice.NAT
        term = b.rb.syntax.parse("if tt then ff else tt", nat)
        b.op("eval", b.rb.interp.evaluate, term, b.rb.typecheck.DeltaProfile.default(nat))


def test_trace_role_traces_only_the_second_pass(rb, tmp_path):
    import argparse

    from compare import bench_spec
    from conftest import ROOT
    from layers import layer_metrics
    from workloads import Bench
    from worker import run_passes

    b = Bench(rb, str(tmp_path), Tracer())
    args = argparse.Namespace(role="trace", seconds=0.0, seed=1, workload="tiny", root=str(tmp_path))
    passes, setup = run_passes(b, TinyWorkload(), None, args)
    assert len(passes) == 3 and setup == []
    assert b.tracer.calls["interp.evaluate"] == 1 and b.tracer._patched == []
    names = list(bench_spec(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"])
    metrics = layer_metrics(b.tracer, b.counts, ops=1, overhead=2.0, names=names)
    assert list(metrics) == names
    assert metrics["interp.evaluate.calls"] == 1 and metrics["trace_overhead_ratio"] == 2.0


def test_trace_overhead_counts_only_operations_completed_in_both_passes(rb, tmp_path):
    from workloads import Bench
    from worker import trace_overhead

    b = Bench(rb, str(tmp_path))
    b.labels = ["a", "deep", "b", "a", "deep", "b"]
    untraced = {"durations_s": [1.0, 5.0, 2.0], "completed": [True, True, True]}
    traced = {"durations_s": [2.0, 0.1, 4.0], "completed": [True, False, True]}
    assert trace_overhead(b, untraced, traced) == (2.0, ["deep"])
