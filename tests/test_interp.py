import textwrap

import pytest

from rblam.harness import GenConfig, gen_typed_term, gen_value
from rblam.lattice import NAT, TRIPLE
from rblam.syntax import (
    FF,
    NatLit,
    Pair,
    TT,
    alpha_eq,
    is_value,
    parse,
    rename_binders,
)
from rblam.interp import (
    FuelExhausted,
    Stuck,
    evaluate,
    evaluate_trace,
    format_trace,
    trace_cost,
)
from rblam.typecheck import DeltaProfile, Mode

import random

D = DeltaProfile.default(NAT)


def run(src):
    return evaluate(parse(src, NAT), D)


class TestGoldens:
    def test_value_costs_nothing(self):
        r = run("tt")
        assert r.value == TT() and r.cost == NAT.element(0)

    def test_conditional(self):
        r = run("if tt then ff else tt")
        assert r.value == FF() and r.cost == NAT.element(1)

    def test_application(self):
        r = run("(lam x : Bool . if x then ff else tt) tt")
        assert r.value == FF() and r.cost == NAT.element(2)

    def test_unbox(self):
        r = run("unbox (box[5] tt)")
        assert r.value == TT() and r.cost == NAT.element(1)

    def test_projection(self):
        r = run("fst (tt, ff)")
        assert r.value == TT() and r.cost == NAT.element(1)

    def test_nat_literal(self):
        r = run("snd (tt, 7)")
        assert r.value == NatLit(7) and r.cost == NAT.element(1)

    def test_paper_witness_costs_five(self):
        r = run("(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)")
        assert r.value == Pair(FF(), FF()) and r.cost == NAT.element(5)


class TestTraces:
    def test_value_trace_single_node(self):
        result, trace = evaluate_trace(parse("tt", NAT), D)
        assert trace.rule == "Val"
        assert trace.contribution == NAT.element(0)
        assert trace.children == ()

    def test_pair_trace(self):
        # a pair of non-values evaluates componentwise
        result, trace = evaluate_trace(parse("(fst (tt, ff), snd (tt, ff))", NAT), D)
        assert trace.rule == "Pair"
        assert [c.rule for c in trace.children] == ["Fst", "Snd"]
        assert result.cost == NAT.element(2)

    def test_application_trace_shape(self):
        result, trace = evaluate_trace(
            parse("(lam x : Bool . if x then ff else tt) tt", NAT), D
        )
        assert trace.rule == "App"
        assert trace.contribution == NAT.element(1)
        rules = [c.rule for c in trace.children]
        assert rules == ["Val", "Val", "IfT"]
        body = trace.children[2]
        assert body.contribution == NAT.element(1)
        assert [c.rule for c in body.children] == ["Val", "Val"]

    @pytest.mark.parametrize(
        "src, text",
        [
            (
                "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)",
                """\
                App +1  (lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)
                  Val +0  lam f : Bool -> Bool . (f tt, f tt)
                  Val +0  lam x : Bool . if x then ff else tt
                  Pair +0  ((lam x : Bool . if x then ff else tt) tt, (lam x : Bool . if x then ff else tt) tt)
                    App +1  (lam x : Bool . if x then ff else tt) tt
                      Val +0  lam x : Bool . if x then ff else tt
                      Val +0  tt
                      IfT +1  if tt then ff else tt
                        Val +0  tt
                        Val +0  ff
                    App +1  (lam x : Bool . if x then ff else tt) tt
                      Val +0  lam x : Bool . if x then ff else tt
                      Val +0  tt
                      IfT +1  if tt then ff else tt
                        Val +0  tt
                        Val +0  ff""",
            ),
            (
                "unbox (box[3] (fst ((if tt then tt else ff), 2)))",
                """\
                Unbox +1  unbox (box[3] (fst (if tt then tt else ff, 2)))
                  Box +0  box[3] (fst (if tt then tt else ff, 2))
                    Fst +1  fst (if tt then tt else ff, 2)
                      Pair +0  (if tt then tt else ff, 2)
                        IfT +1  if tt then tt else ff
                          Val +0  tt
                          Val +0  tt
                        Val +0  2""",
            ),
            (
                "(snd (ff, tt), if ff then 1 else 2)",
                """\
                Pair +0  (snd (ff, tt), if ff then 1 else 2)
                  Snd +1  snd (ff, tt)
                    Val +0  (ff, tt)
                  IfF +1  if ff then 1 else 2
                    Val +0  ff
                    Val +0  2""",
            ),
        ],
    )
    def test_format_trace_text(self, src, text):
        _, trace = evaluate_trace(parse(src, NAT), D)
        assert format_trace(trace, NAT) == textwrap.dedent(text)

    def test_trace_fold_reproduces_cost(self):
        for src in [
            "unbox (box[3] (fst ((if tt then tt else ff), 2)))",
            "(lam p : Bool * Bool . if fst p then snd p else ff) (tt, ff)",
        ]:
            result, trace = evaluate_trace(parse(src, NAT), D)
            assert trace_cost(trace, NAT) == result.cost


class TestDeterminism:
    def test_repeat_runs_identical(self):
        src = "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)"
        assert run(src) == run(src)

    def test_alpha_renaming_invariant(self):
        term = parse(
            "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT
        )
        renamed = rename_binders(term)
        r1, r2 = evaluate(term, D), evaluate(renamed, D)
        assert r1.cost == r2.cost
        assert alpha_eq(r1.value, r2.value)


class TestValueFixpoint:
    def test_generated_values_evaluate_to_themselves(self):
        cfg = GenConfig(lattice=NAT, seed=9, mode=Mode.SOUND)
        rng = random.Random(4)
        from rblam.harness import DEFAULT_TYPE_WEIGHTS, sample_type

        for i in range(40):
            ty = sample_type(rng, 2, DEFAULT_TYPE_WEIGHTS, NAT)
            v = gen_value(cfg, ty, rng, 3).term
            assert is_value(v)
            result = evaluate(v, D)
            assert result.cost == NAT.element(0)
            assert result.value is v

    @pytest.mark.parametrize("lattice", [NAT, TRIPLE], ids=["nat", "triple"])
    def test_exactly_values_evaluate_to_themselves_at_bottom(self, lattice):
        cfg = GenConfig(lattice=lattice, seed=11, max_depth=5)
        deltas = DeltaProfile.default(lattice)
        values = 0
        for i in range(500):
            term = gen_typed_term(cfg, trial=i)
            result = evaluate(term, deltas)
            returned_itself = result.value is term and result.cost == lattice.bottom()
            assert is_value(term) == returned_itself, term
            values += returned_itself
        assert 50 < values < 450


class TestErrors:
    def test_stuck_on_projection_of_non_pair(self):
        with pytest.raises(Stuck):
            evaluate(parse("fst tt", NAT), D)

    def test_stuck_on_open_term(self):
        with pytest.raises(Stuck):
            evaluate(parse("x", NAT), D)

    def test_stuck_on_non_boolean_condition(self):
        with pytest.raises(Stuck):
            evaluate(parse("if 3 then tt else ff", NAT), D)

    def test_fuel_guard(self):
        term = parse("(lam x : Bool . (x, (x, x))) (if tt then tt else ff)", NAT)
        with pytest.raises(FuelExhausted):
            evaluate(term, D, fuel=2)
        assert evaluate(term, D).cost == NAT.element(2)


def test_typed_terms_never_get_stuck():
    # progress, tested implicitly: generated well-typed terms all evaluate
    cfg = GenConfig(lattice=NAT, seed=123, count=300, max_depth=5, mode=Mode.SOUND)
    for i in range(300):
        term = gen_typed_term(cfg, trial=i)
        evaluate(term, D)


def _trace_nodes(trace):
    return 1 + sum(_trace_nodes(c) for c in trace.children)


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(lattice=NAT, seed=17, max_depth=5, mode=Mode.SOUND),
        GenConfig(lattice=TRIPLE, seed=18, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True),
    ],
    ids=["nat-sound", "triple-paper-reuse"],
)
def test_traced_and_untraced_evaluation_agree(cfg):
    # one unit of fuel per derivation node, traced or not: both succeed with
    # exactly the trace's node count and both run out one unit below it
    deltas = cfg.resolved_deltas()
    for i in range(200):
        term = gen_typed_term(cfg, trial=i)
        result, trace = evaluate_trace(term, deltas)
        assert evaluate(term, deltas) == result
        nodes = _trace_nodes(trace)
        assert evaluate(term, deltas, fuel=nodes) == result
        assert evaluate_trace(term, deltas, fuel=nodes) == (result, trace)
        for run in (evaluate, evaluate_trace):
            with pytest.raises(FuelExhausted):
                run(term, deltas, fuel=nodes - 1)
