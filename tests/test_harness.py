import random

import pytest

from rblam.harness import (
    DEFAULT_TYPE_WEIGHTS,
    PROPERTIES,
    GenConfig,
    concretize,
    gen_typed_term,
    gen_value,
    goal_matches,
    minimal_inhabitant,
    minimize,
    report_json,
    run_properties,
    run_property,
    sample_type,
)
from rblam.interp import evaluate
from rblam.lattice import NAT, TRIPLE
from rblam.syntax import (
    App,
    Bool,
    Box,
    If,
    Lam,
    Pair,
    TT,
    Var,
    alpha_eq,
    embed,
    free_vars,
    parse,
    pretty,
    term_size,
)
from rblam.typecheck import Context, DeltaProfile, Mode, retype_value, synthesize

D = DeltaProfile.default(NAT)
BIG = NAT.element(10**6)

CANONICAL = parse(
    "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT
)


def canonical_violation(term):
    try:
        j = synthesize(Context(), term, BIG, Mode.PAPER, D)
        r = evaluate(term, D)
    except Exception:
        return False
    return not NAT.leq(r.cost, j.bound)


class TestGenerator:
    @pytest.mark.parametrize("mode", [Mode.PAPER, Mode.SOUND])
    def test_all_generated_terms_typecheck(self, mode):
        cfg = GenConfig(lattice=NAT, seed=2024, count=300, max_depth=5, mode=mode)
        for i in range(300):
            term = gen_typed_term(cfg, trial=i)
            assert not free_vars(term)
            synthesize(Context(), term, BIG, mode, D)  # must not raise

    def test_generated_terms_match_goal(self):
        cfg = GenConfig(lattice=NAT, seed=77, mode=Mode.SOUND)
        rng = random.Random(5)
        for i in range(120):
            goal = sample_type(rng, 2, cfg.weights(), NAT)
            term = gen_typed_term(cfg, goal=goal, trial=i)
            j = synthesize(Context(), term, BIG, Mode.SOUND, D)
            assert goal_matches(j.type, goal, NAT), (pretty(term), goal)

    def test_box_goals_respect_grade_by_construction(self):
        cfg = GenConfig(lattice=NAT, seed=13, mode=Mode.SOUND)
        for i in range(60):
            goal = Box(NAT.element(i % 4), Bool())
            term = gen_typed_term(cfg, goal=goal, trial=i)
            j = synthesize(Context(), term, BIG, Mode.SOUND, D)
            assert goal_matches(j.type, goal, NAT)

    def test_depth_zero_gives_minimal_inhabitants(self):
        cfg = GenConfig(lattice=NAT, seed=1, max_depth=0, mode=Mode.SOUND)
        term = gen_typed_term(cfg, goal=Bool(), trial=0)
        assert term == TT()

    def test_single_use_restricts_function_occurrences(self):
        cfg = GenConfig(
            lattice=NAT, seed=5, count=200, max_depth=5, mode=Mode.PAPER,
            allow_fn_var_reuse=False,
        )
        for i in range(200):
            term = gen_typed_term(cfg, trial=i)
            assert _max_fn_var_occurrences(term) <= 1

    def test_open_generation_in_context(self):
        cfg = GenConfig(lattice=NAT, seed=8, mode=Mode.SOUND)
        ctx = Context((("x", Bool()),))
        term = gen_typed_term(cfg, ctx=ctx, goal=Bool(), trial=3)
        assert free_vars(term) <= {"x"}
        synthesize(ctx, term, BIG, Mode.SOUND, D)

    def test_generation_is_pure_in_config(self):
        cfg = GenConfig(lattice=NAT, seed=99, count=50, max_depth=5, mode=Mode.SOUND)
        first = [pretty(gen_typed_term(cfg, trial=i)) for i in range(50)]
        second = [pretty(gen_typed_term(cfg, trial=i)) for i in range(50)]
        assert first == second

    def test_trials_vary(self):
        cfg = GenConfig(lattice=NAT, seed=99, mode=Mode.SOUND)
        terms = {pretty(gen_typed_term(cfg, trial=i)) for i in range(30)}
        assert len(terms) > 10


def _max_fn_var_occurrences(term):
    from rblam.harness import type_contains_arrow
    from rblam.syntax import BoxT, Fst, Snd, Unbox

    counts: dict[str, int] = {}

    def walk(t, fn_vars):
        match t:
            case Var(name):
                if name in fn_vars:
                    counts[name] = counts.get(name, 0) + 1
            case Lam(name, annot, body):
                walk(body, fn_vars | ({name} if type_contains_arrow(annot) else set()))
            case App(a, b) | Pair(a, b):
                walk(a, fn_vars)
                walk(b, fn_vars)
            case If(c, a, b):
                walk(c, fn_vars)
                walk(a, fn_vars)
                walk(b, fn_vars)
            case Fst(a) | Snd(a) | Unbox(a) | BoxT(_, a):
                walk(a, fn_vars)

    walk(term, frozenset())
    return max(counts.values(), default=0)


class TestValues:
    def test_values_are_closed_and_typed(self):
        cfg = GenConfig(lattice=NAT, seed=17, mode=Mode.SOUND)
        rng = random.Random(17)
        for _ in range(80):
            ty = sample_type(rng, 2, cfg.weights(), NAT)
            v = gen_value(cfg, ty, rng, 3)
            assert not free_vars(embed(v))
            j = retype_value(v, BIG, Mode.SOUND, D)
            assert goal_matches(j.type, ty, NAT)

    def test_minimal_inhabitants_cost_nothing(self):
        rng = random.Random(3)
        for _ in range(40):
            ty = concretize(sample_type(rng, 3, dict(DEFAULT_TYPE_WEIGHTS), NAT), NAT)
            term = minimal_inhabitant(ty)
            j = synthesize(Context(), term, BIG, Mode.SOUND, D)
            assert j.bound == NAT.element(0)


class TestMinimizer:
    def test_canonical_witness_is_fixpoint(self):
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        assert canonical_violation(CANONICAL)
        assert minimize(CANONICAL, canonical_violation, cfg) == CANONICAL

    def test_noise_reduces_to_canonical(self):
        # junk in an argument and a same-type wrapper around the witness:
        # minimal-inhabitant replacement and hoisting must strip both
        noisy = parse(
            "if tt then"
            " (lam f : Bool -> Bool . (f (if tt then tt else ff), f tt))"
            " (lam x : Bool . if x then ff else tt)"
            " else (tt, tt)",
            NAT,
        )
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        assert canonical_violation(noisy)
        minimized = minimize(noisy, canonical_violation, cfg)
        assert alpha_eq(minimized, CANONICAL)

    def test_compensated_double_use_is_sound(self):
        # a costful else-branch inflates the bound enough to cover the
        # second application: not a violation, so not huntable
        balanced = parse(
            "(lam f : Bool -> Bool . (f tt, f tt))"
            " (lam x : Bool . if x then ff else (lam y : Bool . y) tt)",
            NAT,
        )
        assert not canonical_violation(balanced)

    def test_minimized_still_fails_and_shrinks(self):
        cfg = GenConfig(
            lattice=NAT, seed=4242, count=2000, max_depth=5, mode=Mode.PAPER,
            allow_fn_var_reuse=True,
        )
        found = 0
        for i in range(2000):
            term = gen_typed_term(cfg, trial=i)
            if canonical_violation(term):
                minimized = minimize(term, canonical_violation, cfg)
                assert canonical_violation(minimized)
                assert term_size(minimized) <= term_size(term)
                found += 1
                if found >= 5:
                    break
        assert found >= 1

    def test_sound_term_untouched(self):
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER)
        sound = parse("if tt then ff else tt", NAT)
        assert minimize(sound, canonical_violation, cfg) == sound


class TestProperties:
    @pytest.mark.parametrize(
        "name",
        ["cost_soundness", "determinism", "preservation", "budget_weakening", "box_laws", "substitution"],
    )
    def test_sound_mode_clean(self, name):
        cfg = GenConfig(lattice=NAT, seed=6, count=150, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, name)
        assert report.passed, report.failures[:1]

    def test_paper_single_use_clean(self):
        cfg = GenConfig(
            lattice=NAT, seed=6, count=400, max_depth=5, mode=Mode.PAPER,
            allow_fn_var_reuse=False,
        )
        assert run_property(cfg, "cost_soundness").passed

    def test_paper_reuse_finds_violations(self):
        cfg = GenConfig(
            lattice=NAT, seed=6, count=400, max_depth=5, mode=Mode.PAPER,
            allow_fn_var_reuse=True,
        )
        report = run_property(cfg, "cost_soundness")
        assert report.failure_count > 0
        failure = report.failures[0]
        assert "cost" in failure.observed and "bound" in failure.observed
        minimized = parse(failure.minimized, NAT)
        assert canonical_violation(minimized)

    def test_triple_lattice_clean(self):
        deltas = DeltaProfile.uniform(TRIPLE.element((1, 0, 0)))
        cfg = GenConfig(lattice=TRIPLE, seed=6, count=150, max_depth=5, mode=Mode.SOUND, deltas=deltas)
        for name in ["cost_soundness", "budget_weakening"]:
            assert run_property(cfg, name).passed

    def test_every_lattice_shape_clean(self, data_dir):
        from rblam.lattice import GAS, ProductLattice, SaturatingNatLattice, load_lattice

        instances = [
            GAS,
            SaturatingNatLattice(4),
            load_lattice(str(data_dir / "diamond.lat")),
            ProductLattice([NAT, NAT]),
        ]
        for inst in instances:
            cfg = GenConfig(lattice=inst, seed=11, count=120, max_depth=5, mode=Mode.SOUND)
            for report in run_properties(cfg):
                assert report.passed, (inst.name, report.name, report.failures[:1])

    def test_unknown_property_rejected(self):
        cfg = GenConfig(lattice=NAT, seed=0, count=1)
        with pytest.raises(KeyError):
            run_property(cfg, "nope")


class TestReports:
    def test_reports_identical_across_runs(self):
        cfg = GenConfig(lattice=NAT, seed=42, count=120, max_depth=5, mode=Mode.SOUND)
        a = report_json(run_properties(cfg, ["cost_soundness", "box_laws"]), cfg)
        b = report_json(run_properties(cfg, ["cost_soundness", "box_laws"]), cfg)
        assert a == b

    def test_reports_identical_across_worker_counts(self):
        cfg = GenConfig(
            lattice=NAT, seed=42, count=200, max_depth=5, mode=Mode.PAPER,
            allow_fn_var_reuse=True,
        )
        seq = report_json([run_property(cfg, "cost_soundness", workers=1)], cfg)
        par = report_json([run_property(cfg, "cost_soundness", workers=3)], cfg)
        assert seq == par

    def test_raising_trial_is_recorded_and_the_run_goes_on(self, monkeypatch):
        real = PROPERTIES["determinism"]

        def flaky(cfg, trial):
            if trial == 3:
                raise RuntimeError("boom")
            return real(cfg, trial)

        monkeypatch.setitem(PROPERTIES, "determinism", flaky)
        cfg = GenConfig(lattice=NAT, seed=4, count=40, mode=Mode.SOUND)
        seq = run_property(cfg, "determinism", workers=1)
        # the pool's forked workers inherit the patched table
        par = run_property(cfg, "determinism", workers=2)
        assert report_json([seq], cfg) == report_json([par], cfg)
        assert seq.trials == 40 and seq.failure_count == 1
        [failure] = seq.failures
        assert failure.trial == 3
        assert failure.relation == "trial raises no exception"
        assert failure.observed == {"error": "RuntimeError: boom"}

    def test_report_round_trips_through_json(self):
        import json

        cfg = GenConfig(lattice=NAT, seed=7, count=60, mode=Mode.SOUND)
        doc = json.loads(report_json(run_properties(cfg, ["determinism"]), cfg))
        assert doc["config"]["seed"] == 7
        assert doc["properties"][0]["property"] == "determinism"
        assert doc["properties"][0]["trials"] == 60
        assert doc["properties"][0]["failure_count"] == 0
