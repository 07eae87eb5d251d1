import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblam import harness, typecheck
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
from rblam.lattice import NAT, TRIPLE, NatLattice, SaturatingNatLattice, builtin_lattice
from rblam.syntax import (
    App,
    Arrow,
    Bool,
    Box,
    BoxT,
    If,
    Lam,
    Nat,
    Pair,
    Prod,
    TT,
    Unbox,
    Var,
    alpha_eq,
    children,
    free_vars,
    parse,
    pretty,
    rebuild,
    term_size,
)
from rblam.typecheck import Context, DeltaProfile, Derivation, GradeExceeded, Mode, TypingError, derive, synthesize

D = DeltaProfile.default(NAT)
BIG = NAT.element(10**6)

CANONICAL = parse(
    "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT
)


# junk in an argument and a same-type wrapper around the witness
NOISY = parse(
    "if tt then"
    " (lam f : Bool -> Bool . (f (if tt then tt else ff), f tt))"
    " (lam x : Bool . if x then ff else tt)"
    " else (tt, tt)",
    NAT,
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

    @pytest.mark.parametrize(
        "inst, mode, reuse",
        [(NAT, Mode.SOUND, False), (NAT, Mode.PAPER, True), (TRIPLE, Mode.SOUND, False), (TRIPLE, Mode.PAPER, True)],
        ids=["nat-sound", "nat-paper-reuse", "triple-sound", "triple-paper-reuse"],
    )
    def test_built_derivation_is_the_synthesized_one(self, monkeypatch, inst, mode, reuse):
        built = []
        real = harness._gen

        def recorded(st, ctx, goal, depth):
            deriv = real(st, ctx, goal, depth)
            built.append((ctx, deriv))
            return deriv

        monkeypatch.setattr(harness, "_gen", recorded)
        cfg = GenConfig(lattice=inst, seed=31, max_depth=6, mode=mode, allow_fn_var_reuse=reuse)
        deltas = cfg.deltas
        for i in range(500):
            term = gen_typed_term(cfg, trial=i)
            ctx, deriv = built[-1]  # the outermost call returns last
            assert deriv.term == term
            assert deriv == synthesize(ctx, term, inst.large_budget(), mode, deltas).trace, pretty(term)

    def test_generated_terms_match_goal(self):
        cfg = GenConfig(lattice=NAT, seed=77, mode=Mode.SOUND)
        rng = random.Random(5)
        for i in range(120):
            goal = sample_type(rng, 2, NAT)
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

    def test_generation_outside_a_run_is_fresh(self):
        cfg = GenConfig(lattice=NAT, seed=99, mode=Mode.SOUND)
        first, second = harness._generate(cfg, trial=4), harness._generate(cfg, trial=4)
        assert first == second and first is not second

    def test_trials_vary(self):
        cfg = GenConfig(lattice=NAT, seed=99, mode=Mode.SOUND)
        terms = {pretty(gen_typed_term(cfg, trial=i)) for i in range(30)}
        assert len(terms) > 10

    @pytest.mark.parametrize("concretized_first", [False, True])
    def test_inhabitant_keys_a_goal_apart_from_its_concretization(self, concretized_first):
        # a sound-mode goal with absent latents has its own canonical
        # inhabitant; the concretized one annotates its binder differently
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.SOUND)
        goal = Arrow(Arrow(Bool(), Bool(), None), Bool(), None)
        state = harness._GenState(cfg, random.Random(0))
        order = [True, False] if concretized_first else [False, True]
        got = {concrete: state.inhabitant(goal, concrete) for concrete in order}
        assert got[False].term == minimal_inhabitant(goal)
        assert got[True].term == minimal_inhabitant(concretize(goal, NAT))
        assert got[False].term != got[True].term
        # the inhabitant holds no variable: its derivation is the one in any context
        ctx = Context((("u", Nat()), ("x", Bool())))
        for concrete, d in got.items():
            assert d == derive(ctx, d.term, Mode.SOUND, D, NAT)
            assert state.inhabitant(goal, concrete) is d

    def test_inhabitant_memo_lives_one_generation(self, monkeypatch):
        # every generation starts from an empty memo, so generating the same
        # trials again builds the same canonical inhabitants again
        built = []
        real = harness.minimal_inhabitant
        monkeypatch.setattr(harness, "minimal_inhabitant", lambda ty: built.append(ty) or real(ty))
        cfg = GenConfig(lattice=TRIPLE, seed=7, max_depth=6, mode=Mode.SOUND)
        rng = random.Random(7)
        goals = [sample_type(rng, 2, TRIPLE) for _ in range(20)]

        def generate():
            value_rng = random.Random(3)
            return ([harness._generate(cfg, trial=i) for i in range(20)]
                    + [gen_value(cfg, goal, value_rng, 3) for goal in goals])

        first = generate()
        count = len(built)
        built.clear()
        assert generate() == first
        assert len(built) == count > 0


def reference_productions(var, head, shape):
    """_gen's weighted productions, built the way _gen built them at each
    call before it drew from prebuilt tables."""
    candidates = []
    if var:
        candidates.append(("var", 2.0))
    if head:
        candidates.append(("headvar", 2.5))
    candidates.extend([("leaf", 1.5), ("if", 1.2), ("redex", 1.6), ("proj", 0.5), ("unbox", 0.4)])
    candidates.extend({
        "other": [],
        "prod": [("pair", 3.0)],
        "square": [("pair", 3.0), ("hunt", 2.5)],
        "arrow": [("lam", 3.0)],
        "box": [("boxed", 3.0)],
    }[shape])
    return candidates


GENERATOR_WEIGHTS = [list(DEFAULT_TYPE_WEIGHTS.items())] + [
    reference_productions(*key) for key in harness._PRODUCTIONS
]


def reference_concretize(ty, inst, rng=None, mode=Mode.SOUND):
    """concretize as it was when it matched each type class by hand, kept
    as the reference for the walk through `children` and `rebuild`."""
    if mode is Mode.PAPER or not typecheck.type_contains_arrow(ty):
        return ty
    match ty:
        case Arrow(dom, cod, latent):
            if latent is None:
                latent = inst.random_element(rng) if rng is not None else inst.bottom()
            return Arrow(reference_concretize(dom, inst, rng), reference_concretize(cod, inst, rng), latent)
        case Prod(left, right):
            return Prod(reference_concretize(left, inst, rng), reference_concretize(right, inst, rng))
        case Box(grade, body):
            return Box(grade, reference_concretize(body, inst, rng))


def some_latents_given(ty, inst, rng):
    """ty with about half of its arrows given a latent, the rest left wildcards."""
    match ty:
        case Arrow(dom, cod, _):
            latent = inst.random_element(rng) if rng.random() < 0.5 else None
            return Arrow(some_latents_given(dom, inst, rng), some_latents_given(cod, inst, rng), latent)
        case Prod(left, right):
            return Prod(some_latents_given(left, inst, rng), some_latents_given(right, inst, rng))
        case Box(grade, body):
            return Box(grade, some_latents_given(body, inst, rng))
    return ty


class TestConcretize:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("lattice", ["nat", "triple", "sat3"])
    def test_matches_the_reference_in_result_and_draws(self, lattice, mode):
        inst = builtin_lattice(lattice)
        rng = random.Random(f"concretize {lattice}")
        sampled = [sample_type(rng, 4, inst) for _ in range(200)]
        types = sampled + [some_latents_given(ty, inst, rng) for ty in sampled]
        assert sum(typecheck.type_contains_arrow(ty) for ty in sampled) > 50
        for seeded in (False, True):
            ours, theirs = random.Random(11), random.Random(11)
            for ty in types:
                got = concretize(ty, inst, ours if seeded else None, mode)
                assert got == reference_concretize(ty, inst, theirs if seeded else None, mode), ty
                assert ours.getstate() == theirs.getstate()
        assert ours.getstate() != random.Random(11).getstate() or mode is Mode.PAPER

    def test_latents_are_drawn_in_preorder(self):
        inst = builtin_lattice("sat3")
        ty = Arrow(Arrow(Bool(), Bool()), Prod(Arrow(Nat(), Bool()), Box(inst.element(2), Arrow(Bool(), Nat()))))
        draws = random.Random(3)
        expected = [inst.random_element(draws) for _ in range(4)]
        got = concretize(ty, inst, random.Random(3))
        assert [got.latent, got.dom.latent, got.cod.left.latent, got.cod.right.body.latent] == expected
        assert got.cod.right.grade is inst.element(2)


class TestWeightedDraws:
    def test_production_tables_are_the_candidate_lists(self):
        assert set(harness._PRODUCTIONS) == {
            (var, head, shape) for var in (False, True) for head in (False, True)
            for shape in ("other", "prod", "square", "arrow", "box")
        }
        for key, table in harness._PRODUCTIONS.items():
            assert table == harness._table(reference_productions(*key)), key

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**64),
        st.one_of(
            st.sampled_from(GENERATOR_WEIGHTS),
            st.lists(
                st.floats(min_value=0.0, max_value=1e12, exclude_min=True, allow_nan=False),
                min_size=1, max_size=12,
            ).map(lambda ws: [(f"n{i}", w) for i, w in enumerate(ws)]),
        ),
    )
    def test_draw_is_random_choices(self, seed, weighted):
        # the same picks from the same single rng.random() per draw, so the
        # generator's terms do not change
        names = [name for name, _ in weighted]
        weights = [w for _, w in weighted]
        table = harness._table(weighted)
        ours, reference = random.Random(seed), random.Random(seed)
        assert ([harness._draw(ours, table) for _ in range(50)]
                == [reference.choices(names, weights)[0] for _ in range(50)])
        assert ours.getstate() == reference.getstate()

    def test_harness_draws_no_weighted_choice_itself(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random.choices called")

        monkeypatch.setattr(random.Random, "choices", refuse)
        cfg = GenConfig(lattice=NAT, seed=7, count=20, max_depth=5, mode=Mode.SOUND)
        assert all(r.passed for r in run_properties(cfg))

    def test_type_table_is_built_once_at_import(self, monkeypatch):
        assert harness._TYPES == harness._table(DEFAULT_TYPE_WEIGHTS.items())

        def refuse(weighted):
            raise AssertionError("weight table built during a run")

        monkeypatch.setattr(harness, "_table", refuse)
        cfg = GenConfig(lattice=NAT, seed=7, count=20, max_depth=5, mode=Mode.SOUND)
        assert all(r.passed for r in run_properties(cfg))


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
            ty = sample_type(rng, 2, NAT)
            v = gen_value(cfg, ty, rng, 3).term
            assert not free_vars(v)
            j = synthesize(Context(), v, BIG, Mode.SOUND, D)
            assert goal_matches(j.type, ty, NAT)

    @pytest.mark.parametrize(
        "inst, mode, reuse",
        [(NAT, Mode.SOUND, False), (NAT, Mode.PAPER, True), (TRIPLE, Mode.SOUND, False), (TRIPLE, Mode.PAPER, True)],
        ids=["nat-sound", "nat-paper-reuse", "triple-sound", "triple-paper-reuse"],
    )
    def test_value_derivation_is_the_synthesized_one(self, inst, mode, reuse):
        cfg = GenConfig(lattice=inst, seed=19, mode=mode, allow_fn_var_reuse=reuse)
        rng = random.Random(19)
        for _ in range(150):
            ty = sample_type(rng, 2, inst)
            v = gen_value(cfg, ty, rng, 3)
            assert v == synthesize(Context(), v.term, inst.large_budget(), mode, cfg.deltas).trace

    def test_minimal_inhabitants_cost_nothing(self):
        rng = random.Random(3)
        for _ in range(40):
            ty = concretize(sample_type(rng, 3, NAT), NAT)
            term = minimal_inhabitant(ty)
            j = synthesize(Context(), term, BIG, Mode.SOUND, D)
            assert j.bound == NAT.element(0)


def violating(d):
    """canonical_violation as a minimizer property, which receives derivations."""
    return canonical_violation(d.term)


def replace_at(t, path, new):
    """The reference for a minimizer move: t with the subterm at path replaced."""
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(t, kids)


def path_of(table, i):
    """The path from the root to position i of a minimizer table, read off
    its parent links and slots."""
    path = ()
    while i:
        path, i = (table.slots[i],) + path, table.parents[i]
    return path


class TestMinimizer:
    def test_canonical_witness_is_fixpoint(self):
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        assert canonical_violation(CANONICAL)
        assert minimize(CANONICAL, violating, cfg) == CANONICAL

    def test_noise_reduces_to_canonical(self):
        # minimal-inhabitant replacement and hoisting must strip both
        # kinds of noise
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        assert canonical_violation(NOISY)
        minimized = minimize(NOISY, violating, cfg)
        assert alpha_eq(minimized, CANONICAL)

    def test_input_derived_once_and_each_candidate_along_its_path(self, monkeypatch):
        # minimize never synthesizes: it derives its input once, and each
        # candidate costs its own derivation plus at most one derive per node
        # on its path; the property evaluates each candidate once. A minimal
        # inhabitant is derived through the generator state's binding,
        # derive_or_untyped, so both bindings are counted, each at the top
        # level only
        real_derive, real_respine, real_evaluate = harness.derive, harness._respine, harness.evaluate
        real_derive_or_untyped, real_candidates = harness.derive_or_untyped, harness._candidates
        synthesized, derived, yielded, spines, evaluated, offered = [], [], [], [], [], []

        def counted(real):
            def counted_derive(ctx, t, mode, d, inst, kids=()):
                derived.append((t, bool(kids)))
                return real(ctx, t, mode, d, inst, kids)

            return counted_derive

        def counted_respine(table, i, spine, new, *rest):
            start, path = len(derived), path_of(table, i)
            try:
                return real_respine(table, i, spine, new, *rest)
            finally:
                spines.append((path, derived[start:], replace_at(table.derivs[0].term, path, new.term)))

        def recorded_candidates(table, *rest):
            for i, cand in real_candidates(table, *rest):
                path = path_of(table, i)
                yielded.append((path, replace_at(table.derivs[0].term, path, cand.term)))
                yield i, cand

        def counted_evaluate(t, deltas):
            evaluated.append(t)
            return real_evaluate(t, deltas)

        monkeypatch.setattr(harness, "synthesize", lambda *args: synthesized.append(args))
        monkeypatch.setattr(harness, "derive", counted(real_derive))
        monkeypatch.setattr(harness, "derive_or_untyped", counted(real_derive_or_untyped))
        monkeypatch.setattr(harness, "_respine", counted_respine)
        monkeypatch.setattr(harness, "_candidates", recorded_candidates)
        monkeypatch.setattr(harness, "evaluate", counted_evaluate)
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        violated = harness._cost_soundness_violation(cfg)

        def prop(d):
            offered.append(d.term)
            return violated(d)

        assert alpha_eq(minimize(NOISY, prop, cfg), CANONICAL)
        assert synthesized == []
        assert derived[0] == (NOISY, False)
        assert all(kids for _, calls, _ in spines for _, kids in calls)
        assert all(len(calls) <= len(path) for path, calls, _ in spines)
        assert sum(kids for _, kids in derived) == sum(len(calls) for _, calls, _ in spines)
        # every other derive is at most one per candidate, its own; each
        # candidate is re-derived along its spine once and evaluated once
        assert sum(not kids for _, kids in derived) - 1 <= len(yielded)
        # the spines are the yielded moves minus those whose term this call
        # already tried, so no two spines build equal terms
        first_tries = []
        for path, term in yielded:
            if term not in [t for _, t in first_tries]:
                first_tries.append((path, term))
        assert [(path, term) for path, _, term in spines] == first_tries
        assert len({term for _, _, term in spines}) == len(spines) < len(yielded)
        assert evaluated == offered and len(offered) <= len(yielded)

    @pytest.mark.parametrize(
        "inst, mode, reuse",
        [(NAT, Mode.SOUND, False), (NAT, Mode.PAPER, True), (TRIPLE, Mode.SOUND, False), (TRIPLE, Mode.PAPER, True)],
        ids=["nat-sound", "nat-paper-reuse", "triple-sound", "triple-paper-reuse"],
    )
    def test_spine_rederivation_is_the_full_derivation(self, inst, mode, reuse):
        # every move the minimizer yields, and tt at every position as a move
        # that often does not type, re-derived along its spine must give the
        # derivation of the replaced term, and fail exactly where it fails
        cfg = GenConfig(lattice=inst, seed=23, max_depth=5, mode=mode, allow_fn_var_reuse=reuse)
        deltas = cfg.deltas
        state = harness._GenState(cfg, None)
        tt = derive(Context(), TT(), mode, deltas, inst)
        outcomes = set()
        for i in range(40):
            term = gen_typed_term(cfg, trial=i)
            root = derive(Context(), term, mode, deltas, inst)
            table = harness._Preorder(root)
            moves = list(harness._candidates(table, state, {}))
            moves += [(j, tt) for j in range(len(table.derivs))]
            for j, cand in moves:
                path = path_of(table, j)
                replaced = replace_at(term, path, cand.term)
                try:
                    full = derive(Context(), replaced, mode, deltas, inst)
                except TypingError:
                    full = None
                terms = table.spine(j, cand.term)
                assert terms[-1] == replaced and len(terms) == len(path) + 1
                try:
                    spine = harness._respine(table, j, terms, cand, state)
                except TypingError:
                    spine = None
                assert spine == full, (pretty(term), path, pretty(cand.term))
                outcomes.add(full is None)
        assert outcomes == {True, False}

    def test_each_distinct_candidate_is_offered_once_per_call(self):
        # a term the call already tried was rejected, so the property sees
        # each distinct candidate at most once: on NOISY, and on the first 20
        # violations of the hunt at seed 7
        cfg = GenConfig(lattice=NAT, seed=7, count=999, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
        witnesses = [(NOISY, violating)]
        trial = 0
        while len(witnesses) < 21:
            try:
                harness._check_cost_soundness(cfg, trial)
            except harness._Violation as v:
                witnesses.append((v.term, v.predicate))
            trial += 1
        for term, predicate in witnesses:
            offered = []

            def recorded(d):
                offered.append(d.term)
                return predicate(d)

            minimized = minimize(term, recorded, cfg)
            assert predicate(derive(Context(), minimized, cfg.mode, cfg.deltas, NAT))
            assert len(set(offered)) == len(offered) > 0

    def test_hoist_types_a_shadowed_variable_in_the_outer_context(self):
        # inside u = (lam x : Nat . x) 3 the variable x is a Nat, but hoisted
        # out of u it names the outer x : Bool, so it cannot replace the Nat
        # u; the literal 3 can (the predicate rejects u's minimal inhabitant 0)
        def typed_without_zero(term):
            try:
                synthesize(Context(), term, BIG, Mode.PAPER, D)
            except TypingError:
                return False
            return "0" not in pretty(term)

        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER)
        term = parse("lam x : Bool . (lam x : Nat . x) 3", NAT)
        assert minimize(term, lambda d: typed_without_zero(d.term), cfg) == parse("lam x : Bool . 3", NAT)

    def test_ill_typed_term_returned_unchanged(self):
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER)
        term = parse("(if tt then ff else tt) tt", NAT)
        assert minimize(term, lambda d: True, cfg) == term

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
        found = shrunk = 0
        for i in range(2000):
            term = gen_typed_term(cfg, trial=i)
            if canonical_violation(term):
                minimized = minimize(term, violating, cfg)
                assert canonical_violation(minimized)
                assert term_size(minimized) <= term_size(term)
                found += 1
                shrunk += term_size(minimized) < term_size(term)
                if found >= 5:
                    break
        assert found >= 1 and shrunk >= 1

    def test_sound_term_untouched(self):
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER)
        sound = parse("if tt then ff else tt", NAT)
        assert minimize(sound, violating, cfg) == sound


def _charging(extra):
    """A fault in evaluate: each result costs extra(term) more."""
    def fault(real):
        def evaluate(t, deltas):
            r = real(t, deltas)
            return dataclasses.replace(r, cost=NAT.combine(r.cost, extra(t)))

        return evaluate

    return fault


def _nondeterministic(real):
    calls = itertools.count()
    return _charging(lambda t: NAT.element(next(calls)))(real)


def _judging(change):
    """A fault in synthesize: each judgment is change(judgment, budget)."""
    return lambda real: lambda ctx, t, budget, *rest: change(real(ctx, t, budget, *rest), budget)


def _unbox_charges_nothing(rule):
    def unbox(ctx, t, mode, d, inst, kids):
        j = rule(ctx, t, mode, d, inst, kids)
        return dataclasses.replace(j, bound=j.children[0].bound)

    return unbox


def _box_promotes_at_bottom(rule):
    def box(ctx, t, mode, d, inst, kids):
        try:
            return rule(ctx, t, mode, d, inst, kids)
        except GradeExceeded:
            if t.grade != inst.bottom():
                raise
            body = kids[0] if kids else typecheck.RULES[t.body.__class__](ctx, t.body, mode, d, inst, ())
            return Derivation("Box", t, Box(t.grade, body.type), body.bound, (body,))

    return box


class TestProperties:
    @pytest.mark.parametrize(
        "name",
        ["cost_soundness", "determinism", "preservation", "budget_weakening", "box_laws", "substitution"],
    )
    def test_sound_mode_clean(self, name):
        cfg = GenConfig(lattice=NAT, seed=6, count=150, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, name)
        assert report.passed, report.failures[:1]

    @pytest.mark.parametrize(
        "name, key", [("cost_soundness", "eval_error"), ("determinism", "eval_error"), ("preservation", "error")]
    )
    def test_fuel_exhaustion_breaks_only_the_fuel_relation(self, monkeypatch, name, key):
        # a term that outruns its fuel may still terminate, so it breaks no
        # relation of the suite: it is reported as out of fuel, under the
        # suite's own observed key
        real_evaluate = harness.evaluate
        monkeypatch.setattr(harness, "evaluate", lambda t, deltas: real_evaluate(t, deltas, 3))
        cfg = GenConfig(lattice=NAT, seed=6, count=40, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, name)
        assert 0 < report.failure_count < cfg.count
        for failure in report.failures:
            assert failure.relation == "evaluation within fuel"
            assert failure.observed == {key: "evaluation fuel exhausted"}

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

    def test_short_lattices_cannot_show_the_paper_mode_undercount(self, monkeypatch):
        # the smallest known undercount has (k, b) = (5, 4), so it needs a
        # chain of 6 levels: sat3 and sat4 saturate below it. Shared
        # elements change no report: an instance that shares none gives
        # the same one
        def report(inst):
            cfg = GenConfig(lattice=inst, seed=7, count=1000, mode=Mode.PAPER, allow_fn_var_reuse=True)
            return run_property(cfg, "cost_soundness")

        reports = {cap: report(builtin_lattice(f"sat{cap}")) for cap in (3, 4, 5, 6)}
        assert {cap: r.failure_count for cap, r in reports.items()} == {3: 0, 4: 0, 5: 2, 6: 4}
        assert all(int(f.observed["cost"]) > int(f.observed["bound"]) for f in reports[6].failures)
        monkeypatch.setattr("rblam.lattice.SHARED_ELEMENTS", 0)
        assert report(SaturatingNatLattice(5)).to_dict() == reports[5].to_dict()

    def test_violating_entry_returns_its_failure(self):
        # a check raises its violation; the PROPERTIES entry returns the
        # minimized Failure instead of raising, so that timing each entry as
        # one operation times the minimization and counts no failed one
        cfg = GenConfig(lattice=NAT, seed=6, count=150, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
        first = run_property(cfg, "cost_soundness").failures[0]
        failure = PROPERTIES["cost_soundness"](cfg, first.trial)
        assert failure == first and failure.relation == "cost <= bound <= budget"
        assert canonical_violation(parse(failure.minimized, NAT))

    def test_raising_minimization_is_a_raising_trial(self, monkeypatch):
        cfg = GenConfig(lattice=NAT, seed=6, count=150, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
        violating = [f.trial for f in run_property(cfg, "cost_soundness").failures]

        def broken(*args):
            raise RuntimeError("minimizer down")

        monkeypatch.setattr(harness, "minimize", broken)
        report = run_property(cfg, "cost_soundness")
        assert violating and [f.trial for f in report.failures] == violating
        for f in report.failures:
            assert f.relation == "trial raises no exception"
            assert f.observed == {"error": "RuntimeError: minimizer down"}

    def test_deltas_resolved_once_for_their_own_lattice(self):
        cfg = GenConfig(lattice=TRIPLE)
        assert cfg.deltas == DeltaProfile.default(TRIPLE) and cfg.resolved_deltas() is cfg.deltas
        # another lattice's profile would fail every trial as a raising one
        with pytest.raises(ValueError, match="^delta profile belongs to lattice 'triple', not to 'nat'$"):
            GenConfig(lattice=NAT, deltas=DeltaProfile.default(TRIPLE))

    def test_faulty_lattice_still_yields_the_generated_terms(self, monkeypatch):
        # an off-by-one in nat composition pushes some generated box bodies
        # over their grade; generation still returns each term, and the
        # trial's own check reports it with the term
        monkeypatch.setattr(NatLattice, "_combine", lambda self, a, b: a + b + 1)
        cfg = GenConfig(lattice=NAT, seed=3, count=100, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, "cost_soundness")
        assert report.failure_count > 0
        assert {f.relation for f in report.failures} == {"generated term typechecks"}
        assert all(f.term for f in report.failures)
        # the untyped root is derived again whole, so the message is the one
        # synthesize gives for the term under the same fault
        for f in report.failures:
            with pytest.raises(TypingError) as exc:
                synthesize(Context(), parse(f.term, NAT), BIG, Mode.SOUND, D)
            assert f.observed["type_error"] == str(exc.value)

    @pytest.mark.parametrize("inst", [NAT, TRIPLE], ids=["nat", "triple"])
    def test_suites_read_the_generated_derivations(self, monkeypatch, inst):
        # on passing runs only terms the suite did not generate are
        # synthesized: preservation's result value, substitution's closed
        # term, and budget_weakening's term once per budget
        expected = {"cost_soundness": 0, "determinism": 0, "box_laws": 0,
                    "preservation": 1, "substitution": 1, "budget_weakening": 2}
        calls, per_trial = [], []
        real_synthesize = harness.synthesize

        def counted(*args):
            calls.append(args)
            return real_synthesize(*args)

        monkeypatch.setattr(harness, "synthesize", counted)
        cfg = GenConfig(lattice=inst, seed=7, count=60, max_depth=5, mode=Mode.SOUND)
        for name, n in expected.items():
            real = PROPERTIES[name]

            def trial(cfg, i, real=real):
                start = len(calls)
                failure = real(cfg, i)
                per_trial.append(len(calls) - start)
                return failure

            monkeypatch.setitem(PROPERTIES, name, trial)
            per_trial.clear()
            assert run_property(cfg, name).passed
            assert per_trial == [n] * cfg.count, name

    def test_box_laws_rejects_a_value_that_is_not_a_box(self, monkeypatch):
        # an explicit check, not an assert: it must hold under python -O too
        not_a_box = derive(Context(), TT(), Mode.SOUND, D, NAT)
        monkeypatch.setattr(harness, "gen_value", lambda *args: not_a_box)
        cfg = GenConfig(lattice=NAT, seed=5, count=20, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, "box_laws")
        assert report.failure_count == 20
        for f in report.failures:
            assert f.relation == "grade monotone acceptance" and f.term == "tt"
            assert f.observed["error"].startswith("synthesized type Bool does not match expected Box")

    @pytest.mark.parametrize(
        "suite, target, fault, relation",
        [
            ("determinism", "evaluate", _nondeterministic, "evaluation is deterministic"),
            # rename_binders names every binder v<N>, which the generator never does
            ("determinism", "evaluate", _charging(lambda t: NAT.element(int("lam v" in pretty(t)))),
             "evaluation is alpha-invariant"),
            ("preservation", "synthesize", _judging(lambda j, r: dataclasses.replace(j, type=Prod(j.type, j.type))),
             "result type preserved up to grade subsumption"),
            ("preservation", "synthesize",
             _judging(lambda j, r: dataclasses.replace(j, bound=NAT.combine(j.bound, NAT.large_budget()))),
             "result bound below original"),
            ("budget_weakening", "synthesize",
             _judging(lambda j, r: dataclasses.replace(j, bound=NAT.join(j.bound, r))),
             "bound independent of budget"),
            ("budget_weakening", "synthesize",
             _judging(lambda j, r: dataclasses.replace(j, within_budget=NAT.leq(r, j.bound))),
             "verdict monotone in the budget"),
            ("box_laws", Unbox, _unbox_charges_nothing,
             "counit: unbox typechecks at the body type, bound + delta_unbox"),
            ("box_laws", "evaluate", _charging(lambda t: NAT.large_budget()), "boxed body cost within grade"),
            ("box_laws", BoxT, _box_promotes_at_bottom, "no unconditional promotion"),
            ("substitution", "evaluate", _charging(lambda t: NAT.large_budget()),
             "substituted cost within open bound"),
        ],
        ids=["determinism", "alpha-invariance", "result type", "result bound", "bound independent of budget",
             "verdict monotone", "counit", "boxed-body cost", "no unconditional promotion", "substituted cost"],
    )
    def test_each_relation_can_fail(self, monkeypatch, suite, target, fault, relation):
        # one fault in evaluate, synthesize or a typing rule breaks exactly
        # the relation the suite states for it
        if isinstance(target, str):
            monkeypatch.setattr(harness, target, fault(getattr(harness, target)))
        else:
            monkeypatch.setitem(typecheck.RULES, target, fault(typecheck.RULES[target]))
        cfg = GenConfig(lattice=NAT, seed=6, count=30, max_depth=5, mode=Mode.SOUND)
        report = run_property(cfg, suite)
        assert report.failure_count > 0
        assert {f.relation for f in report.failures} == {relation}

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

    def test_every_name_checked_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setitem(PROPERTIES, "determinism", lambda cfg, trial: ran.append(trial))
        cfg = GenConfig(lattice=NAT, seed=0, count=5)
        with pytest.raises(KeyError, match="nope"):
            run_properties(cfg, ["determinism", "nope"])
        assert ran == []

    def test_suites_share_each_trials_generation(self, monkeypatch):
        # determinism, preservation and budget_weakening each generate the
        # trial's term with the same arguments: it is built once per trial
        roots = []
        real = harness._gen

        def recorded(st, ctx, goal, depth):
            if depth == st.cfg.max_depth:
                roots.append(goal)
            return real(st, ctx, goal, depth)

        monkeypatch.setattr(harness, "_gen", recorded)
        cfg = GenConfig(lattice=NAT, seed=7, count=40, max_depth=5, mode=Mode.SOUND)
        reports = run_properties(cfg, ["determinism", "preservation", "budget_weakening"])
        assert all(r.passed for r in reports)
        assert len(roots) == cfg.count
        assert harness._generations is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_memos_end_with_the_run(self, monkeypatch, workers):
        # a trial sees the run's memos live; a trial that raises ends
        # neither, and no memo outlives the run. At two workers the probes
        # run in the pool's processes, one trial range each
        real = PROPERTIES["determinism"]
        memos = []

        def probed(cfg, trial):
            memos.append((harness._inhabitants, harness._generations))
            if trial in (3, 30):
                live = harness._inhabitants is not None and harness._generations is not None
                raise RuntimeError(f"memos live: {live}")
            return real(cfg, trial)

        monkeypatch.setitem(PROPERTIES, "determinism", probed)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = GenConfig(lattice=NAT, seed=4, count=40, mode=Mode.SOUND)
        report = run_property(cfg, "determinism", workers=workers)
        assert [f.trial for f in report.failures] == [3, 30]
        assert all(f.observed == {"error": "RuntimeError: memos live: True"} for f in report.failures)
        assert harness._inhabitants is None and harness._generations is None
        if workers == 1:
            # one inhabitant memo for the run, one generation memo per trial
            assert len({id(inhabitants) for inhabitants, _ in memos}) == 1
            assert len({id(generations) for _, generations in memos}) == cfg.count

    @pytest.mark.parametrize("hunt", [False, True], ids=["six_suites_on_triple", "hunt"])
    def test_each_inhabitant_derived_once_per_run(self, monkeypatch, hunt):
        # every generator state of the run, minimize's included, reads one
        # memo: each distinct (goal, concrete) key is derived on its first
        # request only, and every request for it gets the same derivation
        real = harness._GenState.inhabitant
        got: dict[tuple, set[int]] = {}
        misses = 0

        def recorded(st, goal, concrete=True):
            nonlocal misses
            misses += (goal, concrete) not in st.inhabitants
            d = real(st, goal, concrete)
            got.setdefault((goal, concrete), set()).add(id(d))
            return d

        monkeypatch.setattr(harness._GenState, "inhabitant", recorded)
        minimized = []
        real_minimize = harness.minimize
        monkeypatch.setattr(harness, "minimize", lambda *args: minimized.append(1) or real_minimize(*args))
        if hunt:
            cfg = GenConfig(lattice=NAT, seed=7, count=300, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
            run_property(cfg, "cost_soundness")
        else:
            run_properties(GenConfig(lattice=TRIPLE, seed=7, count=150, max_depth=5, mode=Mode.SOUND))
        assert bool(minimized) == hunt
        assert misses == len(got) > 0
        assert all(len(ids) == 1 for ids in got.values())

    def test_a_full_inhabitant_memo_derives_without_storing(self, monkeypatch):
        # a memo capped at 8 keys stores its first 8 only, and the report
        # does not change
        cfg = GenConfig(lattice=TRIPLE, seed=7, count=150, max_depth=5, mode=Mode.SOUND)
        uncapped = report_json(run_properties(cfg), cfg)
        real = harness._GenState.inhabitant
        sizes = []

        def recorded(st, goal, concrete=True):
            d = real(st, goal, concrete)
            sizes.append(len(st.inhabitants))
            return d

        monkeypatch.setattr(harness._GenState, "inhabitant", recorded)
        monkeypatch.setattr(harness, "MEMO_INHABITANTS", 8)
        assert report_json(run_properties(cfg), cfg) == uncapped
        assert max(sizes) == 8


def count_derives(monkeypatch, run) -> int:
    """Every typing rule applied while run() runs: each derive call applies
    one rule from typecheck.RULES, and each premise it derives applies one
    more through the table, so every entry is wrapped and counted."""
    calls = 0

    def counted(rule):
        def counted_rule(*args):
            nonlocal calls
            calls += 1
            return rule(*args)

        return counted_rule

    for cls, rule in list(typecheck.RULES.items()):
        monkeypatch.setitem(typecheck.RULES, cls, counted(rule))
    run()
    return calls


def count_property_calls(monkeypatch, run) -> int:
    """Every call minimize makes to its property while run() runs."""
    calls = 0
    real = harness.minimize

    def counted_minimize(term, prop, cfg):
        def counted(d):
            nonlocal calls
            calls += 1
            return prop(d)

        return real(term, counted, cfg)

    monkeypatch.setattr(harness, "minimize", counted_minimize)
    run()
    return calls


class TestDeriveCounts:
    """Canonical inhabitants are typed once per run, the minimizer's
    included. Each bound is 5% below the count made when every generation
    and every minimize call typed its own inhabitants (the first figure in
    parentheses), which was itself below the count made when every
    inhabitant was typed where it was built (the second). The count at
    seed 7 when the bound was set follows them."""

    def test_cost_soundness(self, monkeypatch):
        cfg = GenConfig(lattice=NAT, seed=7, count=150, max_depth=6, mode=Mode.SOUND)
        calls = count_derives(monkeypatch, lambda: run_property(cfg, "cost_soundness"))
        assert 0 < calls <= 6675 * 95 // 100  # (6,675; 8,534) 5,703

    def test_six_suites_on_triple(self, monkeypatch):
        cfg = GenConfig(lattice=TRIPLE, seed=7, count=150, max_depth=5, mode=Mode.SOUND)
        calls = count_derives(monkeypatch, lambda: run_properties(cfg))
        assert 0 < calls <= 32256 * 95 // 100  # (32,256; 54,199) 29,076

    def test_suites_share_each_trials_generation(self, monkeypatch):
        # suites that generate the same trial's term share its derivation;
        # bound 25% below the count when each suite generated its own
        cfg = GenConfig(lattice=TRIPLE, seed=7, count=150, max_depth=5, mode=Mode.SOUND)
        calls = count_derives(monkeypatch, lambda: run_properties(cfg))
        assert 0 < calls <= 45966 * 75 // 100  # (45,966)

    def test_hunt(self, monkeypatch):
        # the paper-mode hunt: generation, and minimize on every violation
        cfg = GenConfig(lattice=NAT, seed=7, count=999, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
        report = None

        def hunt():
            nonlocal report
            report = run_property(cfg, "cost_soundness")

        calls = count_derives(monkeypatch, hunt)
        assert report.failure_count > 0
        assert 0 < calls <= 52611 * 95 // 100  # (52,611; 76,018) 45,081

    def test_minimize_memo_lives_one_call(self, monkeypatch):
        # no inhabitant, inhabitant size or tried term outlives a call
        cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER, allow_fn_var_reuse=True)
        counts = [count_derives(monkeypatch, lambda: minimize(NOISY, violating, cfg)) for _ in range(2)]
        assert counts[0] == counts[1] > 0
        calls = [count_property_calls(monkeypatch, lambda: harness.minimize(NOISY, violating, cfg)) for _ in range(2)]
        assert calls[0] == calls[1] > 0


class TestMinimizeCounts:
    """Each distinct candidate term is tried once per minimize call. The
    bound is 45% of the property calls made when every candidate was tried,
    repeats included (in parentheses)."""

    def test_hunt(self, monkeypatch):
        cfg = GenConfig(lattice=NAT, seed=7, count=999, max_depth=5, mode=Mode.PAPER, allow_fn_var_reuse=True)
        report = None

        def hunt():
            nonlocal report
            report = run_property(cfg, "cost_soundness")

        calls = count_property_calls(monkeypatch, hunt)
        assert report.failure_count == 136
        assert 0 < calls <= 7025 * 45 // 100  # (7,025)


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

    @pytest.mark.parametrize("name", ["triple", "sat3", "diamond"])
    def test_reports_identical_across_worker_counts_beyond_nat(self, monkeypatch, data_dir, name):
        # the lattice, its cached bottom and its elements cross the process
        # pool pickled; two workers run even on a one-CPU machine. Every
        # suite runs: on sat3 only substitution fails, on diamond none does
        from rblam.lattice import SaturatingNatLattice, load_lattice

        inst = {"triple": TRIPLE, "sat3": SaturatingNatLattice(3),
                "diamond": load_lattice(str(data_dir / "diamond.lat"))}[name]
        # diamond has no unique atom, so its default deltas are all bottom:
        # charge one of its atoms for every operation instead
        deltas = DeltaProfile.uniform(inst.element("a")) if name == "diamond" else None
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = GenConfig(lattice=inst, seed=42, count=120, max_depth=5, mode=Mode.PAPER,
                        allow_fn_var_reuse=True, deltas=deltas)
        seq = report_json(run_properties(cfg, workers=1), cfg)
        par = report_json(run_properties(cfg, workers=2), cfg)
        assert seq == par

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, affinity):
        # the pool is a fake that records its size and maps in this process,
        # so no worker process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "_pool", SerialPool)
        if affinity:
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        else:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        cfg = GenConfig(lattice=NAT, seed=42, count=60, max_depth=4, mode=Mode.SOUND)
        capped = run_property(cfg, "determinism", workers=1000)
        assert sizes == [3]
        serial = run_property(cfg, "determinism", workers=1)
        assert report_json([capped], cfg) == report_json([serial], cfg)

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
