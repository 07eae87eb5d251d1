import random

import pytest

from rblam.harness import concretize, goal_matches, sample_type
from rblam.lattice import NAT, TRIPLE, SaturatingNatLattice, builtin_lattice
from rblam.syntax import (
    Arrow,
    Bool,
    Box,
    Nat,
    BoxT,
    FF,
    If,
    Lam,
    Pair,
    Prod,
    TT,
    Var,
    parse,
    parse_type,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    GradeExceeded,
    Mode,
    TypingError,
    is_subtype,
    synthesize,
    type_lub,
)

D = DeltaProfile.default(NAT)
BUDGET = NAT.element(100)


def synth(src, mode=Mode.PAPER, budget=BUDGET, deltas=D, ctx=Context()):
    return synthesize(ctx, parse(src, NAT), budget, mode, deltas)


class TestGoldens:
    def test_if_costs_one(self):
        j = synth("if tt then ff else tt")
        assert j.type == Bool()
        assert j.bound == NAT.element(1)
        assert j.within_budget

    def test_identity_lambda_free(self):
        j = synth("lam x : Bool . x")
        assert j.type == Arrow(Bool(), Bool(), None)
        assert j.bound == NAT.element(0)

    def test_paper_mode_undercounts_double_use(self):
        j = synth("(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)")
        assert j.type == Prod(Bool(), Bool())
        assert j.bound == NAT.element(4)

    def test_sound_mode_charges_latent_per_application(self):
        j = synth(
            "(lam f : Bool -[1]-> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)",
            mode=Mode.SOUND,
        )
        assert j.type == Prod(Bool(), Bool())
        assert j.bound == NAT.element(5)

    def test_box_side_condition(self):
        with pytest.raises(GradeExceeded) as exc:
            synth("box[0] (if tt then ff else tt)")
        assert exc.value.bound == NAT.element(1)
        assert exc.value.grade == NAT.element(0)


class TestBudgetCheck:
    def test_accepts_within(self):
        j = synth("if tt then ff else tt")
        assert j.within_budget and j.bound == NAT.element(1) and j.budget == BUDGET

    def test_rejects_over(self):
        j = synth("if tt then ff else tt", budget=NAT.element(0))
        assert not j.within_budget
        assert j.bound == NAT.element(1)  # bound itself unchanged

    def test_triple_rejects_on_memory_coordinate(self):
        deltas = DeltaProfile(
            app=TRIPLE.element((1, 0, 0)),
            iff=TRIPLE.element((1, 1, 0)),
            unbox=TRIPLE.element((0, 0, 0)),
            proj=TRIPLE.element((0, 0, 0)),
        )
        term = parse("(lam x : Bool . if x then ff else tt) tt", TRIPLE)
        j = synthesize(Context(), term, TRIPLE.element((2, 0, 9)), Mode.PAPER, deltas)
        assert j.bound == TRIPLE.element((2, 1, 0))
        assert not j.within_budget  # time and depth fit; memory does not


class TestRetypeValue:
    """A closed value synthesizes its type at bound bottom, except a paper-mode
    lambda, whose bound is its body's."""

    def test_boolean(self):
        j = synthesize(Context(), TT(), BUDGET, Mode.PAPER, D)
        assert j.type == Bool() and j.bound == NAT.element(0)

    def test_boxed_value(self):
        j = synthesize(Context(), BoxT(NAT.element(3), TT()), BUDGET, Mode.PAPER, D)
        assert j.type == Box(NAT.element(3), Bool())
        assert j.bound == NAT.element(0)

    def test_pair(self):
        j = synthesize(Context(), Pair(TT(), FF()), BUDGET, Mode.PAPER, D)
        assert j.type == Prod(Bool(), Bool()) and j.bound == NAT.element(0)

    def test_lambda_bound_differs_by_mode(self):
        v = Lam("x", Bool(), parse("if x then ff else tt", NAT))
        assert synthesize(Context(), v, BUDGET, Mode.PAPER, D).bound == NAT.element(1)
        sound = synthesize(Context(), v, BUDGET, Mode.SOUND, D)
        assert sound.bound == NAT.element(0)
        assert sound.type == Arrow(Bool(), Bool(), NAT.element(1))


class TestErrors:
    @pytest.mark.parametrize(
        "src, fragment",
        [
            ("x", "unbound"),
            ("tt ff", "not an arrow"),
            ("if 3 then tt else ff", "expected Bool"),
            ("unbox tt", "non-box"),
            ("fst tt", "non-pair"),
            ("if tt then tt else 3", "do not unify"),
            ("(lam x : Bool . x) 3", "does not match domain"),
        ],
    )
    def test_rejections(self, src, fragment):
        with pytest.raises(TypingError) as exc:
            synth(src)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "src, mode, message",
        [
            # the arrow check comes before the argument is typed
            ("tt (fst tt)", Mode.PAPER, "cannot apply a term of type Bool: not an arrow"),
            ("tt (fst tt)", Mode.SOUND, "cannot apply a term of type Bool: not an arrow"),
            # the condition is checked before the branches are typed
            ("if 3 then y else tt", Mode.PAPER, "condition has type Nat, expected Bool"),
            ("if 3 then y else tt", Mode.SOUND, "condition has type Nat, expected Bool"),
            # paper mode rejects a latent annotation before typing the body
            ("lam x : Bool -[1]-> Bool . y", Mode.PAPER, "latent arrow annotations are not allowed in paper mode"),
            ("lam x : Bool -[1]-> Bool . y", Mode.SOUND, "unbound variable 'y'"),
            ("unbox (fst tt)", Mode.PAPER, "fst of a non-pair type Bool"),
            ("unbox (fst tt)", Mode.SOUND, "fst of a non-pair type Bool"),
            ("if tt then tt else 0", Mode.PAPER, "branch types Bool and Nat do not unify"),
            ("if tt then tt else 0", Mode.SOUND, "branch types Bool and Nat do not unify"),
        ],
    )
    def test_first_error_follows_premise_order(self, src, mode, message):
        with pytest.raises(TypingError) as exc:
            synth(src, mode=mode)
        assert str(exc.value) == message

    def test_latent_annotation_rejected_in_paper_mode(self):
        with pytest.raises(TypingError) as exc:
            synth("lam f : Bool -[1]-> Bool . f tt", mode=Mode.PAPER)
        assert "latent" in str(exc.value)

    @pytest.mark.parametrize("annot", [
        "(Bool -[1]-> Bool) -> Bool", "Bool -> Bool -[1]-> Bool", "Nat * (Bool -[1]-> Bool)",
        "(Bool -[1]-> Bool) * Nat", "Box[2] (Bool -[1]-> Bool)",
    ])
    def test_latent_below_the_annotations_root_rejected_in_paper_mode(self, annot):
        with pytest.raises(TypingError) as exc:
            synth(f"lam f : {annot} . tt", mode=Mode.PAPER)
        assert str(exc.value) == "latent arrow annotations are not allowed in paper mode"
        synth(f"lam f : {annot} . tt", mode=Mode.SOUND)

    def test_latent_annotation_accepted_in_sound_mode(self):
        j = synth("lam f : Bool -[1]-> Bool . f tt", mode=Mode.SOUND)
        assert j.bound == NAT.element(0)
        assert j.type == Arrow(Arrow(Bool(), Bool(), NAT.element(1)), Bool(), NAT.element(2))


class TestSubtyping:
    def test_box_grade_covariant(self):
        small = Box(NAT.element(1), Bool())
        large = Box(NAT.element(2), Bool())
        assert is_subtype(small, large, Mode.PAPER, NAT)
        assert not is_subtype(large, small, Mode.PAPER, NAT)

    def test_monotone_acceptance_at_expected_type(self):
        j = synth("box[1] tt")
        assert j.type == Box(NAT.element(1), Bool())
        assert is_subtype(j.type, parse_type("Box[2] Bool", NAT), Mode.PAPER, NAT)

    def test_expected_type_rejection(self):
        j = synth("box[2] tt")
        assert not is_subtype(j.type, parse_type("Box[1] Bool", NAT), Mode.PAPER, NAT)

    def test_paper_arrows_invariant(self):
        a = parse_type("Box[1] Bool -> Bool", NAT)
        b = parse_type("Box[2] Bool -> Bool", NAT)
        assert not is_subtype(a, b, Mode.PAPER, NAT)
        assert is_subtype(a, a, Mode.PAPER, NAT)

    def test_sound_arrows_contravariant_domain(self):
        f_wide = parse_type("Box[2] Bool -> Bool", NAT)
        f_narrow = parse_type("Box[1] Bool -> Bool", NAT)
        assert is_subtype(f_wide, f_narrow, Mode.SOUND, NAT)
        assert not is_subtype(f_narrow, f_wide, Mode.SOUND, NAT)

    def test_sound_latent_covariant(self):
        cheap = Arrow(Bool(), Bool(), NAT.element(1))
        pricey = Arrow(Bool(), Bool(), NAT.element(3))
        assert is_subtype(cheap, pricey, Mode.SOUND, NAT)
        assert not is_subtype(pricey, cheap, Mode.SOUND, NAT)
        # an unannotated arrow behaves as latent bottom
        bare = Arrow(Bool(), Bool(), None)
        assert is_subtype(bare, cheap, Mode.SOUND, NAT)

    def test_if_branches_unify_on_grade_join(self):
        j = synth("if tt then box[1] tt else box[2] ff")
        assert j.type == Box(NAT.element(2), Bool())

    def test_if_branches_unify_on_latent_join(self):
        j = synth(
            "if tt then (lam x : Bool . x) else (lam x : Bool . if x then tt else ff)",
            mode=Mode.SOUND,
        )
        assert j.type == Arrow(Bool(), Bool(), NAT.element(1))

    def test_if_branches_unify_arrow_domains_up_to_latent_bottom(self):
        # in sound mode `->` is latent bottom, so the two domains are one type
        j = synth(
            "if tt then (lam f : Bool -> Bool . f tt) else (lam f : Bool -[0]-> Bool . f tt)",
            mode=Mode.SOUND,
        )
        assert j.type == parse_type("(Bool -> Bool) -[1]-> Bool", NAT)
        assert j.bound == NAT.element(1)
        with pytest.raises(TypingError, match="do not unify"):
            synth("if tt then (lam f : Bool -> Bool . f tt) else (lam f : Bool -[1]-> Bool . f tt)", mode=Mode.SOUND)

    def test_lub_rejects_mismatched_shapes(self):
        with pytest.raises(TypingError):
            type_lub(Bool(), Nat(), Mode.PAPER, NAT)


def regraded(ty, inst, rng, mode):
    """ty with every box grade, and in sound mode every arrow latent, drawn
    again: a type of the same shape, so the pair often has a lub."""
    match ty:
        case Prod(left, right):
            return Prod(regraded(left, inst, rng, mode), regraded(right, inst, rng, mode))
        case Box(_, body):
            return Box(inst.random_element(rng), regraded(body, inst, rng, mode))
        case Arrow(dom, cod, _):
            latent = inst.random_element(rng) if mode is Mode.SOUND else None
            return Arrow(regraded(dom, inst, rng, mode), regraded(cod, inst, rng, mode), latent)
    return ty


class TestTypeRelationLaws:
    """The relations' laws on the generator's sampled types and their
    concretizations, which also cover the `Bool`/`Nat` fast paths that
    decide a pair by its classes."""

    @staticmethod
    def types(lattice, mode):
        inst = builtin_lattice(lattice)
        rng = random.Random(f"{lattice} {mode.value}")
        sampled = [sample_type(rng, 3, inst) for _ in range(150)]
        concrete = [concretize(t, inst, rng, mode) for t in sampled]
        return inst, rng, sampled, concrete

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("lattice", ["nat", "triple", "sat3"])
    def test_reflexive(self, lattice, mode):
        inst, _, sampled, concrete = self.types(lattice, mode)
        for a in sampled + concrete:
            assert is_subtype(a, a, mode, inst)
        for a in concrete:
            assert goal_matches(a, a, inst)
            assert type_lub(a, a, mode, inst) == a

    @classmethod
    def lubs(cls, lattice, mode):
        """Each concretization paired with its regrading and with the next
        one, and the lub of every pair that has one."""
        inst, rng, _, concrete = cls.types(lattice, mode)
        pairs = [(a, regraded(a, inst, rng, mode)) for a in concrete] + list(zip(concrete, concrete[1:]))
        found = []
        for a, b in pairs:
            try:
                found.append((a, b, type_lub(a, b, mode, inst)))
            except TypingError:
                continue
        assert len(found) > len(concrete) // 2
        return inst, rng, pairs, found

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("lattice", ["nat", "triple", "sat3"])
    def test_lub_is_an_upper_bound(self, lattice, mode):
        inst, _, _, found = self.lubs(lattice, mode)
        for a, b, lub in found:
            assert is_subtype(a, lub, mode, inst) and is_subtype(b, lub, mode, inst)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("lattice", ["nat", "triple", "sat3"])
    def test_lub_is_least(self, lattice, mode):
        # every sampled type above both sides of a pair is above their lub;
        # the pairs' types and four more regradings of each are sampled
        inst, rng, pairs, found = self.lubs(lattice, mode)
        paired = [t for pair in pairs for t in pair]
        sampled = list(dict.fromkeys(paired + [regraded(t, inst, rng, mode) for t in paired for _ in range(4)]))
        above_both = 0
        for a, b, lub in found:
            for d in sampled:
                if is_subtype(a, d, mode, inst) and is_subtype(b, d, mode, inst):
                    above_both += d != lub
                    assert is_subtype(lub, d, mode, inst)
        assert above_both > len(found) // 10  # sampled types strictly above a lub


class TestDeterminismAndBudgetIrrelevance:
    def test_same_inputs_same_judgment(self):
        a = synth("(lam x : Bool . (x, box[3] x)) ff")
        b = synth("(lam x : Bool . (x, box[3] x)) ff")
        assert a == b

    def test_bound_independent_of_budget(self):
        src = "(lam x : Bool . if x then (tt, ff) else (ff, tt)) tt"
        bounds = {synth(src, budget=NAT.element(r)).bound for r in (0, 1, 7, 10**6)}
        assert bounds == {NAT.element(2)}

    def test_trace_mirrors_judgment(self):
        j = synth("(lam x : Bool . if x then ff else tt) tt")
        assert j.trace.rule == "App"
        assert j.trace.bound == j.bound
        assert j.trace.type == j.type
        assert [c.rule for c in j.trace.children] == ["Lam", "Const"]

    def test_trace_replays(self):
        j = synth("fst (unbox (box[5] (tt, ff)))")
        j2 = synthesize(Context(), j.subject, BUDGET, Mode.PAPER, D)
        assert j2.type == j.type and j2.bound == j.bound and j2.trace == j.trace


class TestDeltas:
    def test_default_unit_profiles(self):
        assert D.app == NAT.element(1)
        td = DeltaProfile.default(TRIPLE)
        assert td.iff == TRIPLE.element((1, 0, 0))

    def test_mismatched_lattice_rejected(self):
        sat = SaturatingNatLattice(5)
        with pytest.raises(TypingError):
            synthesize(Context(), TT(), sat.element(1), Mode.PAPER, D)

    def test_projection_charges_delta(self):
        assert synth("fst (tt, ff)").bound == NAT.element(1)
        assert synth("snd (tt, ff)").bound == NAT.element(1)

    def test_unbox_charges_delta(self):
        assert synth("unbox (box[5] tt)").bound == NAT.element(1)

    def test_box_keeps_bound(self):
        assert synth("box[3] (if tt then ff else tt)").bound == NAT.element(1)


class TestContext:
    def test_shadowing_lookup(self):
        ctx = Context().extend("x", Bool()).extend("x", Nat())
        assert ctx.lookup("x") == Nat()

    def test_open_term_in_context(self):
        ctx = Context((("b", Bool()),))
        j = synthesize(Context(ctx.bindings), If(Var("b"), TT(), TT()), BUDGET, Mode.PAPER, D)
        assert j.type == Bool() and j.bound == NAT.element(1)
