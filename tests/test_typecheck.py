import pytest

from rblam.lattice import NAT, TRIPLE, SaturatingNatLattice
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

    def test_lub_rejects_mismatched_shapes(self):
        with pytest.raises(TypingError):
            type_lub(Bool(), Nat(), Mode.PAPER, NAT)


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
