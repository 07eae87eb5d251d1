import pytest

from rblam.harness import GenConfig, gen_typed_term
from rblam.lattice import (
    NAT,
    FiniteLattice,
    SaturatingNatLattice,
    load_lattice,
)
from rblam.model import (
    BoxDen,
    DenModel,
    EnumBudget,
    FnDen,
    build_downset,
    check_box_subpresheaf,
    check_cost_preservation,
    check_internal_naturality,
    check_presheaf,
    den_matches_value,
    interpret_term,
    interpret_type,
    interpret_types,
    reify_and_check,
    run_model_checks,
)
from rblam.syntax import (
    Arrow,
    Bool,
    Box,
    Nat,
    BoxT,
    FF,
    Prod,
    TT,
    parse,
)
from rblam.typecheck import Context, DeltaProfile, Mode, synthesize


def sat(cap):
    return SaturatingNatLattice(cap)


def enum_for(inst, **kw):
    return EnumBudget(deltas=DeltaProfile.default(inst), **kw)


class TestDownsets:
    def test_two_chain(self, data_dir):
        inst = load_lattice(str(data_dir / "chain2.lat"))
        rep = build_downset(inst)
        top = inst.element("top")
        assert rep.sections[top] == frozenset(inst.enumerate())

    def test_bottom_downset_is_singleton(self, data_dir):
        for inst in [sat(3), load_lattice(str(data_dir / "diamond.lat"))]:
            rep = build_downset(inst)
            assert rep.sections[inst.bottom()] == frozenset({inst.bottom()})

    def test_saturating_enumeration(self):
        inst = sat(3)
        rep = build_downset(inst)
        assert rep.sections[inst.element(2)] == frozenset(
            {inst.element(0), inst.element(1), inst.element(2)}
        )


class TestInternalNaturality:
    def test_two_chain_passes(self, data_dir):
        assert check_internal_naturality(load_lattice(str(data_dir / "chain2.lat"))).ok

    def test_saturating_passes(self):
        assert check_internal_naturality(sat(4)).ok

    def test_diamond_passes(self, data_dir):
        assert check_internal_naturality(load_lattice(str(data_dir / "diamond.lat"))).ok

    def test_non_monotone_combine_flagged(self):
        names = ["0", "1", "2"]
        leq = [(a, b) for a in names for b in names if int(a) <= int(b)]
        combine = {(a, b): str(max(int(a), int(b))) for a in names for b in names}
        combine[("0", "0")] = "2"  # jumps over everything: not monotone
        join = {(a, b): str(max(int(a), int(b))) for a in names for b in names}
        broken = FiniteLattice("broken", names, leq, combine, join, "0")
        report = check_internal_naturality(broken)
        assert not report.ok
        assert any("combine not monotone" in c for c in report.counterexamples)


class TestTypeInterpretation:
    def test_bool_sections_constant(self):
        inst = sat(3)
        rep = interpret_type(Bool(), inst, enum_for(inst))
        expected = {(TT(), inst.bottom()), (FF(), inst.bottom())}
        for r in inst.enumerate():
            assert rep.sections[r] == expected

    def test_product_at_bottom_has_four_pairs(self):
        inst = sat(3)
        rep = interpret_type(Prod(Bool(), Bool()), inst, enum_for(inst))
        at_bottom = rep.sections[inst.bottom()]
        assert len(at_bottom) == 4
        assert all(b == inst.bottom() for _, b in at_bottom)

    def test_box_at_grade_bottom(self):
        inst = sat(3)
        rep = interpret_type(Box(inst.bottom(), Bool()), inst, enum_for(inst))
        for r in inst.enumerate():
            assert rep.sections[r] == {
                (BoxT(inst.bottom(), TT()), inst.bottom()),
                (BoxT(inst.bottom(), FF()), inst.bottom()),
            }

    def test_nat_truncated(self):
        inst = sat(2)
        rep = interpret_type(Nat(), inst, enum_for(inst, max_nat=3))
        assert len(rep.sections[inst.bottom()]) == 4
        assert rep.notes["max_nat"] == 3

    def test_arrow_admission_threshold(self):
        # the branching lambda needs budget 2: body bound 1 joined with
        # bottom + 1 + delta_app
        inst = sat(4)
        rep = interpret_type(Arrow(Bool(), Bool(), None), inst, enum_for(inst))
        lam = parse("lam x : Bool . if x then ff else tt", inst)
        target = (lam, inst.element(1))
        assert target in rep.sections[inst.element(2)]
        assert target not in rep.sections[inst.element(1)]

    def test_identity_lambda_admitted_at_delta_app(self):
        inst = sat(4)
        rep = interpret_type(Arrow(Bool(), Bool(), None), inst, enum_for(inst))
        ident = (parse("lam x : Bool . x", inst), inst.element(0))
        assert ident in rep.sections[inst.element(1)]
        assert ident not in rep.sections[inst.element(0)]


class TestSectionFamilyChecks:
    def test_all_pass_on_saturating(self):
        inst = sat(3)
        enum = enum_for(inst)
        for ty in [Bool(), Prod(Bool(), Bool()), Box(inst.element(2), Bool()), Arrow(Bool(), Bool(), None)]:
            rep = interpret_type(ty, inst, enum)
            assert check_presheaf(rep, enum.deltas).ok
            assert reify_and_check(rep, enum.deltas).ok

    def test_deleted_section_flagged(self):
        inst = sat(2)
        enum = enum_for(inst)
        rep = interpret_type(Prod(Bool(), Bool()), inst, enum)
        top = inst.top()
        victim = next(iter(rep.sections[inst.bottom()]))
        rep.sections[top].discard(victim)
        report = check_presheaf(rep, enum.deltas)
        assert not report.ok
        assert any("transition loses" in c for c in report.counterexamples)

    def test_box_embedding(self):
        inst = sat(3)
        enum = enum_for(inst)
        grade = inst.element(2)
        reps = interpret_types([Box(grade, Bool()), Bool()], inst, enum)
        assert check_box_subpresheaf(reps[Box(grade, Bool())], reps[Bool()]).ok

    def test_box_embedding_detects_orphan(self):
        inst = sat(3)
        enum = enum_for(inst)
        grade = inst.element(2)
        reps = interpret_types([Box(grade, Bool()), Bool()], inst, enum)
        body = reps[Bool()]
        for r in inst.enumerate():
            body.sections[r].discard((TT(), inst.bottom()))
        assert not check_box_subpresheaf(reps[Box(grade, Bool())], body).ok


class TestRunModelChecks:
    @pytest.mark.parametrize("cap", [2, 3])
    def test_saturating_all_pass(self, cap):
        report = run_model_checks(sat(cap))
        assert report.passed, str(report)

    def test_default_size_is_exhaustive(self):
        assert run_model_checks(sat(2)).universe["exhaustive"] is True

    @pytest.mark.parametrize("size", [0, 1])
    def test_size_without_lambda_bodies_is_not_exhaustive(self, size):
        # no lambda fits the size limit, so every arrow family is empty
        inst = sat(2)
        report = run_model_checks(inst, enum=enum_for(inst, max_term_size=size))
        assert report.universe["exhaustive"] is False

    def test_deltas_of_another_instance_rejected_up_front(self):
        inst = sat(2)
        with pytest.raises(ValueError, match="^delta profile belongs to another instance of 'sat2', not to 'sat2'$"):
            run_model_checks(inst, enum=enum_for(sat(2)))

    def test_deltas_of_another_lattice_rejected_up_front(self):
        with pytest.raises(ValueError, match="^delta profile belongs to lattice 'sat3', not to 'sat2'$"):
            run_model_checks(sat(2), enum=enum_for(sat(3)))

    def test_diamond_all_pass(self, data_dir):
        report = run_model_checks(load_lattice(str(data_dir / "diamond.lat")))
        assert report.passed, str(report)

    def test_report_serializes(self, data_dir):
        report = run_model_checks(load_lattice(str(data_dir / "chain2.lat")))
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["universe"]["elements"] == 2


class TestDenModel:
    def setup_method(self):
        self.deltas = DeltaProfile.default(NAT)
        self.m = DenModel(NAT, self.deltas)

    def interp(self, src, mode=Mode.SOUND):
        term = parse(src, NAT)
        j = synthesize(Context(), term, NAT.element(10**6), mode, self.deltas)
        return interpret_term(term, j, self.m), j

    def test_value_denotations(self):
        (den, cost), _ = self.interp("tt")
        assert den is True and cost == NAT.element(0)
        (den, cost), _ = self.interp("(tt, ff)")
        assert den == (True, False) and cost == NAT.element(0)

    def test_conditional_cost(self):
        (den, cost), j = self.interp("if tt then ff else tt")
        assert den is False
        assert NAT.leq(cost, j.bound)

    def test_box_and_unbox(self):
        (den, cost), _ = self.interp("box[3] tt")
        assert den == BoxDen(NAT.element(3), True)
        (den, cost), _ = self.interp("unbox (box[3] tt)")
        assert den is True and cost == NAT.element(1)

    def test_function_denotation_probes(self):
        (den, cost), _ = self.interp("lam x : Bool . if x then ff else tt")
        assert isinstance(den, FnDen)
        value = parse("lam x : Bool . if x then ff else tt", NAT)
        assert den_matches_value(den, value, self.m)

    def test_judgment_required_to_match(self):
        term = parse("tt", NAT)
        j = synthesize(Context(), parse("ff", NAT), NAT.element(1), Mode.SOUND, self.deltas)
        with pytest.raises(ValueError):
            interpret_term(term, j, self.m)

    def test_cost_preservation_on_generated_corpus(self):
        cfg = GenConfig(lattice=NAT, seed=31, count=120, max_depth=4, mode=Mode.SOUND)
        corpus = [gen_typed_term(cfg, trial=i) for i in range(120)]
        report = check_cost_preservation(corpus, self.m, Mode.SOUND)
        assert report.ok, report.counterexamples

    def test_paper_witness_breaks_model_cost_bound(self):
        witness = parse(
            "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT
        )
        report = check_cost_preservation([witness], self.m, Mode.PAPER)
        assert not report.ok
        assert any("escapes bound" in c for c in report.counterexamples)
