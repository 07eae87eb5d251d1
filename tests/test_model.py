import dataclasses

import pytest

from rblam.harness import GenConfig, gen_typed_term
from rblam.lattice import (
    NAT,
    FiniteLattice,
    SaturatingNatLattice,
    load_lattice,
)
from rblam import model, typecheck
from rblam.cli import main
from rblam.interp import CostedResult
from rblam.model import (
    BoxDen,
    DenModel,
    EnumBudget,
    FnDen,
    check_cost_preservation,
    check_presheaf,
    den_matches_value,
    interpret_term,
    interpret_type,
    run_model_checks,
)
from rblam.syntax import (
    Arrow,
    Bool,
    Box,
    Nat,
    BoxT,
    FF,
    Lam,
    Prod,
    TT,
    is_value,
    parse,
)
from rblam.typecheck import Context, DeltaProfile, Mode, synthesize


def sat(cap):
    return SaturatingNatLattice(cap)


def enum_for(inst, **kw):
    return EnumBudget(deltas=DeltaProfile.default(inst), **kw)


def _chain3(name, leq, combine=None):
    """A 3-element table lattice: join is max, combine defaults to max."""
    names = ["0", "1", "2"]
    top = {(a, b): str(max(int(a), int(b))) for a in names for b in names}
    return FiniteLattice(name, names, leq, {**top, **(combine or {})}, top, "0")


CHAIN3_LEQ = [(a, b) for a in "012" for b in "012" if a <= b]


class TestLatticeLaws:
    # Built directly, so no law check runs before the model checks do.
    @pytest.mark.parametrize(
        "broken, law",
        [
            # combine 0 0 jumps over everything: not monotone
            (_chain3("broken", CHAIN3_LEQ, {("0", "0"): "2"}), "combine-monotone"),
            # 0 <= 1 <= 2 without 0 <= 2
            (_chain3("nontransitive", [p for p in CHAIN3_LEQ if p != ("0", "2")]), "leq-transitive"),
        ],
        ids=["combine-monotone", "leq-transitive"],
    )
    def test_broken_law_fails_lattice_laws(self, broken, law):
        report = run_model_checks(broken)
        assert not report.passed
        laws = report.checks[0]
        assert laws.name == "lattice-laws" and not laws.ok
        assert any(c.startswith(f"{law} fails at (") for c in laws.counterexamples)


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


class TestRunModelChecks:
    @pytest.mark.parametrize("cap", [2, 3])
    def test_saturating_all_pass(self, cap):
        report = run_model_checks(sat(cap))
        assert report.passed, str(report)

    def test_checks_are_the_laws_then_one_section_family_per_type(self):
        inst = sat(2)
        report = run_model_checks(inst)
        names = [c.name for c in report.checks]
        assert names == ["lattice-laws"] + [f"sections[{t}]" for t in report.universe["types"]]

    def test_overcharging_evaluator_fails_arrow_families(self, monkeypatch):
        # evaluation charges 2 more than the bound on every non-value: only
        # the arrow tabulation evaluates non-values, and its findings fail
        real = model.evaluate

        def overcharging(t, deltas, *args, **kwargs):
            result = real(t, deltas, *args, **kwargs)
            if is_value(t):
                return result
            return CostedResult(result.value, deltas.instance.combine(result.cost, deltas.instance.element(2)))

        monkeypatch.setattr(model, "evaluate", overcharging)
        report = run_model_checks(sat(3))
        assert report.passed is False
        [arrow] = [c for c in report.checks if c.name == "sections[Bool -> Bool]"]
        assert any("substituted body cost escapes bound" in c for c in arrow.counterexamples)
        assert main(["model", "--lattice", "sat3"]) == 1

    def test_lambda_bound_bottom_fails_arrow_families(self, monkeypatch):
        # derive gives every lambda the bound bottom: the families stay
        # self-consistent, but a substituted body's bound escapes the lambda's
        real = typecheck.derive

        def lam_bound_bottom(ctx, t, mode, d, inst, kids=()):
            deriv = real(ctx, t, mode, d, inst, kids)
            return dataclasses.replace(deriv, bound=inst.bottom()) if isinstance(t, Lam) else deriv

        monkeypatch.setattr(typecheck, "derive", lam_bound_bottom)
        report = run_model_checks(sat(3))
        assert report.passed is False
        [arrow] = [c for c in report.checks if c.name == "sections[Bool -> Bool]"]
        assert any("substituted body bound escapes lambda bound" in c for c in arrow.counterexamples)
        assert main(["model", "--lattice", "sat3"]) == 1

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
