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
    check_cost_preservation,
    check_presheaf,
    default_type_suite,
    den_matches_value,
    interpret_type,
    interpret_types,
    run_model_checks,
)
from rblam.syntax import (
    Arrow,
    Bool,
    Box,
    Nat,
    NatLit,
    BoxT,
    FF,
    If,
    Lam,
    Pair,
    Prod,
    TT,
    Unbox,
    Var,
    is_value,
    parse,
    substitute,
)
from rblam.typecheck import Context, DeltaProfile, Mode, TypingError, synthesize


def sat(cap):
    return SaturatingNatLattice(cap)


def wrap_rules(monkeypatch, wrap, *classes):
    """Replace typecheck.RULES's rule for each class (every class when none
    is named) with wrap(rule) for the test. Rules derive their premises
    through the table, so the wrapped rule applies at every depth."""
    for cls in classes or list(typecheck.RULES):
        monkeypatch.setitem(typecheck.RULES, cls, wrap(typecheck.RULES[cls]))


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
            assert rep.at(r) == expected

    def test_product_at_bottom_has_four_pairs(self):
        inst = sat(3)
        rep = interpret_type(Prod(Bool(), Bool()), inst, enum_for(inst))
        at_bottom = rep.at(inst.bottom())
        assert len(at_bottom) == 4
        assert all(b == inst.bottom() for _, b in at_bottom)

    def test_box_at_grade_bottom(self):
        inst = sat(3)
        rep = interpret_type(Box(inst.bottom(), Bool()), inst, enum_for(inst))
        for r in inst.enumerate():
            assert rep.at(r) == {
                (BoxT(inst.bottom(), TT()), inst.bottom()),
                (BoxT(inst.bottom(), FF()), inst.bottom()),
            }

    def test_nat_truncated(self):
        inst = sat(2)
        rep = interpret_type(Nat(), inst, enum_for(inst, max_nat=3))
        assert len(rep.at(inst.bottom())) == 4
        assert rep.notes["max_nat"] == 3

    def test_arrow_admission_threshold(self):
        # the branching lambda needs budget 2: body bound 1 joined with
        # bottom + 1 + delta_app
        inst = sat(4)
        rep = interpret_type(Arrow(Bool(), Bool(), None), inst, enum_for(inst))
        lam = parse("lam x : Bool . if x then ff else tt", inst)
        target = (lam, inst.element(1))
        assert target in rep.at(inst.element(2))
        assert target not in rep.at(inst.element(1))

    def test_identity_lambda_admitted_at_delta_app(self):
        inst = sat(4)
        rep = interpret_type(Arrow(Bool(), Bool(), None), inst, enum_for(inst))
        ident = (parse("lam x : Bool . x", inst), inst.element(0))
        assert ident in rep.at(inst.element(1))
        assert ident not in rep.at(inst.element(0))


def families_by_budget(ty, inst, enum, memo):
    """Reference: a type's family built budget by budget. Literals sit at
    every budget; pairs and boxes are cut at each budget from their parts'
    families there; a well-typed lambda is admitted at r when its body bound
    and, for every argument at the top budget, the application condition
    sit below r."""
    if ty in memo:
        return memo[ty]
    els, bot, d = inst.enumerate(), inst.bottom(), enum.deltas

    def bound(t):
        return synthesize(Context(), t, inst.large_budget(), Mode.PAPER, d).bound

    match ty:
        case Bool():
            fams = {r: {(TT(), bot), (FF(), bot)} for r in els}
        case Nat():
            fams = {r: {(NatLit(n), bot) for n in range(enum.max_nat + 1)} for r in els}
        case Prod(left, right):
            lf, rf = families_by_budget(left, inst, enum, memo), families_by_budget(right, inst, enum, memo)
            fams = {r: set() for r in els}
            for r in els:
                for v1, b1 in lf[r]:
                    for v2, b2 in rf[r]:
                        b = inst.combine(b1, b2)
                        if inst.leq(b, r):
                            fams[r].add((Pair(v1, v2), b))
        case Box(grade, body):
            bf = families_by_budget(body, inst, enum, memo)
            fams = {r: {(BoxT(grade, v), b) for v, b in bf[r] if inst.leq(b, grade)} for r in els}
        case Arrow(dom, cod, None):
            args = families_by_budget(dom, inst, enum, memo)[inst.top()]
            tabulator = model._Interpreter(inst, enum)
            fams = {r: set() for r in els}
            for size in range(1, enum.max_term_size):
                for body in (deriv.term for deriv in tabulator._bodies((("x", dom),), cod, size)):
                    lam = Lam("x", dom, body)
                    try:
                        j = synthesize(Context(), lam, inst.large_budget(), Mode.PAPER, d)
                    except TypingError:
                        continue
                    if j.type != ty:
                        continue
                    conds = [j.bound] + [
                        inst.combine(inst.combine(b_a, bound(substitute(body, "x", v))), d.app) for v, b_a in args
                    ]
                    for r in els:
                        if all(inst.leq(c, r) for c in conds):
                            fams[r].add((lam, j.bound))
    memo[ty] = fams
    return fams


def reference_bodies(ctx, goal, size, els, max_nat, memo):
    """Reference: every first-order body term of exactly `size` nodes, in the
    enumerator's order, built without derivations and without the box-depth
    bound."""
    key = (ctx, goal, size)
    if key in memo:
        return memo[key]
    out = []
    if size == 1:
        out.extend(Var(name) for name, ty in ctx if ty == goal)
        match goal:
            case Bool():
                out.extend([TT(), FF()])
            case Nat():
                out.extend(NatLit(n) for n in range(max_nat + 1))
    else:
        match goal:
            case Prod(left, right):
                for ls in range(1, size - 1):
                    for a in reference_bodies(ctx, left, ls, els, max_nat, memo):
                        for b in reference_bodies(ctx, right, size - 1 - ls, els, max_nat, memo):
                            out.append(Pair(a, b))
            case Box(grade, body_ty):
                out.extend(BoxT(grade, b) for b in reference_bodies(ctx, body_ty, size - 1, els, max_nat, memo))
        for s in els:
            out.extend(Unbox(i) for i in reference_bodies(ctx, Box(s, goal), size - 1, els, max_nat, memo))
        for cs in range(1, size - 2):
            for ts in range(1, size - 1 - cs):
                for c in reference_bodies(ctx, Bool(), cs, els, max_nat, memo):
                    for a in reference_bodies(ctx, goal, ts, els, max_nat, memo):
                        for b in reference_bodies(ctx, goal, size - 1 - cs - ts, els, max_nat, memo):
                            out.append(If(c, a, b))
    memo[key] = out
    return out


def lattice_named(name, data_dir):
    return load_lattice(str(data_dir / name)) if name.endswith(".lat") else sat(int(name[3:]))


class TestBodyEnumerator:
    """The enumerator yields derivations, prunes goals with more boxes than
    the remaining size can build, and types each substituted body along the
    paths to x only; none of that may change a body, its order or a
    judgment."""

    @staticmethod
    def goals(inst):
        """Every body context the arrow families use, and every goal: the
        suite's non-arrow types and its arrows' codomains."""
        suite = default_type_suite(inst)
        arrows = [t for t in suite if isinstance(t, Arrow)]
        goals = list(dict.fromkeys([t for t in suite if not isinstance(t, Arrow)] + [a.cod for a in arrows]))
        return [((("x", a.dom),), goal) for a in dict.fromkeys(arrows) for goal in goals]

    @pytest.mark.parametrize("lattice", ["sat2", "sat4", "chain3.lat", "diamond.lat"])
    def test_bodies_are_the_reference_terms_and_their_derivations(self, data_dir, lattice):
        inst = lattice_named(lattice, data_dir)
        enum = enum_for(inst)
        tabulator = model._Interpreter(inst, enum)
        memo, seen = {}, set()
        for ctx, goal in self.goals(inst):
            for size in range(1, enum.max_term_size):
                got = tabulator._bodies(ctx, goal, size)
                assert [d.term for d in got] == reference_bodies(
                    ctx, goal, size, inst.enumerate(), enum.max_nat, memo), (ctx, goal, size)
                for d in got:
                    if id(d) in seen:
                        continue
                    seen.add(id(d))
                    if d.type is None:
                        with pytest.raises(TypingError):
                            typecheck.derive(Context(ctx), d.term, Mode.PAPER, enum.deltas, inst)
                    else:
                        assert d == typecheck.derive(Context(ctx), d.term, Mode.PAPER, enum.deltas, inst)

    @pytest.mark.parametrize("lattice", ["sat3", "diamond.lat"])
    def test_substituted_bodies_are_the_derivations_of_substitute(self, data_dir, lattice):
        inst = lattice_named(lattice, data_dir)
        enum = enum_for(inst)
        tabulator = model._Interpreter(inst, enum)
        closed = Context()
        for ty in default_type_suite(inst):
            if not isinstance(ty, Arrow):
                continue
            ctx = (("x", ty.dom),)
            bodies = [d for size in range(1, enum.max_term_size)
                      for d in tabulator._bodies(ctx, ty.cod, size) if d.type is not None]
            for v, _ in tabulator.interpret(ty.dom).at(inst.top()):
                vd = typecheck.derive(closed, v, Mode.PAPER, enum.deltas, inst)
                memo = {}
                for body in bodies:
                    sub = tabulator._substituted(body, vd, memo)
                    assert sub.term == substitute(body.term, "x", v)
                    assert sub == typecheck.derive(closed, sub.term, Mode.PAPER, enum.deltas, inst)

    def test_model_checks_derive_half_as_often(self, monkeypatch):
        # 36,205 derive calls before each body was derived once from its
        # kids, and before box goals too deep to fill were skipped
        calls = 0

        def counted(rule):
            def counted_rule(*args):
                nonlocal calls
                calls += 1
                return rule(*args)

            return counted_rule

        wrap_rules(monkeypatch, counted)
        assert run_model_checks(sat(3)).passed
        assert 0 < calls <= 36205 // 2

    def test_each_result_value_is_typed_once(self, monkeypatch):
        # the arrow tabulation reads a result's bound from a memo; sat3 made
        # thousands of whole derivations of the same few values before
        values = []
        real = model._Interpreter.synth_bound

        def counted(self, t):
            values.append(t)
            return real(self, t)

        monkeypatch.setattr(model._Interpreter, "synth_bound", counted)
        assert run_model_checks(sat(3)).passed
        assert 0 < len(values) == len(set(values)) <= 10


class TestSectionFamilyChecks:
    def test_all_pass_on_saturating(self):
        inst = sat(3)
        enum = enum_for(inst)
        for ty in [Bool(), Prod(Bool(), Bool()), Box(inst.element(2), Bool()), Arrow(Bool(), Bool(), None)]:
            rep = interpret_type(ty, inst, enum)
            assert check_presheaf(rep, enum.deltas).ok

    @pytest.mark.parametrize("lattice", ["sat2", "sat3", "diamond"])
    def test_need_map_reads_are_the_per_budget_families(self, data_dir, lattice):
        inst = load_lattice(str(data_dir / "diamond.lat")) if lattice == "diamond" else sat(int(lattice[3:]))
        enum = enum_for(inst)
        reps = interpret_types(default_type_suite(inst), inst, enum)
        memo = {}
        for ty, rep in reps.items():
            fams = families_by_budget(ty, inst, enum, memo)
            assert {r: rep.at(r) for r in inst.enumerate()} == fams, ty
            assert rep.section_count() == max(len(f) for f in fams.values())

    def test_cases_are_one_retype_per_entry_and_three_comparisons_per_application(self):
        inst = sat(2)
        report = run_model_checks(inst)
        checked = {c.name: c.checked for c in report.checks}
        assert checked["sections[Bool]"] == 2
        assert checked["sections[Nat]"] == 4
        assert checked["sections[Bool * Nat]"] == 8
        assert all(n > 0 for n in checked.values())
        for c in report.checks:
            if "->" in c.name:
                assert c.checked == 3 * c.notes["corpus_size"] * c.notes["argument_count"], c.name

    def test_literals_with_unit_bound_fail_the_retype(self, monkeypatch):
        # derive charges a unit step for every literal: the tabulated
        # literal, pair and box sections keep bound bottom, so each retypes
        # at another bound
        def literal_unit_bound(rule):
            def unit_bound(ctx, t, mode, d, inst, kids):
                return dataclasses.replace(rule(ctx, t, mode, d, inst, kids), bound=inst.unit_step())

            return unit_bound

        wrap_rules(monkeypatch, literal_unit_bound, TT, FF, NatLit)
        report = run_model_checks(sat(3))
        failed = {c.name for c in report.checks if not c.ok}
        assert {"sections[Bool]", "sections[Nat]", "sections[Bool * Bool]", "sections[Box[0] Bool]"} <= failed
        [bools] = [c for c in report.checks if c.name == "sections[Bool]"]
        assert bools.counterexamples[0] == "section judgment mismatch: (tt, 0) retypes at (Bool, 1)"
        assert main(["model", "--lattice", "sat3"]) == 1


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
        def lam_bound_bottom(rule):
            def bound_bottom(ctx, t, mode, d, inst, kids):
                return dataclasses.replace(rule(ctx, t, mode, d, inst, kids), bound=inst.bottom())

            return bound_bottom

        wrap_rules(monkeypatch, lam_bound_bottom, Lam)
        report = run_model_checks(sat(3))
        assert report.passed is False
        [arrow] = [c for c in report.checks if c.name == "sections[Bool -> Bool]"]
        assert any("substituted body bound escapes lambda bound" in c for c in arrow.counterexamples)
        assert main(["model", "--lattice", "sat3"]) == 1

    def test_mistyped_lambda_fails_arrow_families(self, monkeypatch):
        # derive gives unbox the box's type, not its body's: a lambda whose
        # body unboxes synthesizes another arrow type, which is a finding of
        # its family, not a lambda silently left out
        def unbox_keeps_box(rule):
            def keeps_box(ctx, t, mode, d, inst, kids):
                deriv = rule(ctx, t, mode, d, inst, kids)
                return dataclasses.replace(deriv, type=deriv.children[0].type)

            return keeps_box

        wrap_rules(monkeypatch, unbox_keeps_box, Unbox)
        report = run_model_checks(sat(3))
        arrows = [c for c in report.checks if "->" in c.name]
        assert len(arrows) == 5 and not any(c.ok for c in arrows)
        [arrow] = [c for c in arrows if c.name == "sections[Bool -> Bool]"]
        assert arrow.counterexamples[0] == (
            "lambda synthesizes Bool -> Box[0] Bool, not Bool -> Bool: lam x : Bool . unbox (box[0] x)")
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
        # diamond's default deltas are all bottom: charge its atom a instead
        inst = load_lattice(str(data_dir / "diamond.lat"))
        report = run_model_checks(inst, enum=EnumBudget(DeltaProfile.uniform(inst.element("a"))))
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
        return self.m.denote(term, {}), j

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
        assert callable(den)
        value = parse("lam x : Bool . if x then ff else tt", NAT)
        assert den_matches_value(den, value, self.m)

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
