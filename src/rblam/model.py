"""Exhaustive finite-lattice checks for the semantic constructions: the
lattice laws the constructions rely on, per-type section families
(tabulated interpretations of types as budget-indexed sets of certified
values), and a concrete cost-annotated set model with a compositional term
interpretation checked against the operational semantics.

Only checks that can fail on a faulty lattice, typechecker or evaluator are
run. A family is built as `{s | need(s) <= r}` at each budget r, or as a
product or filter of such families, so its monotonicity in r and the
embedding of a boxed family into its body's follow from the lattice laws;
the laws are checked instead, with `lattice.check_laws` over every element.

A section is a (value, bound) pair, and a value is a term in normal form,
so a section is already its own reification. The model interprets a value
with the same `DenModel._interp` clauses as any other term.

Section families are tabulated with paper-mode judgments: a value's
synthesized bound under those rules is exactly the bound stored in its
section (a lambda's bound is its body bound). Tabulating an arrow family
evaluates each lambda body on every argument; a cost above the body's
bound there is a finding, and each finding fails the family's check. The
term interpretation and cost-preservation check run in sound mode, where
the synthesized bound dominates the model cost under arbitrary function
reuse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from rblam.harness import minimal_inhabitant, type_contains_arrow
from rblam.interp import EvalError, evaluate
from rblam.lattice import LatticeElement, LatticeInstance, check_laws
from rblam.syntax import (
    App,
    Arrow,
    Bool,
    Box,
    BoxT,
    FF,
    Fst,
    If,
    Lam,
    Nat,
    NatLit,
    Pair,
    Prod,
    Snd,
    TT,
    Term,
    Type,
    Unbox,
    Var,
    alpha_eq,
    pretty,
    pretty_type,
    substitute,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    Judgment,
    Mode,
    TypingError,
    synthesize,
)


Section = tuple[Term, LatticeElement]  # a value and its bound

# Tabulated sections per budget, and lambdas per arrow corpus, before a
# family is cut there and flagged non-exhaustive.
MAX_SECTIONS = 4000


@dataclass(frozen=True)
class EnumBudget:
    """Enumeration limits: largest Nat literal, largest lambda (whole-term
    size) admitted to arrow corpora, and the delta profile."""

    deltas: DeltaProfile
    max_nat: int = 3
    max_term_size: int = 7


@dataclass
class CheckReport:
    name: str
    ok: bool
    checked: int
    counterexamples: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
        }

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f" [{self.counterexamples[0]}]" if self.counterexamples else ""
        return f"{self.name}: {status} ({self.checked} cases){extra}"


class _Checker:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.counterexamples: list[str] = []

    def expect(self, ok: bool, witness: Callable[[], str]):
        """Count one case; on failure, call `witness` for its description."""
        self.checked += 1
        if not ok and len(self.counterexamples) < 10:
            self.counterexamples.append(witness())

    def report(self, notes: dict | None = None) -> CheckReport:
        return CheckReport(
            name=self.name,
            ok=not self.counterexamples,
            checked=self.checked,
            counterexamples=self.counterexamples,
            notes=notes or {},
        )


# ---------------------------------------------------------------------------
# Type interpretation as budget-indexed section families


@dataclass
class PresheafRep:
    lattice: LatticeInstance
    type: Type
    sections: dict[LatticeElement, set[Section]]
    exhaustive: bool
    notes: dict[str, Any] = field(default_factory=dict)
    findings: list[str] = field(default_factory=list)  # faults seen while tabulating

    def section_count(self) -> int:
        top_sizes = [len(s) for s in self.sections.values()]
        return max(top_sizes) if top_sizes else 0


def _fmt_section(inst: LatticeInstance, s: Section) -> str:
    v, b = s
    return f"({pretty(v)}, {inst.format(b)})"


class _Interpreter:
    def __init__(self, inst: LatticeInstance, enum: EnumBudget):
        if not inst.is_finite:
            raise ValueError(f"lattice {inst.name!r} must be finite for tabulation")
        self.inst = inst
        self.enum = enum
        self.els = inst.enumerate()
        self.budget = inst.large_budget()
        self.memo: dict[Type, PresheafRep] = {}
        self.body_memo: dict[tuple, list[Term]] = {}

    def synth_bound(self, ctx: Context, t: Term) -> Judgment:
        return synthesize(ctx, t, self.budget, Mode.PAPER, self.enum.deltas)

    def interpret(self, ty: Type) -> PresheafRep:
        if ty in self.memo:
            return self.memo[ty]
        exhaustive = True
        notes: dict[str, Any] = {}
        findings: list[str] = []
        inst = self.inst
        bot = inst.bottom()

        sections: dict[LatticeElement, set[Section]]
        match ty:
            case Bool():
                base = {(TT(), bot), (FF(), bot)}
                sections = {r: set(base) for r in self.els}
            case Nat():
                base = {(NatLit(n), bot) for n in range(self.enum.max_nat + 1)}
                sections = {r: set(base) for r in self.els}
                notes["max_nat"] = self.enum.max_nat
            case Prod(left, right):
                lrep = self.interpret(left)
                rrep = self.interpret(right)
                exhaustive = lrep.exhaustive and rrep.exhaustive
                sections = {}
                for r in self.els:
                    out: set[Section] = set()
                    for (v1, b1) in lrep.sections[r]:
                        for (v2, b2) in rrep.sections[r]:
                            b = inst.combine(b1, b2)
                            if inst.leq(b, r):
                                out.add((Pair(v1, v2), b))
                    sections[r] = out
            case Box(grade, body):
                brep = self.interpret(body)
                exhaustive = brep.exhaustive
                sections = {}
                for r in self.els:
                    sections[r] = {
                        (BoxT(grade, v), b)
                        for (v, b) in brep.sections[r]
                        if inst.leq(b, grade)
                    }
            case Arrow(dom, cod, None):
                sections, exhaustive, notes, findings = self._arrow_sections(dom, cod)
            case _:
                raise ValueError(f"cannot tabulate type {pretty_type(ty)}")

        if any(len(s) > MAX_SECTIONS for s in sections.values()):
            exhaustive = False
            notes["section_cap"] = MAX_SECTIONS
            sections = {
                r: set(itertools.islice(sorted(s, key=lambda p: pretty(p[0])), MAX_SECTIONS))
                for r, s in sections.items()
            }

        rep = PresheafRep(
            lattice=inst,
            type=ty,
            sections=sections,
            exhaustive=exhaustive,
            notes=notes,
            findings=findings,
        )
        self.memo[ty] = rep
        return rep

    # arrow corpora ---------------------------------------------------------

    def _arrow_sections(self, dom: Type, cod: Type):
        inst = self.inst
        notes: dict[str, Any] = {"max_term_size": self.enum.max_term_size}
        exhaustive = True
        findings: list[str] = []

        top = inst.top()
        if top is None or type_contains_arrow(dom):
            notes["skipped"] = "argument space not enumerable"
            return {r: set() for r in self.els}, False, notes, findings

        dom_rep = self.interpret(dom)
        args = sorted(dom_rep.sections[top], key=lambda p: pretty(p[0]))
        exhaustive = dom_rep.exhaustive

        corpus: list[tuple[Term, LatticeElement, LatticeElement]] = []
        bodies: list[Term] = []
        for size in range(1, self.enum.max_term_size):
            bodies.extend(self._bodies((("x", dom),), cod, size))
        if not bodies:  # no lambda fits the size limit: an empty family is no evidence
            exhaustive = False
        if len(bodies) > MAX_SECTIONS:
            bodies = bodies[:MAX_SECTIONS]
            exhaustive = False
            notes["corpus_cap"] = MAX_SECTIONS

        for body in bodies:
            lam = Lam("x", dom, body)
            try:
                j = self.synth_bound(Context(), lam)
            except TypingError:
                continue
            if j.type != Arrow(dom, cod, None):
                continue
            b_body = j.bound
            # the budget needed at a section: body bound, and for every
            # definable argument the application-condition budget
            need = b_body
            admissible = True
            for (v, b_a) in args:
                sub = substitute(body, "x", v)
                try:
                    b_sub = self.synth_bound(Context(), sub).bound
                    result = evaluate(sub, self.enum.deltas)
                except (TypingError, EvalError) as exc:
                    findings.append(f"{pretty(lam)} on {pretty(v)}: {exc}")
                    admissible = False
                    break
                if not inst.leq(b_sub, b_body):
                    findings.append(
                        f"substituted body bound escapes lambda bound: {pretty(lam)} on {pretty(v)}"
                    )
                if not inst.leq(result.cost, b_sub):
                    findings.append(
                        f"substituted body cost escapes bound: {pretty(lam)} on {pretty(v)}"
                    )
                try:
                    b_w = self.synth_bound(Context(), result.value).bound
                except TypingError as exc:
                    findings.append(f"result of {pretty(lam)} does not retype: {exc}")
                    admissible = False
                    break
                if not inst.leq(b_w, b_sub):
                    findings.append(
                        f"result bound escapes body bound: {pretty(lam)} on {pretty(v)}"
                    )
                need = inst.join(need, inst.combine(inst.combine(b_a, b_sub), self.enum.deltas.app))
            if admissible:
                corpus.append((lam, b_body, need))

        sections = {
            r: {(v, b) for (v, b, need) in corpus if inst.leq(need, r)}
            for r in self.els
        }
        notes["corpus_size"] = len(corpus)
        notes["argument_count"] = len(args)
        return sections, exhaustive, notes, findings

    def _bodies(self, ctx: tuple[tuple[str, Type], ...], goal: Type, size: int) -> list[Term]:
        """All first-order bodies of exactly `size` nodes: variables,
        literals, pairs, conditionals, boxing and unboxing."""
        key = (ctx, goal, size)
        if key in self.body_memo:
            return self.body_memo[key]
        out: list[Term] = []
        if size == 1:
            for name, ty in ctx:
                if ty == goal:
                    out.append(Var(name))
            match goal:
                case Bool():
                    out.extend([TT(), FF()])
                case Nat():
                    out.extend(NatLit(n) for n in range(self.enum.max_nat + 1))
        else:
            match goal:
                case Prod(left, right):
                    for ls in range(1, size - 1):
                        rs = size - 1 - ls
                        for a in self._bodies(ctx, left, ls):
                            for b in self._bodies(ctx, right, rs):
                                out.append(Pair(a, b))
                case Box(grade, body_ty):
                    for body in self._bodies(ctx, body_ty, size - 1):
                        out.append(BoxT(grade, body))
            for s in self.els:
                for inner in self._bodies(ctx, Box(s, goal), size - 1):
                    out.append(Unbox(inner))
            for cs in range(1, size - 2):
                for ts in range(1, size - 1 - cs):
                    es = size - 1 - cs - ts
                    for c in self._bodies(ctx, Bool(), cs):
                        for a in self._bodies(ctx, goal, ts):
                            for b in self._bodies(ctx, goal, es):
                                out.append(If(c, a, b))
        self.body_memo[key] = out
        return out


def interpret_type(ty: Type, inst: LatticeInstance, enum: EnumBudget) -> PresheafRep:
    """Tabulate the section family of a type over a finite lattice: at each
    budget r, the set of (value, bound) pairs admitted at r."""
    return _Interpreter(inst, enum).interpret(ty)


def interpret_types(types: Iterable[Type], inst: LatticeInstance, enum: EnumBudget) -> dict[Type, PresheafRep]:
    interp = _Interpreter(inst, enum)
    return {ty: interp.interpret(ty) for ty in types}


# ---------------------------------------------------------------------------
# Section family checks


def check_presheaf(rep: PresheafRep, deltas: DeltaProfile) -> CheckReport:
    """Sections are certified: each bound sits below its budget, and each
    value retypes at exactly the stored bound and type. Each finding of the
    family's tabulation (an arrow body that costs more than its bound, or
    whose result does not retype within it) is one more failed case."""
    inst = rep.lattice
    c = _Checker(f"sections[{pretty_type(rep.type)}]")
    budget = inst.large_budget()

    retype_cache: dict[Section, tuple[Type, LatticeElement] | str] = {}
    for r, secs in rep.sections.items():
        for sec in secs:
            v, b = sec
            c.expect(
                inst.leq(b, r),
                lambda: f"bound escapes budget: {_fmt_section(inst, sec)} at r={inst.format(r)}",
            )
            if sec not in retype_cache:
                try:
                    j = synthesize(Context(), v, budget, Mode.PAPER, deltas)
                    retype_cache[sec] = (j.type, j.bound)
                except TypingError as exc:
                    retype_cache[sec] = str(exc)
            cached = retype_cache[sec]
            if isinstance(cached, str):
                c.expect(False, lambda: f"section does not retype: {_fmt_section(inst, sec)}: {cached}")
            else:
                ty, bound = cached
                c.expect(
                    ty == rep.type and bound == b,
                    lambda: f"section judgment mismatch: {_fmt_section(inst, sec)} retypes at "
                    f"({pretty_type(ty)}, {inst.format(bound)})",
                )
    for finding in rep.findings:
        c.expect(False, lambda: finding)
    return c.report(notes=dict(rep.notes, exhaustive=rep.exhaustive))


# ---------------------------------------------------------------------------
# A concrete cost-annotated set model


@dataclass(frozen=True)
class BoxDen:
    grade: LatticeElement
    inner: "Den"


class FnDen:
    """Curried denotation: maps an argument denotation to the body's
    denotation and cost."""

    def __init__(self, apply):
        self._apply = apply

    def __call__(self, arg: "Den") -> tuple["Den", LatticeElement]:
        return self._apply(arg)


Den = Any  # bool | int | tuple[Den, Den] | BoxDen | FnDen


def _check_deltas(deltas: DeltaProfile, lattice: LatticeInstance) -> None:
    if deltas.instance is not lattice:
        owner = deltas.instance.name
        other = f"another instance of {owner!r}" if owner == lattice.name else f"lattice {owner!r}"
        raise ValueError(f"delta profile belongs to {other}, not to {lattice.name!r}")


class DenModel:
    """Sets of cost-annotated values: products are pairs, functions are
    cost-tracking maps built by currying, boxes are grade-tagged subsets,
    and the internal lattice is the session lattice itself."""

    def __init__(self, lattice: LatticeInstance, deltas: DeltaProfile):
        _check_deltas(deltas, lattice)
        self.lattice = lattice
        self.deltas = deltas

    def _interp(self, t: Term, env: dict[str, Den]) -> tuple[Den, LatticeElement]:
        inst = self.lattice
        d = self.deltas
        bot = inst.bottom()
        match t:
            case Var(name):
                return env[name], bot
            case TT():
                return True, bot
            case FF():
                return False, bot
            case NatLit(n):
                return n, bot
            case Lam(name, _, body):
                captured = dict(env)

                def apply(arg: Den, _name=name, _body=body, _env=captured):
                    return self._interp(_body, {**_env, _name: arg})

                return FnDen(apply), bot
            case App(fn, arg):
                df, cf = self._interp(fn, env)
                da, ca = self._interp(arg, env)
                db, cb = df(da)
                return db, inst.combine(inst.combine(inst.combine(cf, ca), d.app), cb)
            case Pair(a, b):
                da, ca = self._interp(a, env)
                db, cb = self._interp(b, env)
                return (da, db), inst.combine(ca, cb)
            case Fst(arg):
                da, ca = self._interp(arg, env)
                return da[0], inst.combine(ca, d.proj)
            case Snd(arg):
                da, ca = self._interp(arg, env)
                return da[1], inst.combine(ca, d.proj)
            case If(cond, then, other):
                dc, cc = self._interp(cond, env)
                db, cb = self._interp(then if dc else other, env)
                return db, inst.combine(inst.combine(cc, cb), d.iff)
            case BoxT(grade, body):
                db, cb = self._interp(body, env)
                return BoxDen(grade, db), cb
            case Unbox(arg):
                da, ca = self._interp(arg, env)
                assert isinstance(da, BoxDen)
                return da.inner, inst.combine(ca, d.unbox)
        raise TypeError(f"no interpretation clause for {pretty(t)}")


def interpret_term(t: Term, j: Judgment, m: DenModel) -> tuple[Den, LatticeElement]:
    """Compositional denotation of a closed typed term, with the model-side
    cost. The judgment is the admission ticket; ill-typed terms are rejected
    before entry."""
    if not alpha_eq(j.subject, t):
        raise ValueError("judgment does not certify this term")
    return m._interp(t, {})


def _probe_values(ty: Type, max_nat: int = 2) -> list[Term]:
    match ty:
        case Bool():
            return [TT(), FF()]
        case Nat():
            return [NatLit(n) for n in range(max_nat + 1)]
        case Prod(left, right):
            probes = [
                Pair(a, b)
                for a in _probe_values(left, max_nat)
                for b in _probe_values(right, max_nat)
            ]
            return probes[:4]
        case Arrow(dom, cod, _):
            return [Lam("u", dom, minimal_inhabitant(cod))]
        case Box(grade, body):
            return [BoxT(grade, p) for p in _probe_values(body, max_nat)][:3]
    raise TypeError(f"no probes for {ty!r}")


def den_matches_value(den: Den, v: Term, m: DenModel) -> bool:
    """Structural agreement, with functions compared observationally on a
    deterministic probe set: the denotation's application must produce the
    same value and cost as operational application."""
    match v:
        case TT():
            return den is True
        case FF():
            return den is False
        case NatLit(n):
            return den == n
        case Pair(a, b):
            return (
                isinstance(den, tuple)
                and den_matches_value(den[0], a, m)
                and den_matches_value(den[1], b, m)
            )
        case BoxT(grade, inner):
            return isinstance(den, BoxDen) and den.grade == grade and den_matches_value(den.inner, inner, m)
        case Lam(name, annot, body):
            if not isinstance(den, FnDen):
                return False
            for probe in _probe_values(annot):
                db, cb = den(m._interp(probe, {})[0])
                sub = substitute(body, name, probe)
                try:
                    result = evaluate(sub, m.deltas)
                except EvalError:
                    return False
                if cb != result.cost or not den_matches_value(db, result.value, m):
                    return False
            return True
    return False


def check_cost_preservation(
    corpus: list[Term],
    m: DenModel,
    mode: Mode = Mode.SOUND,
) -> CheckReport:
    """For each closed typed term: the denoted value matches the operational
    value (exactly, with model cost equal to operational cost) and the model
    cost sits below the synthesized bound."""
    inst = m.lattice
    c = _Checker(f"cost-preservation[{mode.value}]")
    budget = inst.large_budget()
    for term in corpus:
        try:
            j = synthesize(Context(), term, budget, mode, m.deltas)
        except TypingError as exc:
            c.expect(False, lambda: f"{pretty(term)}: does not typecheck: {exc}")
            continue
        den, cost = interpret_term(term, j, m)
        try:
            result = evaluate(term, m.deltas)
        except EvalError as exc:
            c.expect(False, lambda: f"{pretty(term)}: {exc}")
            continue
        c.expect(
            cost == result.cost,
            lambda: f"model cost {inst.format(cost)} differs from operational {inst.format(result.cost)}: {pretty(term)}",
        )
        c.expect(
            den_matches_value(den, result.value, m),
            lambda: f"denotation disagrees with value {pretty(result.value)}: {pretty(term)}",
        )
        c.expect(
            inst.leq(cost, j.bound),
            lambda: f"model cost {inst.format(cost)} escapes bound {inst.format(j.bound)}: {pretty(term)}",
        )
    return c.report(notes={"corpus": len(corpus)})


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class ModelReport:
    lattice: str
    checks: list[CheckReport]
    universe: dict[str, Any]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "passed": self.passed,
            "universe": self.universe,
            "checks": [c.to_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [f"model checks over {self.lattice}: {'pass' if self.passed else 'FAIL'}"]
        lines.extend("  " + str(c) for c in self.checks)
        return "\n".join(lines)


def default_type_suite(inst: LatticeInstance) -> list[Type]:
    """Types over booleans, truncated naturals, products, boxes, and
    first-order arrows, with grades drawn from the lattice."""
    els = inst.enumerate()
    bot = inst.bottom()
    top = inst.top() or els[-1]
    grades = [bot, top]
    mids = [e for e in els if e != bot and e != top]
    if mids:
        grades.insert(1, mids[len(mids) // 2])
    types: list[Type] = [Bool(), Nat(), Prod(Bool(), Bool()), Prod(Bool(), Nat())]
    types.extend(Box(g, Bool()) for g in grades)
    types.append(Box(top, Prod(Bool(), Bool())))
    types.extend(
        [
            Arrow(Bool(), Bool(), None),
            Arrow(Nat(), Bool(), None),
            Arrow(Prod(Bool(), Bool()), Bool(), None),
            Arrow(Bool(), Box(top, Bool()), None),
            Arrow(Box(top, Bool()), Bool(), None),
        ]
    )
    return types


def run_model_checks(
    inst: LatticeInstance,
    types: list[Type] | None = None,
    enum: EnumBudget | None = None,
) -> ModelReport:
    """Run every finite-model check over one lattice: `lattice-laws`, the
    lattice axioms over every element, then one `sections[T]` check per
    type: certification of T's section family, failed by any finding of its
    tabulation."""
    enum = enum or EnumBudget(deltas=DeltaProfile.default(inst))
    _check_deltas(enum.deltas, inst)
    types = types if types is not None else default_type_suite(inst)
    reps = interpret_types(types, inst, enum)

    laws = check_laws(inst)
    checks = [CheckReport(
        name="lattice-laws",
        ok=laws.passed,
        checked=sum(r.checked for r in laws.results),
        counterexamples=[
            f"{r.law} fails at ({', '.join(inst.format(w) for w in r.witness)})" for r in laws.failures()
        ],
    )]
    checks.extend(check_presheaf(rep, enum.deltas) for rep in reps.values())

    universe = {
        "elements": len(inst.enumerate()),
        "types": [pretty_type(t) for t in types],
        "sections": {pretty_type(t): reps[t].section_count() for t in types},
        "exhaustive": all(reps[t].exhaustive for t in types),
    }
    return ModelReport(lattice=inst.name, checks=checks, universe=universe)
