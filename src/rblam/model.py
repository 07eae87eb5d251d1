"""Exhaustive finite-lattice checks for the semantic constructions: the
downset family internalizing the lattice, per-type section families
(tabulated interpretations of types as budget-indexed sets of certified
values), reification of sections back to syntax, and a concrete
cost-annotated set model with a compositional term interpretation checked
against the operational semantics.

Section families are tabulated with paper-mode judgments: a value's
synthesized bound under those rules is exactly the bound stored in its
section (a lambda's bound is its body bound). The term interpretation and
cost-preservation check run in sound mode, where the synthesized bound
dominates the model cost under arbitrary function reuse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from rblam.harness import minimal_inhabitant, type_contains_arrow
from rblam.interp import EvalError, evaluate
from rblam.lattice import LatticeElement, LatticeInstance
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
    VBox,
    VFF,
    VLam,
    VNat,
    VPair,
    VTT,
    Value,
    Var,
    alpha_eq,
    embed,
    pretty,
    pretty_type,
    pretty_value,
    substitute,
    to_value,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    Judgment,
    Mode,
    TypingError,
    retype_value,
    synthesize,
)


Section = tuple[Value, LatticeElement]


@dataclass(frozen=True)
class EnumBudget:
    """Enumeration limits: largest Nat literal, largest lambda (whole-term
    size) admitted to arrow corpora, the delta profile, and a cap on
    tabulated sections before a family is flagged non-exhaustive."""

    deltas: DeltaProfile
    max_nat: int = 3
    max_term_size: int = 7
    max_sections: int = 4000


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

    def expect(self, ok: bool, witness: str):
        self.checked += 1
        if not ok and len(self.counterexamples) < 10:
            self.counterexamples.append(witness)

    def report(self, notes: dict | None = None) -> CheckReport:
        return CheckReport(
            name=self.name,
            ok=not self.counterexamples,
            checked=self.checked,
            counterexamples=self.counterexamples,
            notes=notes or {},
        )


# ---------------------------------------------------------------------------
# Downsets and internal operations


@dataclass
class DownsetRep:
    lattice: LatticeInstance
    sections: dict[LatticeElement, frozenset[LatticeElement]]


def build_downset(inst: LatticeInstance) -> DownsetRep:
    """Tabulate r -> {a | a below r} over a finite lattice."""
    els = inst.enumerate()
    sections = {
        r: frozenset(a for a in els if inst.leq(a, r))
        for r in els
    }
    return DownsetRep(lattice=inst, sections=sections)


def check_internal_naturality(inst: LatticeInstance) -> CheckReport:
    """Internal lattice operations on downsets: join and bottom stay inside
    each downset; combine lands below the combined budget (its monotonicity,
    stated where it is true: a,b below r1 and r1 below r2 imply a+b below
    r2+r2); inclusions are well-defined and commute with the operations."""
    els = inst.enumerate()
    down = build_downset(inst)
    c = _Checker("internal-operation-naturality")
    fmt = inst.format

    for r in els:
        c.expect(inst.leq(inst.bottom(), r), f"bottom not below {fmt(r)}")
        for a in down.sections[r]:
            for b in down.sections[r]:
                c.expect(
                    inst.leq(inst.join(a, b), r),
                    f"join escapes downset: r={fmt(r)}, a={fmt(a)}, b={fmt(b)}",
                )

    leq_pairs = [(r1, r2) for r1 in els for r2 in els if inst.leq(r1, r2)]
    for r1, r2 in leq_pairs:
        for a in down.sections[r1]:
            c.expect(
                a in down.sections[r2],
                f"inclusion undefined: r1={fmt(r1)}, r2={fmt(r2)}, a={fmt(a)}",
            )
            for b in down.sections[r1]:
                combined = inst.combine(a, b)
                budget = inst.combine(r2, r2)
                c.expect(
                    inst.leq(combined, budget),
                    f"combine not monotone: r1={fmt(r1)}, r2={fmt(r2)}, a={fmt(a)}, b={fmt(b)}",
                )
                # square over the inclusion: applying join below r1 and then
                # including must land inside the r2 downset
                c.expect(
                    inst.leq(inst.join(a, b), r2),
                    f"join square broken at r1={fmt(r1)}, r2={fmt(r2)}, a={fmt(a)}, b={fmt(b)}",
                )
    return c.report(notes={"elements": len(els)})


# ---------------------------------------------------------------------------
# Type interpretation as budget-indexed section families


@dataclass
class PresheafRep:
    lattice: LatticeInstance
    type: Type
    sections: dict[LatticeElement, set[Section]]
    exhaustive: bool
    notes: dict[str, Any] = field(default_factory=dict)

    def section_count(self) -> int:
        top_sizes = [len(s) for s in self.sections.values()]
        return max(top_sizes) if top_sizes else 0


def _fmt_section(inst: LatticeInstance, s: Section) -> str:
    v, b = s
    return f"({pretty_value(v)}, {inst.format(b)})"


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
        inst = self.inst
        bot = inst.bottom()

        sections: dict[LatticeElement, set[Section]]
        match ty:
            case Bool():
                base = {(VTT(), bot), (VFF(), bot)}
                sections = {r: set(base) for r in self.els}
            case Nat():
                base = {(VNat(n), bot) for n in range(self.enum.max_nat + 1)}
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
                                out.add((VPair(v1, v2), b))
                    sections[r] = out
            case Box(grade, body):
                brep = self.interpret(body)
                exhaustive = brep.exhaustive
                sections = {}
                for r in self.els:
                    sections[r] = {
                        (VBox(grade, v), b)
                        for (v, b) in brep.sections[r]
                        if inst.leq(b, grade)
                    }
            case Arrow(dom, cod, None):
                sections, exhaustive, notes = self._arrow_sections(ty, dom, cod)
            case _:
                raise ValueError(f"cannot tabulate type {pretty_type(ty)}")

        if any(len(s) > self.enum.max_sections for s in sections.values()):
            exhaustive = False
            notes["section_cap"] = self.enum.max_sections
            sections = {
                r: set(itertools.islice(sorted(s, key=lambda p: pretty_value(p[0])), self.enum.max_sections))
                for r, s in sections.items()
            }

        rep = PresheafRep(
            lattice=inst,
            type=ty,
            sections=sections,
            exhaustive=exhaustive,
            notes=notes,
        )
        self.memo[ty] = rep
        return rep

    # arrow corpora ---------------------------------------------------------

    def _arrow_sections(self, ty: Arrow, dom: Type, cod: Type):
        inst = self.inst
        notes: dict[str, Any] = {"max_term_size": self.enum.max_term_size}
        exhaustive = True
        findings: list[str] = []

        top = inst.top()
        if top is None or type_contains_arrow(dom):
            notes["skipped"] = "argument space not enumerable"
            return {r: set() for r in self.els}, False, notes

        dom_rep = self.interpret(dom)
        args = sorted(dom_rep.sections[top], key=lambda p: pretty_value(p[0]))
        exhaustive = dom_rep.exhaustive

        corpus: list[tuple[Value, LatticeElement, LatticeElement]] = []
        bodies: list[Term] = []
        for size in range(1, self.enum.max_term_size):
            bodies.extend(self._bodies((("x", dom),), cod, size))
        if not bodies:  # no lambda fits the size limit: an empty family is no evidence
            exhaustive = False
        if len(bodies) > self.enum.max_sections:
            bodies = bodies[: self.enum.max_sections]
            exhaustive = False
            notes["corpus_cap"] = self.enum.max_sections

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
                    findings.append(f"{pretty(lam)} on {pretty_value(v)}: {exc}")
                    admissible = False
                    break
                if not inst.leq(result.cost, b_sub):
                    findings.append(
                        f"substituted body cost escapes bound: {pretty(lam)} on {pretty_value(v)}"
                    )
                try:
                    b_w = retype_value(result.value, self.budget, Mode.PAPER, self.enum.deltas).bound
                except TypingError as exc:
                    findings.append(f"result of {pretty(lam)} does not retype: {exc}")
                    admissible = False
                    break
                if not inst.leq(b_w, b_sub):
                    findings.append(
                        f"result bound escapes body bound: {pretty(lam)} on {pretty_value(v)}"
                    )
                need = inst.join(need, inst.combine(inst.combine(b_a, b_sub), self.enum.deltas.app))
            if admissible:
                corpus.append((to_value(lam), b_body, need))

        sections = {
            r: {(v, b) for (v, b, need) in corpus if inst.leq(need, r)}
            for r in self.els
        }
        notes["corpus_size"] = len(corpus)
        notes["argument_count"] = len(args)
        if findings:
            notes["findings"] = findings[:10]
        return sections, exhaustive, notes

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
    """Sections are certified (bound below budget, value retypes at exactly
    the stored bound and type) and monotone: every section admitted at r1 is
    admitted at each r2 above it."""
    inst = rep.lattice
    c = _Checker(f"sections[{pretty_type(rep.type)}]")
    budget = inst.large_budget()
    els = list(rep.sections)

    retype_cache: dict[Section, tuple[Type, LatticeElement] | str] = {}
    for r in els:
        for sec in rep.sections[r]:
            v, b = sec
            c.expect(
                inst.leq(b, r),
                f"bound escapes budget: {_fmt_section(inst, sec)} at r={inst.format(r)}",
            )
            if sec not in retype_cache:
                try:
                    j = retype_value(v, budget, Mode.PAPER, deltas)
                    retype_cache[sec] = (j.type, j.bound)
                except TypingError as exc:
                    retype_cache[sec] = str(exc)
            cached = retype_cache[sec]
            if isinstance(cached, str):
                c.expect(False, f"section does not retype: {_fmt_section(inst, sec)}: {cached}")
            else:
                ty, bound = cached
                c.expect(
                    ty == rep.type and bound == b,
                    f"section judgment mismatch: {_fmt_section(inst, sec)} retypes at "
                    f"({pretty_type(ty)}, {inst.format(bound)})",
                )

    for r1 in els:
        for r2 in els:
            if not inst.leq(r1, r2):
                continue
            for sec in rep.sections[r1]:
                c.expect(
                    sec in rep.sections[r2],
                    f"transition loses {_fmt_section(inst, sec)} from r1={inst.format(r1)} to r2={inst.format(r2)}",
                )
    return c.report(notes=dict(rep.notes, exhaustive=rep.exhaustive))


def reify_and_check(rep: PresheafRep, deltas: DeltaProfile) -> CheckReport:
    """Sections reify to themselves: the value retypes at a bound below the
    stored one and the budget, and evaluates to itself at cost bottom."""
    inst = rep.lattice
    c = _Checker(f"reification[{pretty_type(rep.type)}]")
    budget = inst.large_budget()
    bot = inst.bottom()
    seen: set[Section] = set()
    for r, secs in rep.sections.items():
        for sec in secs:
            v, b = sec
            try:
                j = retype_value(v, budget, Mode.PAPER, deltas)
                c.expect(
                    j.type == rep.type and inst.leq(j.bound, b) and inst.leq(j.bound, r),
                    f"clause 1 fails for {_fmt_section(inst, sec)} at r={inst.format(r)}",
                )
            except TypingError as exc:
                c.expect(False, f"clause 1 fails for {_fmt_section(inst, sec)}: {exc}")
            if sec in seen:
                continue
            seen.add(sec)
            try:
                result = evaluate(embed(v), deltas)
                c.expect(
                    result.cost == bot and alpha_eq(embed(result.value), embed(v)),
                    f"clause 2 fails for {_fmt_section(inst, sec)}: cost {inst.format(result.cost)}",
                )
            except EvalError as exc:
                c.expect(False, f"clause 2 fails for {_fmt_section(inst, sec)}: {exc}")
    return c.report()


def check_box_subpresheaf(box_rep: PresheafRep, body_rep: PresheafRep) -> CheckReport:
    """Stripping the box embeds each boxed section family into the body's."""
    inst = box_rep.lattice
    assert isinstance(box_rep.type, Box)
    c = _Checker(f"box-embedding[{pretty_type(box_rep.type)}]")
    for r, secs in box_rep.sections.items():
        for (v, b) in secs:
            ok = isinstance(v, VBox) and (v.value, b) in body_rep.sections[r]
            c.expect(
                ok,
                f"({pretty_value(v)}, {inst.format(b)}) does not embed at r={inst.format(r)}",
            )
    return c.report()


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

    def den_of_value(self, v: Value) -> Den:
        match v:
            case VTT():
                return True
            case VFF():
                return False
            case VNat(n):
                return n
            case VPair(a, b):
                return (self.den_of_value(a), self.den_of_value(b))
            case VBox(grade, inner):
                return BoxDen(grade, self.den_of_value(inner))
            case VLam(name, _, body):
                return FnDen(lambda d: self._interp(body, {name: d}))
        raise TypeError(f"no denotation for {v!r}")

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


def _probe_values(ty: Type, max_nat: int = 2) -> list[Value]:
    match ty:
        case Bool():
            return [VTT(), VFF()]
        case Nat():
            return [VNat(n) for n in range(max_nat + 1)]
        case Prod(left, right):
            probes = [
                VPair(a, b)
                for a in _probe_values(left, max_nat)
                for b in _probe_values(right, max_nat)
            ]
            return probes[:4]
        case Arrow(dom, cod, _):
            return [to_value(Lam("u", dom, minimal_inhabitant(cod)))]
        case Box(grade, body):
            return [VBox(grade, p) for p in _probe_values(body, max_nat)][:3]
    raise TypeError(f"no probes for {ty!r}")


def den_matches_value(den: Den, v: Value, m: DenModel) -> bool:
    """Structural agreement, with functions compared observationally on a
    deterministic probe set: the denotation's application must produce the
    same value and cost as operational application."""
    inst = m.lattice
    match v:
        case VTT():
            return den is True
        case VFF():
            return den is False
        case VNat(n):
            return den == n
        case VPair(a, b):
            return (
                isinstance(den, tuple)
                and den_matches_value(den[0], a, m)
                and den_matches_value(den[1], b, m)
            )
        case VBox(grade, inner):
            return isinstance(den, BoxDen) and den.grade == grade and den_matches_value(den.inner, inner, m)
        case VLam(name, annot, body):
            if not isinstance(den, FnDen):
                return False
            for probe in _probe_values(annot):
                dp = m.den_of_value(probe)
                db, cb = den(dp)
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
            c.expect(False, f"{pretty(term)}: does not typecheck: {exc}")
            continue
        den, cost = interpret_term(term, j, m)
        try:
            result = evaluate(term, m.deltas)
        except EvalError as exc:
            c.expect(False, f"{pretty(term)}: {exc}")
            continue
        c.expect(
            cost == result.cost,
            f"model cost {inst.format(cost)} differs from operational {inst.format(result.cost)}: {pretty(term)}",
        )
        c.expect(
            den_matches_value(den, result.value, m),
            f"denotation disagrees with value {pretty_value(result.value)}: {pretty(term)}",
        )
        c.expect(
            inst.leq(cost, j.bound),
            f"model cost {inst.format(cost)} escapes bound {inst.format(j.bound)}: {pretty(term)}",
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
    """Run every finite-model check over one lattice: downset shape,
    internal operations, and per-type section family, reification, and box
    embedding."""
    enum = enum or EnumBudget(deltas=DeltaProfile.default(inst))
    _check_deltas(enum.deltas, inst)
    types = types if types is not None else default_type_suite(inst)
    checks: list[CheckReport] = []

    down = build_downset(inst)
    c = _Checker("downset-shape")
    bot = inst.bottom()
    c.expect(down.sections[bot] == frozenset({bot}), "downset of bottom is not {bottom}")
    for r, sec in down.sections.items():
        c.expect(bot in sec and r in sec, f"downset of {inst.format(r)} misses an endpoint")
    checks.append(c.report(notes={"elements": len(down.sections)}))

    checks.append(check_internal_naturality(inst))

    reps = interpret_types(types, inst, enum)
    for ty, rep in reps.items():
        checks.append(check_presheaf(rep, enum.deltas))
        checks.append(reify_and_check(rep, enum.deltas))
        if isinstance(ty, Box):
            body_rep = interpret_types([ty.body], inst, enum)[ty.body]
            checks.append(check_box_subpresheaf(rep, body_rep))

    universe = {
        "elements": len(inst.enumerate()),
        "types": [pretty_type(t) for t in types],
        "sections": {pretty_type(t): reps[t].section_count() for t in types},
        "exhaustive": all(reps[t].exhaustive for t in types),
    }
    return ModelReport(lattice=inst.name, checks=checks, universe=universe)
