"""Exhaustive finite-lattice checks for the semantic constructions: the
lattice laws the constructions rely on, per-type section families
(tabulated interpretations of types as budget-indexed sets of certified
values), and a concrete cost-annotated set model with a compositional term
interpretation checked against the operational semantics.

Only checks that can fail on a faulty lattice, typechecker or evaluator are
run. A family is stored once, as its need map: each section comes with its
need, the least budget that admits it, and the family at budget r is
`{s | need(s) <= r}`. Its monotonicity in r, the embedding of a boxed family
into its body's, and each bound sitting below its budget (a bound is below
its need) follow from the lattice laws; the laws are checked instead, with
`lattice.check_laws` over every element.

A section is a (value, bound) pair, and a value is a term in normal form,
so a section is already its own reification. The model interprets a value
with the same `DenModel.denote` clauses as any other term.

Section families are tabulated with paper-mode judgments: a value's
synthesized bound under those rules is exactly the bound stored in its
section (a lambda's bound is its body bound). Tabulating an arrow family
evaluates each lambda body on every argument and compares the substituted
body's bound, its cost and its result's bound; those comparisons are the
family's check, and each failed one is a finding. The term interpretation
and cost-preservation check run in sound mode, where the synthesized bound
dominates the model cost under arbitrary function reuse.

An arrow family is typed from derivations, and no body node is typed twice.
The body enumerator yields each body's derivation, every node derived once
from its kids' with `typecheck.derive_or_untyped`, as the generator builds
terms, and memoized per (context, goal, size). A lambda is one `Lam` node
over its body's derivation. A substituted body re-derives only the nodes
above an occurrence of x and shares the rest of the body's derivation. A goal
is skipped when the size left is below `boxes(goal) - max boxes(T in ctx) + 1`
(`boxes` counts leading `Box` constructors): `box` adds a node per layer and
`unbox` needs an inner body with one more, so no body that small exists.
Only an evaluation result is typed whole, once per distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    RuleTable,
    Snd,
    TT,
    Term,
    Type,
    Unbox,
    Var,
    pretty,
    pretty_type,
    rebuild,
    substitute,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    Derivation,
    Mode,
    TypingError,
    check_deltas,
    derive_or_untyped,
    synthesize,
)


Section = tuple[Term, LatticeElement]  # a value and its bound
Entry = tuple[Term, LatticeElement, LatticeElement]  # a value, its bound and its need

# Tabulated entries per family, and lambdas per arrow corpus, before a
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
    """One check's case count and findings; it passes when no case failed."""

    name: str
    checked: int = 0
    counterexamples: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def expect(self, ok: bool, witness: Callable[[], str]):
        """Count one case; on failure, call `witness` for its description."""
        self.checked += 1
        if not ok and len(self.counterexamples) < 10:
            self.counterexamples.append(witness())

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


# ---------------------------------------------------------------------------
# Type interpretation as budget-indexed section families


@dataclass
class PresheafRep:
    """A type's section family as its need map: `entries` holds each section
    with its need, and the family at budget r is `at(r)`."""

    lattice: LatticeInstance
    type: Type
    entries: list[Entry]
    exhaustive: bool
    notes: dict[str, Any] = field(default_factory=dict)
    tabulation: CheckReport | None = None  # an arrow family's comparisons and findings

    def at(self, r: LatticeElement) -> set[Section]:
        """The sections admitted at budget r: those whose need sits below r."""
        return {(v, b) for v, b, need in self.entries if self.lattice.leq(need, r)}

    def section_count(self) -> int:
        return max((len(self.at(r)) for r in self.lattice.enumerate()), default=0)


def _fmt_section(inst: LatticeInstance, s: Section) -> str:
    v, b = s
    return f"({pretty(v)}, {inst.format(b)})"


class _Interpreter:
    def __init__(self, inst: LatticeInstance, enum: EnumBudget):
        if not inst.is_finite:
            raise ValueError(f"lattice {inst.name!r} must be finite for tabulation")
        check_deltas(enum.deltas, inst)
        self.inst = inst
        self.enum = enum
        self.els = inst.enumerate()
        self.budget = inst.large_budget()
        self.memo: dict[Type, PresheafRep] = {}
        self.body_memo: dict[tuple, list[Derivation]] = {}
        self.value_bounds: dict[Term, LatticeElement] = {}

    def node(self, ctx: Context, t: Term, *kids: Derivation) -> Derivation:
        """t's paper-mode derivation in ctx from its kids', or an untyped node."""
        return derive_or_untyped(ctx, t, Mode.PAPER, self.enum.deltas, self.inst, kids)

    def synth_bound(self, t: Term) -> LatticeElement:
        """The paper-mode bound of a closed term, derived whole."""
        return synthesize(Context(), t, self.budget, Mode.PAPER, self.enum.deltas).bound

    def value_bound(self, v: Term) -> LatticeElement:
        """synth_bound of an evaluation result, read once per value (memo)."""
        b = self.value_bounds.get(v)
        if b is None:
            b = self.value_bounds[v] = self.synth_bound(v)
        return b

    def interpret(self, ty: Type) -> PresheafRep:
        if ty in self.memo:
            return self.memo[ty]
        exhaustive = True
        notes: dict[str, Any] = {}
        tabulation = None
        inst = self.inst
        bot = inst.bottom()

        entries: list[Entry]
        match ty:
            case Bool():
                entries = [(TT(), bot, bot), (FF(), bot, bot)]
            case Nat():
                entries = [(NatLit(n), bot, bot) for n in range(self.enum.max_nat + 1)]
                notes["max_nat"] = self.enum.max_nat
            case Prod(left, right):
                lrep = self.interpret(left)
                rrep = self.interpret(right)
                exhaustive = lrep.exhaustive and rrep.exhaustive
                entries = []
                for (v1, b1, n1) in lrep.entries:
                    for (v2, b2, n2) in rrep.entries:
                        b = inst.combine(b1, b2)
                        entries.append((Pair(v1, v2), b, inst.join(inst.join(n1, n2), b)))
            case Box(grade, body):
                brep = self.interpret(body)
                exhaustive = brep.exhaustive
                entries = [(BoxT(grade, v), b, need) for (v, b, need) in brep.entries if inst.leq(b, grade)]
            case Arrow(dom, cod, None):
                entries, exhaustive, notes, tabulation = self._arrow_sections(dom, cod)
            case _:
                raise ValueError(f"cannot tabulate type {pretty_type(ty)}")

        if len(entries) > MAX_SECTIONS:
            exhaustive = False
            notes["section_cap"] = MAX_SECTIONS
            entries = sorted(entries, key=lambda e: pretty(e[0]))[:MAX_SECTIONS]

        rep = PresheafRep(
            lattice=inst,
            type=ty,
            entries=entries,
            exhaustive=exhaustive,
            notes=notes,
            tabulation=tabulation,
        )
        self.memo[ty] = rep
        return rep

    # arrow corpora ---------------------------------------------------------

    def _arrow_sections(self, dom: Type, cod: Type):
        """An arrow family's entries and the comparisons that tabulate it.
        Each lambda is one Lam node over its body's derivation. For each
        argument, the substituted body's derivation re-derives only the
        nodes above an occurrence of x (`_substituted`); the rest is the
        body's own derivation, as `substitute` shares those subterms."""
        inst = self.inst
        notes: dict[str, Any] = {"max_term_size": self.enum.max_term_size}
        arrow = Arrow(dom, cod, None)
        tab = CheckReport(f"sections[{pretty_type(arrow)}]")

        top = inst.top()
        if top is None or type_contains_arrow(dom):
            notes["skipped"] = "argument space not enumerable"
            return [], False, notes, tab

        dom_rep = self.interpret(dom)
        args = sorted(dom_rep.at(top), key=lambda p: pretty(p[0]))
        exhaustive = dom_rep.exhaustive

        entries: list[Entry] = []
        bodies: list[Derivation] = []
        for size in range(1, self.enum.max_term_size):
            bodies.extend(self._bodies((("x", dom),), cod, size))
        if not bodies:  # no lambda fits the size limit: an empty family is no evidence
            exhaustive = False
        if len(bodies) > MAX_SECTIONS:
            bodies = bodies[:MAX_SECTIONS]
            exhaustive = False
            notes["corpus_cap"] = MAX_SECTIONS

        closed = Context()
        arg_derivs = [self.node(closed, v) for v, _ in args]
        sub_memos: list[dict[int, Derivation]] = [{} for _ in args]
        for body in bodies:
            lam = Lam("x", dom, body.term)
            j = self.node(closed, lam, body)
            if j.type is None:
                continue
            if j.type != arrow:
                tab.expect(False, lambda: f"lambda synthesizes {pretty_type(j.type)}, "
                           f"not {pretty_type(arrow)}: {pretty(lam)}")
                continue
            b_body = j.bound
            # the budget needed at a section: body bound, and for every
            # definable argument the application-condition budget
            need = b_body
            admissible = True
            for (v, b_a), v_deriv, sub_memo in zip(args, arg_derivs, sub_memos):
                sub = self._substituted(body, v_deriv, sub_memo)
                try:
                    b_sub = sub.bound if sub.type is not None else self.synth_bound(sub.term)
                    result = evaluate(sub.term, self.enum.deltas)
                except (TypingError, EvalError) as exc:
                    tab.expect(False, lambda: f"{pretty(lam)} on {pretty(v)}: {exc}")
                    admissible = False
                    break
                tab.expect(
                    inst.leq(b_sub, b_body),
                    lambda: f"substituted body bound escapes lambda bound: {pretty(lam)} on {pretty(v)}",
                )
                tab.expect(
                    inst.leq(result.cost, b_sub),
                    lambda: f"substituted body cost escapes bound: {pretty(lam)} on {pretty(v)}",
                )
                try:
                    b_w = self.value_bound(result.value)
                except TypingError as exc:
                    tab.expect(False, lambda: f"result of {pretty(lam)} does not retype: {exc}")
                    admissible = False
                    break
                tab.expect(
                    inst.leq(b_w, b_sub),
                    lambda: f"result bound escapes body bound: {pretty(lam)} on {pretty(v)}",
                )
                need = inst.join(need, inst.combine(inst.combine(b_a, b_sub), self.enum.deltas.app))
            if admissible:
                entries.append((lam, b_body, need))

        notes["corpus_size"] = len(entries)
        notes["argument_count"] = len(args)
        return entries, exhaustive, notes, tab

    def _substituted(self, d: Derivation, v: Derivation, memo: dict[int, Derivation]) -> Derivation:
        """The closed derivation of d's body term with x := v, where v is a
        closed value's derivation. Bodies bind nothing, so every variable is
        x. A node without x is its own derivation; a node above x is derived
        again from its substituted kids, once per body node (memo, keyed by
        the node's identity, which body_memo keeps alive) and argument."""
        hit = memo.get(id(d))
        if hit is not None:
            return hit
        if isinstance(d.term, Var):
            out = v
        else:
            kids = tuple(self._substituted(k, v, memo) for k in d.children)
            if all(new is old for new, old in zip(kids, d.children)):
                out = d
            else:
                out = self.node(Context(), rebuild(d.term, [k.term for k in kids]), *kids)
        memo[id(d)] = out
        return out

    def _bodies(self, ctx: tuple[tuple[str, Type], ...], goal: Type, size: int) -> list[Derivation]:
        """The derivations, in ctx, of all first-order bodies of exactly
        `size` nodes: variables, literals, pairs, conditionals, boxing and
        unboxing. Each node is derived once, from its kids' derivations; one
        that does not type is an untyped node.

        A body needs at least `_boxes(goal) - max(_boxes(T) for T in ctx) + 1`
        nodes, by induction over the productions: `box` adds one node per
        box layer, `unbox` needs an inner body with one more layer, and
        variables, literals, pairs and `if` meet the bound outright. Below
        it the list is empty without being enumerated."""
        if size < _boxes(goal) - max((_boxes(ty) for _, ty in ctx), default=0) + 1:
            return []
        key = (ctx, goal, size)
        if key in self.body_memo:
            return self.body_memo[key]
        at = Context(ctx)
        node = self.node
        out: list[Derivation] = []
        if size == 1:
            for name, ty in ctx:
                if ty == goal:
                    out.append(node(at, Var(name)))
            match goal:
                case Bool():
                    out.extend([node(at, TT()), node(at, FF())])
                case Nat():
                    out.extend(node(at, NatLit(n)) for n in range(self.enum.max_nat + 1))
        else:
            match goal:
                case Prod(left, right):
                    for ls in range(1, size - 1):
                        rs = size - 1 - ls
                        for a in self._bodies(ctx, left, ls):
                            for b in self._bodies(ctx, right, rs):
                                out.append(node(at, Pair(a.term, b.term), a, b))
                case Box(grade, body_ty):
                    for body in self._bodies(ctx, body_ty, size - 1):
                        out.append(node(at, BoxT(grade, body.term), body))
            for s in self.els:
                for inner in self._bodies(ctx, Box(s, goal), size - 1):
                    out.append(node(at, Unbox(inner.term), inner))
            for cs in range(1, size - 2):
                for ts in range(1, size - 1 - cs):
                    es = size - 1 - cs - ts
                    for c in self._bodies(ctx, Bool(), cs):
                        for a in self._bodies(ctx, goal, ts):
                            for b in self._bodies(ctx, goal, es):
                                out.append(node(at, If(c.term, a.term, b.term), c, a, b))
        self.body_memo[key] = out
        return out


def _boxes(ty: Type) -> int:
    """The number of leading Box constructors of a type."""
    n = 0
    while isinstance(ty, Box):
        n, ty = n + 1, ty.body
    return n


def interpret_type(ty: Type, inst: LatticeInstance, enum: EnumBudget) -> PresheafRep:
    """Tabulate the section family of a type over a finite lattice: its
    (value, bound, need) entries, read at budget r as `rep.at(r)`."""
    return _Interpreter(inst, enum).interpret(ty)


def interpret_types(types: Iterable[Type], inst: LatticeInstance, enum: EnumBudget) -> dict[Type, PresheafRep]:
    interp = _Interpreter(inst, enum)
    return {ty: interp.interpret(ty) for ty in types}


# ---------------------------------------------------------------------------
# Section family checks


def check_presheaf(rep: PresheafRep, deltas: DeltaProfile) -> CheckReport:
    """Sections are certified. A literal, pair or box section retypes at
    exactly the stored type and bound: one case per entry. An arrow
    family's cases are its tabulation's comparisons, three for each lambda
    and argument (the substituted body's bound below the lambda's, its
    cost below that bound, its result's bound below it), and each finding
    is one failed case; so is a lambda that synthesizes another type than
    the family's. A lambda's stored bound is the judgment the tabulation
    derived, so it is not retyped."""
    notes = dict(rep.notes, exhaustive=rep.exhaustive)
    if rep.tabulation is not None:
        return replace(rep.tabulation, notes=notes)
    inst = rep.lattice
    c = CheckReport(f"sections[{pretty_type(rep.type)}]", notes=notes)
    budget = inst.large_budget()
    for (v, b, _) in rep.entries:
        sec = (v, b)
        try:
            j = synthesize(Context(), v, budget, Mode.PAPER, deltas)
        except TypingError as exc:
            c.expect(False, lambda: f"section does not retype: {_fmt_section(inst, sec)}: {exc}")
            continue
        c.expect(
            j.type == rep.type and j.bound == b,
            lambda: f"section judgment mismatch: {_fmt_section(inst, sec)} retypes at "
            f"({pretty_type(j.type)}, {inst.format(j.bound)})",
        )
    return c


# ---------------------------------------------------------------------------
# A concrete cost-annotated set model


@dataclass(frozen=True)
class BoxDen:
    grade: LatticeElement
    inner: "Den"


# bool | int | tuple[Den, Den] | BoxDen, or for a function the curried map
# from an argument denotation to the body's denotation and cost
Den = Any


class DenModel:
    """Sets of cost-annotated values: products are pairs, functions are
    cost-tracking maps built by currying, boxes are grade-tagged subsets,
    and the internal lattice is the session lattice itself."""

    def __init__(self, lattice: LatticeInstance, deltas: DeltaProfile):
        check_deltas(deltas, lattice)
        self.lattice = lattice
        self.deltas = deltas

    def denote(self, t: Term, env: dict[str, Den]) -> tuple[Den, LatticeElement]:
        """Compositional denotation of a term under `env`, with the
        model-side cost: t's clause in CLAUSES, which recurses through it."""
        return self.CLAUSES[t.__class__](self, t, env)

    def _var(self, t: Var, env):
        return env[t.name], self.lattice.bottom()

    def _literal(self, t: Term, env):
        return t.value if t.__class__ is NatLit else t.__class__ is TT, self.lattice.bottom()

    def _lam(self, t: Lam, env):
        name, body, captured = t.name, t.body, dict(env)

        def apply(arg: Den):
            return self.CLAUSES[body.__class__](self, body, {**captured, name: arg})

        return apply, self.lattice.bottom()

    def _app(self, t: App, env):
        inst = self.lattice
        df, cf = self.CLAUSES[t.fn.__class__](self, t.fn, env)
        da, ca = self.CLAUSES[t.arg.__class__](self, t.arg, env)
        db, cb = df(da)
        return db, inst.combine(inst.combine(inst.combine(cf, ca), self.deltas.app), cb)

    def _pair(self, t: Pair, env):
        da, ca = self.CLAUSES[t.fst.__class__](self, t.fst, env)
        db, cb = self.CLAUSES[t.snd.__class__](self, t.snd, env)
        return (da, db), self.lattice.combine(ca, cb)

    def _proj(self, t: Term, env):
        da, ca = self.CLAUSES[t.arg.__class__](self, t.arg, env)
        return da[0] if t.__class__ is Fst else da[1], self.lattice.combine(ca, self.deltas.proj)

    def _if(self, t: If, env):
        dc, cc = self.CLAUSES[t.cond.__class__](self, t.cond, env)
        taken = t.then if dc else t.other
        db, cb = self.CLAUSES[taken.__class__](self, taken, env)
        return db, self.lattice.combine(self.lattice.combine(cc, cb), self.deltas.iff)

    def _box(self, t: BoxT, env):
        db, cb = self.CLAUSES[t.body.__class__](self, t.body, env)
        return BoxDen(t.grade, db), cb

    def _unbox(self, t: Unbox, env):
        da, ca = self.CLAUSES[t.arg.__class__](self, t.arg, env)
        assert isinstance(da, BoxDen)
        return da.inner, self.lattice.combine(ca, self.deltas.unbox)

    def _no_clause(self, t: Term, env):
        raise TypeError(f"no interpretation clause for {pretty(t)}")

    CLAUSES = RuleTable({Var: _var, TT: _literal, FF: _literal, NatLit: _literal, Lam: _lam, App: _app,
                         Pair: _pair, Fst: _proj, Snd: _proj, If: _if, BoxT: _box, Unbox: _unbox}, _no_clause)


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
        case Arrow():
            return [minimal_inhabitant(ty)]
        case Box(grade, body):
            return [BoxT(grade, p) for p in _probe_values(body, max_nat)][:3]
    raise TypeError(f"no probes for {ty!r}")


def den_matches_value(den: Den, v: Term, m: DenModel) -> bool:
    """Structural agreement, with functions compared observationally on a
    deterministic probe set: the denotation's application must produce the
    same value and cost as operational application."""
    match v:
        case TT() | FF():
            return den is (type(v) is TT)
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
            if not callable(den):
                return False
            for probe in _probe_values(annot):
                db, cb = den(m.denote(probe, {})[0])
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
    c = CheckReport(f"cost-preservation[{mode.value}]", notes={"corpus": len(corpus)})
    budget = inst.large_budget()
    for term in corpus:
        try:
            j = synthesize(Context(), term, budget, mode, m.deltas)
        except TypingError as exc:
            c.expect(False, lambda: f"{pretty(term)}: does not typecheck: {exc}")
            continue
        den, cost = m.denote(term, {})
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
    return c


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
    type (`check_presheaf`): a retype of each literal, pair and box section,
    or the comparisons an arrow family's tabulation made."""
    enum = enum or EnumBudget(deltas=DeltaProfile.default(inst))
    types = types if types is not None else default_type_suite(inst)
    reps = interpret_types(types, inst, enum)

    laws = check_laws(inst)
    checks = [CheckReport(
        name="lattice-laws",
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
