"""Bound-synthesizing typechecker.

Synthesis is syntax-directed and returns, alongside the type, a cost bound
drawn from the session lattice; the budget only influences the final
within-budget verdict, never the bound. Two rule sets are selectable:

* ``paper`` — the classic presentation: a lambda's bound is its body's
  bound and application charges the function and argument bounds plus a
  constant. Undercounts when one function value is applied more than once.
* ``sound`` — lambdas synthesize bound bottom and arrows carry the body
  bound as a latent annotation that every application site pays, which
  restores cost soundness under reuse.

Grade subsumption (boxes covariant in the grade, and in sound mode arrows
contravariant in domain, covariant in codomain and latent) is applied at
application arguments, if-branch unification, and expected-type checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    Value,
    Var,
    embed,
    pretty,
    pretty_type,
)


class Mode(enum.Enum):
    PAPER = "paper"
    SOUND = "sound"


class TypingError(Exception):
    pass


class GradeExceeded(TypingError):
    """Box side condition failed: the synthesized bound is not below the grade."""

    def __init__(self, bound: LatticeElement, grade: LatticeElement):
        self.bound = bound
        self.grade = grade
        inst = bound.instance
        super().__init__(
            f"bound {inst.format(bound)} exceeds grade {inst.format(grade)}"
        )


@dataclass(frozen=True)
class DeltaProfile:
    """Per-operation costs charged by application, conditionals, unboxing,
    and projections."""

    app: LatticeElement
    iff: LatticeElement
    unbox: LatticeElement
    proj: LatticeElement

    @staticmethod
    def default(inst: LatticeInstance) -> "DeltaProfile":
        unit = inst.unit_step()
        return DeltaProfile(unit, unit, unit, unit)

    @staticmethod
    def uniform(el: LatticeElement) -> "DeltaProfile":
        return DeltaProfile(el, el, el, el)

    @property
    def instance(self) -> LatticeInstance:
        return self.app.instance


@dataclass(frozen=True)
class Context:
    bindings: tuple[tuple[str, Type], ...] = ()

    def extend(self, name: str, ty: Type) -> "Context":
        return Context(self.bindings + ((name, ty),))

    def lookup(self, name: str) -> Type | None:
        for bound_name, ty in reversed(self.bindings):
            if bound_name == name:
                return ty
        return None


@dataclass(frozen=True)
class Derivation:
    rule: str
    term: Term
    type: Type
    bound: LatticeElement
    children: tuple["Derivation", ...] = ()


@dataclass(frozen=True)
class Judgment:
    subject: Term
    type: Type
    bound: LatticeElement
    budget: LatticeElement
    within_budget: bool
    trace: Derivation


# ---------------------------------------------------------------------------
# Subtyping and branch unification


def latent_of(arrow: Arrow, inst: LatticeInstance) -> LatticeElement:
    return arrow.latent if arrow.latent is not None else inst.bottom()


def is_subtype(a: Type, b: Type, mode: Mode, inst: LatticeInstance) -> bool:
    match (a, b):
        case (Bool(), Bool()) | (Nat(), Nat()):
            return True
        case (Prod(l1, r1), Prod(l2, r2)):
            return is_subtype(l1, l2, mode, inst) and is_subtype(r1, r2, mode, inst)
        case (Box(g1, b1), Box(g2, b2)):
            return inst.leq(g1, g2) and is_subtype(b1, b2, mode, inst)
        case (Arrow(d1, c1, _), Arrow(d2, c2, _)):
            if mode is Mode.PAPER:
                return a == b
            return (
                is_subtype(d2, d1, mode, inst)
                and is_subtype(c1, c2, mode, inst)
                and inst.leq(latent_of(a, inst), latent_of(b, inst))
            )
    return False


def type_lub(a: Type, b: Type, mode: Mode, inst: LatticeInstance) -> Type:
    """Least common supertype used to unify if-branches: box grades and
    (in sound mode) arrow latents are joined; arrow domains must agree."""
    match (a, b):
        case (Bool(), Bool()):
            return a
        case (Nat(), Nat()):
            return a
        case (Prod(l1, r1), Prod(l2, r2)):
            return Prod(type_lub(l1, l2, mode, inst), type_lub(r1, r2, mode, inst))
        case (Box(g1, b1), Box(g2, b2)):
            return Box(inst.join(g1, g2), type_lub(b1, b2, mode, inst))
        case (Arrow(d1, c1, _), Arrow(d2, c2, _)):
            if mode is Mode.PAPER:
                if a == b:
                    return a
            elif d1 == d2:
                return Arrow(
                    d1,
                    type_lub(c1, c2, mode, inst),
                    inst.join(latent_of(a, inst), latent_of(b, inst)),
                )
    raise TypingError(
        f"branch types {pretty_type(a)} and {pretty_type(b)} do not unify"
    )


def _reject_latents(ty: Type):
    match ty:
        case Arrow(dom, cod, latent):
            if latent is not None:
                raise TypingError("latent arrow annotations are not allowed in paper mode")
            _reject_latents(dom)
            _reject_latents(cod)
        case Prod(left, right):
            _reject_latents(left)
            _reject_latents(right)
        case Box(_, body):
            _reject_latents(body)


# ---------------------------------------------------------------------------
# Synthesis


def synthesize(
    ctx: Context,
    term: Term,
    budget: LatticeElement,
    mode: Mode,
    deltas: DeltaProfile,
) -> Judgment:
    """Synthesize the type and cost bound of a term. The bound depends only
    on (ctx, term, mode, deltas); the budget is compared, not consumed."""
    inst = budget.instance
    if deltas.instance is not inst:
        raise TypingError(
            f"delta profile lattice {deltas.instance.name!r} differs from budget lattice {inst.name!r}"
        )
    ty, bound, deriv = _synth(ctx, term, mode, deltas, inst)
    return Judgment(
        subject=term,
        type=ty,
        bound=bound,
        budget=budget,
        within_budget=inst.leq(bound, budget),
        trace=deriv,
    )


def _synth(
    ctx: Context, t: Term, mode: Mode, d: DeltaProfile, inst: LatticeInstance
) -> tuple[Type, LatticeElement, Derivation]:
    match t:
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise TypingError(f"unbound variable {name!r}")
            bound = inst.bottom()
            return ty, bound, Derivation("Var", t, ty, bound)

        case TT() | FF():
            bound = inst.bottom()
            return Bool(), bound, Derivation("Const", t, Bool(), bound)

        case NatLit(_):
            bound = inst.bottom()
            return Nat(), bound, Derivation("Const", t, Nat(), bound)

        case Lam(name, annot, body):
            if mode is Mode.PAPER:
                _reject_latents(annot)
            bty, bbound, bderiv = _synth(ctx.extend(name, annot), body, mode, d, inst)
            if mode is Mode.PAPER:
                ty: Type = Arrow(annot, bty, None)
                bound = bbound
            else:
                ty = Arrow(annot, bty, bbound)
                bound = inst.bottom()
            return ty, bound, Derivation("Lam", t, ty, bound, (bderiv,))

        case App(fn, arg):
            fty, fbound, fderiv = _synth(ctx, fn, mode, d, inst)
            if not isinstance(fty, Arrow):
                raise TypingError(
                    f"cannot apply a term of type {pretty_type(fty)}: not an arrow"
                )
            aty, abound, aderiv = _synth(ctx, arg, mode, d, inst)
            if not is_subtype(aty, fty.dom, mode, inst):
                raise TypingError(
                    f"argument type {pretty_type(aty)} does not match domain {pretty_type(fty.dom)}"
                )
            bound = inst.combine(inst.combine(fbound, abound), d.app)
            if mode is Mode.SOUND:
                bound = inst.combine(bound, latent_of(fty, inst))
            return fty.cod, bound, Derivation("App", t, fty.cod, bound, (fderiv, aderiv))

        case Pair(a, b):
            aty, abound, aderiv = _synth(ctx, a, mode, d, inst)
            bty, bbound, bderiv = _synth(ctx, b, mode, d, inst)
            ty = Prod(aty, bty)
            bound = inst.combine(abound, bbound)
            return ty, bound, Derivation("Pair", t, ty, bound, (aderiv, bderiv))

        case Fst(arg):
            aty, abound, aderiv = _synth(ctx, arg, mode, d, inst)
            if not isinstance(aty, Prod):
                raise TypingError(f"fst of a non-pair type {pretty_type(aty)}")
            bound = inst.combine(abound, d.proj)
            return aty.left, bound, Derivation("Fst", t, aty.left, bound, (aderiv,))

        case Snd(arg):
            aty, abound, aderiv = _synth(ctx, arg, mode, d, inst)
            if not isinstance(aty, Prod):
                raise TypingError(f"snd of a non-pair type {pretty_type(aty)}")
            bound = inst.combine(abound, d.proj)
            return aty.right, bound, Derivation("Snd", t, aty.right, bound, (aderiv,))

        case If(cond, then, other):
            cty, cbound, cderiv = _synth(ctx, cond, mode, d, inst)
            if not isinstance(cty, Bool):
                raise TypingError(f"condition has type {pretty_type(cty)}, expected Bool")
            tty, tbound, tderiv = _synth(ctx, then, mode, d, inst)
            ety, ebound, ederiv = _synth(ctx, other, mode, d, inst)
            ty = type_lub(tty, ety, mode, inst)
            bound = inst.combine(inst.combine(cbound, inst.join(tbound, ebound)), d.iff)
            return ty, bound, Derivation("If", t, ty, bound, (cderiv, tderiv, ederiv))

        case BoxT(grade, body):
            inst._own(grade)
            bty, bbound, bderiv = _synth(ctx, body, mode, d, inst)
            if not inst.leq(bbound, grade):
                raise GradeExceeded(bbound, grade)
            ty = Box(grade, bty)
            return ty, bbound, Derivation("Box", t, ty, bbound, (bderiv,))

        case Unbox(arg):
            aty, abound, aderiv = _synth(ctx, arg, mode, d, inst)
            if not isinstance(aty, Box):
                raise TypingError(f"unbox of a non-box type {pretty_type(aty)}")
            bound = inst.combine(abound, d.unbox)
            return aty.body, bound, Derivation("Unbox", t, aty.body, bound, (aderiv,))

    raise TypingError(f"cannot type {pretty(t)}")


def retype_value(
    v: Value, budget: LatticeElement, mode: Mode, deltas: DeltaProfile
) -> Judgment:
    """Synthesize on the term a closed value embeds to. Used to check that
    evaluation results keep their type at a bound below the original."""
    return synthesize(Context(), embed(v), budget, mode, deltas)


def check_expected(
    ctx: Context,
    term: Term,
    expected: Type,
    budget: LatticeElement,
    mode: Mode,
    deltas: DeltaProfile,
) -> Judgment:
    """Synthesize and require the result to be a grade-subsumption subtype
    of the expected type."""
    j = synthesize(ctx, term, budget, mode, deltas)
    if not is_subtype(j.type, expected, mode, budget.instance):
        raise TypingError(
            f"synthesized type {pretty_type(j.type)} does not match expected {pretty_type(expected)}"
        )
    return j
