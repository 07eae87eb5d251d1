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
application arguments and if-branch unification.

The rules live in one table, ``RULES``, one handler per rule; ``derive``
applies the rule at one node. It takes the premises from the subterms'
derivations when given (the generator and the model's body enumerator build
terms this way, through ``derive_or_untyped``) and derives them otherwise
through the table, not through ``derive``, so a nesting level costs one
Python frame (``synthesize``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from rblam.lattice import LatticeElement, LatticeInstance, record
from rblam.syntax import (
    App,
    Arrow,
    Bool,
    Box,
    BoxT,
    FF,
    Fst,
    If,
    KEYWORD_OF,
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


def check_deltas(deltas: DeltaProfile, lattice: LatticeInstance) -> None:
    if deltas.instance is not lattice:
        owner = deltas.instance.name
        other = f"another instance of {owner!r}" if owner == lattice.name else f"lattice {owner!r}"
        raise ValueError(f"delta profile belongs to {other}, not to {lattice.name!r}")


@record(bindings=())
class Context:
    __slots__ = ("bindings",)
    bindings: tuple[tuple[str, Type], ...]

    def extend(self, name: str, ty: Type) -> "Context":
        return Context(self.bindings + ((name, ty),))

    def lookup(self, name: str) -> Type | None:
        for bound_name, ty in reversed(self.bindings):
            if bound_name == name:
                return ty
        return None


@record(children=())
class Derivation:
    __slots__ = ("rule", "term", "type", "bound", "children")
    rule: str
    term: Term
    type: Type
    bound: LatticeElement
    children: tuple["Derivation", ...]


@record
class Judgment:
    __slots__ = ("subject", "type", "bound", "budget", "within_budget", "trace")
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
    (in sound mode) arrow latents are joined; arrow domains must be mutual subtypes."""
    match (a, b):
        case (Bool(), Bool()) | (Nat(), Nat()):
            return a
        case (Prod(l1, r1), Prod(l2, r2)):
            return Prod(type_lub(l1, l2, mode, inst), type_lub(r1, r2, mode, inst))
        case (Box(g1, b1), Box(g2, b2)):
            return Box(inst.join(g1, g2), type_lub(b1, b2, mode, inst))
        case (Arrow(d1, c1, _), Arrow(d2, c2, _)):
            if mode is Mode.PAPER:
                if a == b:
                    return a
            elif is_subtype(d1, d2, mode, inst) and is_subtype(d2, d1, mode, inst):
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
    deriv = derive(ctx, term, mode, deltas, inst)
    return Judgment(
        subject=term,
        type=deriv.type,
        bound=deriv.bound,
        budget=budget,
        within_budget=inst.leq(deriv.bound, budget),
        trace=deriv,
    )


def derive(
    ctx: Context,
    t: Term,
    mode: Mode,
    d: DeltaProfile,
    inst: LatticeInstance,
    kids: tuple[Derivation, ...] = (),
) -> Derivation:
    """Apply the typing rule at node t. Its premises are taken from kids, the
    derivations of t's immediate subterms in order, or derived recursively
    when kids is empty. Either way the side conditions are checked in the
    same order, so an ill-typed term raises the same TypingError."""
    return RULES[t.__class__](ctx, t, mode, d, inst, kids)


_BOOL, _NAT = Bool(), Nat()


def _var(ctx, t, mode, d, inst, kids):
    ty = ctx.lookup(t.name)
    if ty is None:
        raise TypingError(f"unbound variable {t.name!r}")
    return Derivation.make("Var", t, ty, inst.bottom(), ())


def _const(ctx, t, mode, d, inst, kids):
    return Derivation.make("Const", t, _NAT if t.__class__ is NatLit else _BOOL, inst.bottom(), ())


def _lam(ctx, t, mode, d, inst, kids):
    if mode is Mode.PAPER:
        _reject_latents(t.annot)
    bd = kids[0] if kids else RULES[t.body.__class__](ctx.extend(t.name, t.annot), t.body, mode, d, inst, ())
    if mode is Mode.PAPER:
        return Derivation.make("Lam", t, Arrow.make(t.annot, bd.type, None), bd.bound, (bd,))
    return Derivation.make("Lam", t, Arrow.make(t.annot, bd.type, bd.bound), inst.bottom(), (bd,))


def _app(ctx, t, mode, d, inst, kids):
    fd = kids[0] if kids else RULES[t.fn.__class__](ctx, t.fn, mode, d, inst, ())
    fty = fd.type
    if not isinstance(fty, Arrow):
        raise TypingError(f"cannot apply a term of type {pretty_type(fty)}: not an arrow")
    ad = kids[1] if kids else RULES[t.arg.__class__](ctx, t.arg, mode, d, inst, ())
    if not is_subtype(ad.type, fty.dom, mode, inst):
        raise TypingError(f"argument type {pretty_type(ad.type)} does not match domain {pretty_type(fty.dom)}")
    bound = inst.combine(inst.combine(fd.bound, ad.bound), d.app)
    if mode is Mode.SOUND:
        bound = inst.combine(bound, latent_of(fty, inst))
    return Derivation.make("App", t, fty.cod, bound, (fd, ad))


def _pair(ctx, t, mode, d, inst, kids):
    ad = kids[0] if kids else RULES[t.fst.__class__](ctx, t.fst, mode, d, inst, ())
    bd = kids[1] if kids else RULES[t.snd.__class__](ctx, t.snd, mode, d, inst, ())
    return Derivation.make("Pair", t, Prod.make(ad.type, bd.type), inst.combine(ad.bound, bd.bound), (ad, bd))


def _proj(ctx, t, mode, d, inst, kids):
    ad = kids[0] if kids else RULES[t.arg.__class__](ctx, t.arg, mode, d, inst, ())
    ty = ad.type
    if not isinstance(ty, Prod):
        raise TypingError(f"{KEYWORD_OF[t.__class__]} of a non-pair type {pretty_type(ty)}")
    part = ty.left if t.__class__ is Fst else ty.right
    return Derivation.make(t.__class__.__name__, t, part, inst.combine(ad.bound, d.proj), (ad,))


def _if(ctx, t, mode, d, inst, kids):
    cd = kids[0] if kids else RULES[t.cond.__class__](ctx, t.cond, mode, d, inst, ())
    if not isinstance(cd.type, Bool):
        raise TypingError(f"condition has type {pretty_type(cd.type)}, expected Bool")
    td = kids[1] if kids else RULES[t.then.__class__](ctx, t.then, mode, d, inst, ())
    ed = kids[2] if kids else RULES[t.other.__class__](ctx, t.other, mode, d, inst, ())
    ty = type_lub(td.type, ed.type, mode, inst)
    bound = inst.combine(inst.combine(cd.bound, inst.join(td.bound, ed.bound)), d.iff)
    return Derivation.make("If", t, ty, bound, (cd, td, ed))


def _box(ctx, t, mode, d, inst, kids):
    inst._own(t.grade)
    bd = kids[0] if kids else RULES[t.body.__class__](ctx, t.body, mode, d, inst, ())
    if not inst.leq(bd.bound, t.grade):
        raise GradeExceeded(bd.bound, t.grade)
    return Derivation.make("Box", t, Box.make(t.grade, bd.type), bd.bound, (bd,))


def _unbox(ctx, t, mode, d, inst, kids):
    ad = kids[0] if kids else RULES[t.arg.__class__](ctx, t.arg, mode, d, inst, ())
    if not isinstance(ad.type, Box):
        raise TypingError(f"unbox of a non-box type {pretty_type(ad.type)}")
    return Derivation.make("Unbox", t, ad.type.body, inst.combine(ad.bound, d.unbox), (ad,))


def _untypable(ctx, t, mode, d, inst, kids):
    raise TypingError(f"cannot type {pretty(t)}")


RULES = RuleTable({Var: _var, TT: _const, FF: _const, NatLit: _const, Lam: _lam, App: _app, Pair: _pair,
                   Fst: _proj, Snd: _proj, If: _if, BoxT: _box, Unbox: _unbox}, _untypable)


def derive_or_untyped(
    ctx: Context,
    t: Term,
    mode: Mode,
    d: DeltaProfile,
    inst: LatticeInstance,
    kids: tuple[Derivation, ...] = (),
) -> Derivation:
    """t's derivation from its kids', or an untyped node (type and bound
    None) where t does not typecheck or a kid is untyped. Term builders keep
    such nodes: a production can fall back on them, and under a faulty
    typechecker the term still reaches a check that derives it whole."""
    for k in kids:
        if k.type is None:
            return Derivation("untyped", t, None, None)
    try:
        return derive(ctx, t, mode, d, inst, kids)
    except TypingError:
        return Derivation("untyped", t, None, None)
