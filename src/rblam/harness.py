"""Random well-typed term generation and the executable metatheory suites.

Each property suite runs seeded, independent trials: identical configs
produce identical reports at any worker count. Generation is type-directed
(pick a rule whose conclusion matches the goal, generate the premises), so
every generated term typechecks in its generation mode by construction.
The generator builds each term's derivation as it goes, applying
``typecheck.derive`` to the premises it already holds, so no subterm is
typed twice. The suites read the type and bound of each generated term and
value from that derivation; they synthesize only terms they did not
generate (an evaluation result, a substituted term) and the budget
verdicts. The minimizer derives its input once; each shrink candidate
then re-derives only the replaced node's spine, the path from it to the
root, and reuses the derivations of the subterms off that path. It tries
each distinct candidate term once per call, telling terms apart by their
own `==` and kept hash. A canonical inhabitant is typed once per trial
and once per minimize call: the minimizer runs on a generator state and
shares its inhabitant memo.

Each suite is a check: straight-line code that raises a violation at the
first relation it sees broken. Its ``PROPERTIES`` entry returns ``Failure |
None``: the violation's failure, its term minimized when the violation
carries a predicate. An entry never raises a violation, and is timed as one
operation (perfbench's ``trial_ops``), minimization included.

The suites of a run go trial-major, every suite on trial t before trial
t+1, and share generations within one trial only: a suite that generates
with another's arguments reads its derivation. Outside a run, each
generation is built afresh.

With ``allow_fn_var_reuse`` off, the generator stays inside the fragment
where the paper-mode rules are observed cost-sound: each variable whose
type mentions an arrow occurs at most once, and application heads are only
variables or lambda literals. With it on, repeated use of function-typed
variables is allowed, which is exactly the territory where paper-mode
bounds undercount.
"""

from __future__ import annotations

import json
import os
import random
from bisect import bisect
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Callable

from rblam.interp import EvalError, FuelExhausted, evaluate
from rblam.lattice import LatticeInstance
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
    children,
    free_vars,
    pretty,
    pretty_type,
    rebuild,
    rename_binders,
    substitute,
    term_size,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    Derivation,
    GradeExceeded,
    Mode,
    TypingError,
    check_deltas,
    derive,
    derive_or_untyped,
    is_subtype,
    latent_of,
    synthesize,
)


DEFAULT_TYPE_WEIGHTS: dict[str, float] = {
    "bool": 4.0,
    "nat": 1.0,
    "prod": 2.0,
    "arrow": 2.0,
    "box": 1.5,
}

MAX_REPORTED_FAILURES = 1000


@dataclass(frozen=True)
class GenConfig:
    lattice: LatticeInstance
    seed: int = 0
    count: int = 1000
    max_depth: int = 5
    mode: Mode = Mode.SOUND
    allow_fn_var_reuse: bool = False
    deltas: DeltaProfile | None = None  # None: the lattice's default profile

    def __post_init__(self):
        if self.deltas is None:
            object.__setattr__(self, "deltas", DeltaProfile.default(self.lattice))
        check_deltas(self.deltas, self.lattice)

    def resolved_deltas(self) -> DeltaProfile:
        return self.deltas


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed * 2654435761 + trial * 40503 + 12345) % 2**63)


def type_contains_arrow(ty: Type) -> bool:
    match ty:
        case Arrow():
            return True
        case Prod(left, right):
            return type_contains_arrow(left) or type_contains_arrow(right)
        case Box(_, body):
            return type_contains_arrow(body)
        case _:
            return False


def minimal_inhabitant(goal: Type) -> Term:
    """Canonical cheapest closed term of a type; synthesizes bound bottom."""
    match goal:
        case Bool():
            return TT()
        case Nat():
            return NatLit(0)
        case Prod(left, right):
            return Pair(minimal_inhabitant(left), minimal_inhabitant(right))
        case Arrow(dom, cod, _):
            return Lam("u", dom, minimal_inhabitant(cod))
        case Box(grade, body):
            return BoxT(grade, minimal_inhabitant(body))
    raise TypeError(f"no inhabitant rule for {goal!r}")


def concretize(
    ty: Type,
    inst: LatticeInstance,
    rng: random.Random | None = None,
    mode: Mode = Mode.SOUND,
) -> Type:
    """Replace wildcard (absent) arrow latents with concrete elements:
    bottom by default, sampled when an rng is supplied. Paper-mode types
    carry no latents, so there the identity."""
    if mode is Mode.PAPER:
        return ty
    match ty:
        case Arrow(dom, cod, latent):
            if latent is None:
                latent = inst.random_element(rng) if rng is not None else inst.bottom()
            return Arrow(concretize(dom, inst, rng), concretize(cod, inst, rng), latent)
        case Prod(left, right):
            return Prod(concretize(left, inst, rng), concretize(right, inst, rng))
        case Box(grade, body):
            return Box(grade, concretize(body, inst, rng))
        case _:
            return ty


def goal_matches(syn: Type, goal: Type, inst: LatticeInstance, *, exact: bool = False) -> bool:
    """Does a synthesized type fit a generation goal? Absent latents in the
    goal are wildcards; otherwise grade subsumption applies covariantly. An
    arrow's domain fits exactly (`exact`): equal box grades and latents."""
    match (syn, goal):
        case (Bool(), Bool()) | (Nat(), Nat()):
            return True
        case (Prod(l1, r1), Prod(l2, r2)):
            return goal_matches(l1, l2, inst, exact=exact) and goal_matches(r1, r2, inst, exact=exact)
        case (Box(g1, b1), Box(g2, b2)):
            return (g1 == g2 if exact else inst.leq(g1, g2)) and goal_matches(b1, b2, inst, exact=exact)
        case (Arrow(d1, c1, l1), Arrow(d2, c2, l2)):
            if not goal_matches(d1, d2, inst, exact=True) or not goal_matches(c1, c2, inst, exact=exact):
                return False
            if l2 is None:
                return True
            return l1 == l2 if exact else inst.leq(latent_of(syn, inst), l2)
    return False


_Table = tuple[tuple[str, ...], list[float]]


def _table(weighted) -> _Table:
    """The names of (name, weight) pairs and their cumulative weights."""
    names, weights = zip(*weighted)
    return names, list(accumulate(weights))


def _draw(rng: random.Random, table: _Table) -> str:
    """A name picked with probability proportional to its weight. The draw is
    rng.choices(names, weights)[0]'s: the same one rng.random() call and the
    same pick."""
    names, cum = table
    return names[bisect(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)]


_TYPES = _table(DEFAULT_TYPE_WEIGHTS.items())


def sample_type(rng: random.Random, depth: int, inst: LatticeInstance) -> Type:
    if depth <= 0:
        return Bool() if rng.random() < 0.75 else Nat()
    picked = _draw(rng, _TYPES)
    if picked == "bool":
        return Bool()
    if picked == "nat":
        return Nat()
    if picked == "prod":
        return Prod(sample_type(rng, depth - 1, inst), sample_type(rng, depth - 1, inst))
    if picked == "arrow":
        return Arrow(sample_type(rng, depth - 1, inst), sample_type(rng, depth - 1, inst), None)
    return Box(inst.random_element(rng), sample_type(rng, depth - 1, inst))


# _gen's weighted productions, one table for each combination of a usable
# variable, a usable head and the goal's shape
_SHAPE_PRODUCTIONS = {
    "other": (),
    "prod": (("pair", 3.0),),
    "square": (("pair", 3.0), ("hunt", 2.5)),
    "arrow": (("lam", 3.0),),
    "box": (("boxed", 3.0),),
}
_PRODUCTIONS: dict[tuple[bool, bool, str], _Table] = {
    (var, head, shape): _table(
        ((("var", 2.0),) if var else ())
        + ((("headvar", 2.5),) if head else ())
        + (("leaf", 1.5), ("if", 1.2), ("redex", 1.6), ("proj", 0.5), ("unbox", 0.4))
        + productions
    )
    for var in (False, True)
    for head in (False, True)
    for shape, productions in _SHAPE_PRODUCTIONS.items()
}


class _GenState:
    def __init__(self, cfg: GenConfig, rng: random.Random | None):
        self.cfg = cfg
        self.rng = rng
        self.inst = cfg.lattice
        self.deltas = cfg.deltas
        self.uses: dict[str, int] = {}
        self.fresh = 0
        self.inhabitants: dict[tuple[Type, bool], Derivation] = {}

    def fresh_name(self, base: str = "x") -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def derive(self, ctx: Context, term: Term, *kids: Derivation) -> Derivation:
        """term's derivation from its kids', or an untyped node (type None)
        where term does not typecheck."""
        return derive_or_untyped(ctx, term, self.cfg.mode, self.deltas, self.inst, kids)

    def inhabitant(self, goal: Type, concrete: bool = True) -> Derivation:
        """The derivation of goal's canonical inhabitant, of goal's
        concretization when concrete. Each is derived once per state: the
        inhabitant holds no variable, so its derivation is the same in every
        context."""
        key = (goal, concrete)
        d = self.inhabitants.get(key)
        if d is None:
            ty = concretize(goal, self.inst, mode=self.cfg.mode) if concrete else goal
            d = self.inhabitants[key] = self.derive(Context(), minimal_inhabitant(ty))
        return d

    def var_usable(self, name: str, ty: Type) -> bool:
        if self.cfg.allow_fn_var_reuse or not type_contains_arrow(ty):
            return True
        return self.uses.get(name, 0) == 0

    def note_use(self, name: str, ty: Type):
        if type_contains_arrow(ty):
            self.uses[name] = self.uses.get(name, 0) + 1


def _gen(st: _GenState, ctx: Context, goal: Type, depth: int) -> Derivation:
    rng = st.rng
    inst = st.inst
    if depth <= 0:
        return st.inhabitant(goal)

    eligible = [
        (name, ty)
        for name, ty in ctx.bindings
        if goal_matches(ty, goal, inst) and st.var_usable(name, ty)
    ]
    heads = [
        (name, ty)
        for name, ty in ctx.bindings
        if isinstance(ty, Arrow)
        and goal_matches(ty.cod, goal, inst)
        and st.var_usable(name, ty)
    ]
    match goal:
        case Prod(left, right):
            # hunt the multi-use gap on square products: apply one bound
            # function twice
            shape = "square" if st.cfg.allow_fn_var_reuse and left == right else "prod"
        case Arrow(_, _, _):
            shape = "arrow"
        case Box(_, _):
            shape = "box"
        case _:
            shape = "other"
    table = _PRODUCTIONS[bool(eligible), bool(heads), shape]
    for _ in range(6):
        deriv = _try_production(st, ctx, goal, depth, _draw(rng, table), eligible, heads)
        if deriv is not None:
            return deriv
    return st.inhabitant(goal)


def _try_production(
    st: _GenState,
    ctx: Context,
    goal: Type,
    depth: int,
    production: str,
    eligible: list[tuple[str, Type]],
    heads: list[tuple[str, Type]],
) -> Derivation | None:
    rng = st.rng
    inst = st.inst

    if production == "leaf":
        match goal:
            case Bool():
                return st.derive(ctx, TT() if rng.random() < 0.5 else FF())
            case Nat():
                return st.derive(ctx, NatLit(rng.randint(0, 3)))
        return None

    if production == "var":
        name, ty = rng.choice(eligible)
        st.note_use(name, ty)
        return st.derive(ctx, Var(name))

    if production == "headvar":
        name, ty = rng.choice(heads)
        assert isinstance(ty, Arrow)
        st.note_use(name, ty)
        arg = _gen(st, ctx, ty.dom, depth - 1)
        head = st.derive(ctx, Var(name))
        app = st.derive(ctx, App(head.term, arg.term), head, arg)
        if app.type is None:
            # generated argument subsumes nested grades the invariant
            # paper-mode arrow comparison rejects; fall back to the exact
            # domain's canonical inhabitant
            arg = st.inhabitant(ty.dom, concrete=False)
            app = st.derive(ctx, App(head.term, arg.term), head, arg)
        return app

    if production == "if":
        concrete_goal = concretize(goal, inst, rng, st.cfg.mode)
        cond = _gen(st, ctx, Bool(), depth - 1)
        then = _gen(st, ctx, concrete_goal, depth - 1)
        other = _gen(st, ctx, concrete_goal, depth - 1)
        branching = st.derive(ctx, If(cond.term, then.term, other.term), cond, then, other)
        if branching.type is None and then.type is not None:
            # branches synthesized unifiable-only-up-to-subsumption types
            # (paper-mode arrows are invariant); duplicate a branch shape
            other = st.inhabitant(then.type, concrete=False)
            branching = st.derive(ctx, If(cond.term, then.term, other.term), cond, then, other)
        return branching if branching.type is not None else None

    if production == "redex":
        arg_ty = sample_type(rng, min(depth - 1, 2), inst)
        arg = _gen(st, ctx, arg_ty, depth - 1)
        if arg.type is None:
            return None
        x = st.fresh_name()
        body = _gen(st, ctx.extend(x, arg.type), goal, depth - 1)
        fn = st.derive(ctx, Lam(x, arg.type, body.term), body)
        return st.derive(ctx, App(fn.term, arg.term), fn, arg)

    if production == "proj":
        other_ty = sample_type(rng, min(depth - 1, 1), inst)
        left = rng.random() < 0.5
        pair_goal = Prod(goal, other_ty) if left else Prod(other_ty, goal)
        inner = _gen(st, ctx, pair_goal, depth - 1)
        return st.derive(ctx, Fst(inner.term) if left else Snd(inner.term), inner)

    if production == "unbox":
        grade = inst.random_element(rng)
        inner = _gen(st, ctx, Box(grade, goal), depth - 1)
        return st.derive(ctx, Unbox(inner.term), inner)

    if production == "pair":
        assert isinstance(goal, Prod)
        a = _gen(st, ctx, goal.left, depth - 1)
        b = _gen(st, ctx, goal.right, depth - 1)
        return st.derive(ctx, Pair(a.term, b.term), a, b)

    if production == "lam":
        assert isinstance(goal, Arrow)
        dom = concretize(goal.dom, inst, rng, st.cfg.mode)
        x = st.fresh_name()
        inner = ctx.extend(x, dom)
        body = _gen(st, inner, goal.cod, depth - 1)
        if goal.latent is not None and (body.type is None or not inst.leq(body.bound, goal.latent)):
            body = st.inhabitant(goal.cod)
        return st.derive(ctx, Lam(x, dom, body.term), body)

    if production == "hunt":
        # (lam f . (f a1, f a2)) (lam x : Bool . if x then b1 else b2):
        # a shared function with a branching body, applied twice
        assert isinstance(goal, Prod)
        x = st.fresh_name()
        in_arg = ctx.extend(x, Bool())

        def branch() -> Derivation:
            if isinstance(goal.left, Bool) and rng.random() < 0.5:
                return st.derive(in_arg, TT() if rng.random() < 0.5 else FF())
            return _gen(st, in_arg, goal.left, depth - 1)

        b1 = branch()
        b2 = branch()
        xd = st.derive(in_arg, Var(x))
        cases = st.derive(in_arg, If(xd.term, b1.term, b2.term), xd, b1, b2)
        arg = st.derive(ctx, Lam(x, Bool(), cases.term), cases)
        if arg.type is None:
            return None
        f = st.fresh_name()
        inner = ctx.extend(f, arg.type)
        a1 = _gen(st, inner, Bool(), depth - 1)
        a2 = _gen(st, inner, Bool(), depth - 1)
        fd = st.derive(inner, Var(f))
        app1 = st.derive(inner, App(fd.term, a1.term), fd, a1)
        app2 = st.derive(inner, App(fd.term, a2.term), fd, a2)
        body = st.derive(inner, Pair(app1.term, app2.term), app1, app2)
        fn = st.derive(ctx, Lam(f, arg.type, body.term), body)
        return st.derive(ctx, App(fn.term, arg.term), fn, arg)

    if production == "boxed":
        assert isinstance(goal, Box)
        body = _gen(st, ctx, goal.body, depth - 1)
        if body.type is None or not inst.leq(body.bound, goal.grade):
            body = st.inhabitant(goal.body)
        return st.derive(ctx, BoxT(goal.grade, body.term), body)

    return None


_generations: dict[tuple, Derivation] | None = None  # the running trial's, by _generate's arguments


def _generate(
    cfg: GenConfig,
    ctx: Context = Context(),
    goal: Type | None = None,
    trial: int = 0,
) -> Derivation:
    """The derivation of gen_typed_term's term, built as it was generated.
    While _run_range runs a trial, it is built once per trial for the same
    arguments."""
    key = (cfg, ctx, goal, trial)
    memo = {} if _generations is None else _generations
    if key not in memo:
        rng = _trial_rng(cfg.seed, trial)
        if goal is None:
            if cfg.allow_fn_var_reuse and rng.random() < 0.3:
                # steer the hunter toward square products, where
                # shared-function double application lives
                base = Bool() if rng.random() < 0.75 else Nat()
                goal = Prod(base, base)
            else:
                goal = sample_type(rng, min(cfg.max_depth, 3), cfg.lattice)
        memo[key] = _gen(_GenState(cfg, rng), ctx, goal, cfg.max_depth)
    return memo[key]


def gen_typed_term(
    cfg: GenConfig,
    ctx: Context = Context(),
    goal: Type | None = None,
    trial: int = 0,
) -> Term:
    """Generate one term that synthesizes to the goal (up to grade
    subsumption) in cfg.mode. Deterministic in (cfg, ctx, goal, trial)."""
    return _generate(cfg, ctx, goal, trial).term


def gen_value(cfg: GenConfig, goal: Type, rng: random.Random, depth: int) -> Derivation:
    """Generate the derivation of a closed value of the goal type (lambda
    bodies may be arbitrary generated terms). Like a generated term's, it is
    untyped where the value does not typecheck."""
    inst = cfg.lattice
    st = _GenState(cfg, rng)
    match goal:
        case Bool():
            return st.derive(Context(), TT() if rng.random() < 0.5 else FF())
        case Nat():
            return st.derive(Context(), NatLit(rng.randint(0, 3)))
        case Prod(left, right):
            a = gen_value(cfg, left, rng, depth - 1)
            b = gen_value(cfg, right, rng, depth - 1)
            return st.derive(Context(), Pair(a.term, b.term), a, b)
        case Arrow(dom, cod, latent):
            dom = concretize(dom, inst, rng, cfg.mode)
            x = st.fresh_name("a")
            body = _gen(st, Context(((x, dom),)), cod, max(depth - 1, 1))
            candidate = st.derive(Context(), Lam(x, dom, body.term), body)
        case Box(grade, body_ty):
            body = gen_value(cfg, body_ty, rng, depth - 1)
            candidate = st.derive(Context(), BoxT(grade, body.term), body)
        case _:
            raise TypeError(f"no value rule for {goal!r}")
    if candidate.type is not None and goal_matches(candidate.type, goal, inst):
        return candidate
    return st.inhabitant(goal)


# ---------------------------------------------------------------------------
# Minimizer


def minimize(term: Term, failing_property: Callable[[Derivation], bool], cfg: GenConfig) -> Term:
    """Greedy shrink: replace subterms with canonical minimal inhabitants of
    their type or hoist strictly smaller same-type subterms, keeping each
    move only while the property still fails. Returns a fixpoint.

    The property receives the derivation of each candidate, a closed term.
    The input is derived once; a candidate re-derives only the replaced
    node's spine, the path from it to the root, and reuses the derivation of
    every subterm off that path, so an accepted candidate's derivation starts
    the next pass. A term that does not typecheck as a closed term is
    returned unchanged; every harness caller's does.

    Each distinct candidate term is tried once per call. A candidate is
    strictly smaller than the term it shrinks, so an accepted term never
    comes up again, and a term tried before was rejected: it did not
    typecheck, or the property returned False or raised. A candidate's term
    is rebuilt along its spine (`_Preorder.spine`) and looked up among the
    terms tried before its spine is derived; off the spine, each subterm
    keeps its hash, so the lookup costs work along the spine only. Nothing
    outlives the call."""
    st = _GenState(cfg, None)
    try:
        current = derive(Context(), term, cfg.mode, st.deltas, st.inst)
    except TypingError:
        return term
    tried: set[Term] = set()
    mini_sizes: dict[Type, int] = {}  # each minimal inhabitant's size, by its type
    while True:
        table = _Preorder(current)
        for i, cand in _candidates(table, st, mini_sizes):
            spine = table.spine(i, cand.term)
            if spine[-1] in tried:
                continue
            tried.add(spine[-1])
            try:
                replaced = _respine(table, i, spine, cand, st)
            except TypingError:
                continue
            try:
                if failing_property(replaced):
                    current = replaced
                    break
            except Exception:
                continue
        else:
            return current.term


class _Preorder:
    """One minimize pass's table of the root's subterm positions in
    preorder, built with an explicit stack. Position i holds its derivation,
    the context its term is typed in, its parent position (-1 at the root)
    and its index among the parent's kids. Its subterms fill positions i
    through i + sizes[i] - 1."""

    def __init__(self, root: Derivation):
        self.derivs: list[Derivation] = []
        self.ctxs: list[Context] = []
        self.parents: list[int] = []
        self.slots: list[int] = []
        stack = [(root, Context(), -1, 0)]
        while stack:
            d, ctx, parent, slot = stack.pop()
            i = len(self.derivs)
            self.derivs.append(d)
            self.ctxs.append(ctx)
            self.parents.append(parent)
            self.slots.append(slot)
            if isinstance(d.term, Lam):
                ctx = ctx.extend(d.term.name, d.term.annot)
            for k in range(len(d.children) - 1, -1, -1):
                stack.append((d.children[k], ctx, i, k))
        self.sizes = [1] * len(self.derivs)
        for i in range(len(self.derivs) - 1, 0, -1):  # a position's kids follow it
            self.sizes[self.parents[i]] += self.sizes[i]

    def spine(self, i: int, term: Term) -> list[Term]:
        """term, then each ancestor of position i rebuilt over the term
        below it, up to the root's: the last is the root's term with the
        subterm at i replaced by term."""
        spine = [term]
        while i:
            k, i = self.slots[i], self.parents[i]
            above = self.derivs[i].term
            kids = children(above)
            term = rebuild(above, kids[:k] + (term,) + kids[k + 1:])
            spine.append(term)
        return spine


def _candidates(table: _Preorder, st: _GenState, mini_sizes: dict[Type, int]):
    """(position, derivation) for every shrink move on the table's root,
    lazily and in the minimizer's order. At each subterm position u in
    preorder: u's type's minimal inhabitant when it is smaller than u, then
    every strictly smaller subterm of u, the positions after u's in the
    table, whose type fits u's. A hoisted subterm keeps its derivation
    unless a binder it is hoisted past captures one of its free variables;
    then it is derived again in u's context, where that name is unbound or
    means an outer binding.

    Each minimal inhabitant comes from st's memo, its size from
    `mini_sizes`, and it is skipped where it does not typecheck. A term met
    again at the same position is the same move, and whether it fits depends
    only on the term and u's context, so it is not offered again there.
    Moves at different positions may still build one term; minimize skips
    the repeats."""
    mode = st.cfg.mode
    for i, u in enumerate(table.derivs):
        if table.sizes[i] == 1:
            continue  # a leaf: no term is smaller
        offered = set()  # the terms met at u
        mini = st.inhabitant(u.type, concrete=False)
        if mini.type is not None:
            size = mini_sizes.get(u.type)
            if size is None:
                size = mini_sizes[u.type] = term_size(mini.term)
            if size < table.sizes[i]:
                offered.add(mini.term)
                yield i, mini
        ctx = table.ctxs[i]
        for j in range(i + 1, i + table.sizes[i]):
            s = table.derivs[j]
            if s.term in offered:
                continue
            offered.add(s.term)
            between = table.ctxs[j].bindings[len(ctx.bindings):]
            if between:
                fv = free_vars(s.term)
                if not fv.isdisjoint(name for name, _ in between):
                    if any(ctx.lookup(name) is None for name in fv):
                        continue
                    try:
                        s = derive(ctx, s.term, mode, st.deltas, st.inst)
                    except TypingError:
                        continue
            if is_subtype(s.type, u.type, mode, st.inst):
                yield i, s


def _respine(table: _Preorder, i: int, spine: list[Term], new: Derivation, st: _GenState) -> Derivation:
    """The derivation of spine[-1], the table's root term with the subterm at
    position i replaced by new's, where new is derived in the context at i
    and spine is `table.spine(i, new.term)`. Only the spine's nodes above i
    are derived again, each from its kids' derivations. Raises TypingError
    where the result does not typecheck."""
    for term in spine[1:]:
        k, i = table.slots[i], table.parents[i]
        kids = table.derivs[i].children
        new = derive(table.ctxs[i], term, st.cfg.mode, st.deltas, st.inst, kids[:k] + (new,) + kids[k + 1:])
    return new


# ---------------------------------------------------------------------------
# Property suites


@dataclass
class Failure:
    trial: int
    term: str
    relation: str
    observed: dict[str, str]
    minimized: str
    minimized_observed: dict[str, str]


@dataclass
class PropertyReport:
    name: str
    trials: int
    failure_count: int
    failures: list[Failure] = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "failure_count": self.failure_count,
            "truncated": self.truncated,
            "failures": [asdict(f) for f in self.failures],
        }

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.failure_count} failures)"
        return f"{self.name}: {status} over {self.trials} trials"


def _observe_cost(cfg: GenConfig, term: Term) -> dict[str, str]:
    inst = cfg.lattice
    out: dict[str, str] = {}
    try:
        j = synthesize(Context(), term, inst.large_budget(), cfg.mode, cfg.deltas)
        out["bound"] = inst.format(j.bound)
    except TypingError as exc:
        out["type_error"] = str(exc)
        return out
    try:
        r = evaluate(term, cfg.deltas)
        out["cost"] = inst.format(r.cost)
    except EvalError as exc:
        out["eval_error"] = str(exc)
    return out


def _cost_soundness_violation(cfg: GenConfig) -> Callable[[Derivation], bool]:
    inst = cfg.lattice

    def violated(d: Derivation) -> bool:
        try:
            r = evaluate(d.term, cfg.deltas)
        except EvalError:
            return False
        return not inst.leq(r.cost, d.bound)

    return violated


@dataclass(eq=False)
class _Violation(Exception):
    """The first relation a check sees broken, on term. With a predicate, the
    minimizer shrinks term while the predicate still holds."""

    term: Term
    relation: str
    observed: dict[str, str]
    predicate: Callable[[Derivation], bool] | None = None


@contextmanager
def _guard(term: Term, relation: str, key: str):
    """Raise a TypingError or EvalError of the block as a violation of
    relation on term, with the error's message observed under key. Running
    out of fuel breaks no relation of the block: it is a violation of
    "evaluation within fuel" instead."""
    try:
        yield
    except (TypingError, EvalError) as exc:
        broken = "evaluation within fuel" if isinstance(exc, FuelExhausted) else relation
        raise _Violation(term, broken, {key: str(exc)})


def _property(check: Callable[[GenConfig, int], None]) -> Callable[[GenConfig, int], Failure | None]:
    """check as a PROPERTIES entry: None when the trial passes, else the
    Failure of the violation check raises, minimized when it carries a
    predicate. The entry returns a violation and never raises it."""

    def entry(cfg: GenConfig, trial: int) -> Failure | None:
        try:
            check(cfg, trial)
            return None
        except _Violation as v:
            minimized = v.term if v.predicate is None else minimize(v.term, v.predicate, cfg)
            return Failure(trial, pretty(v.term), v.relation, v.observed, pretty(minimized),
                           _observe_cost(cfg, minimized))

    return entry


def _typed(cfg: GenConfig, d: Derivation, ctx: Context = Context()) -> Derivation:
    """d when the generator typed its root. An untyped root, left by a faulty
    typechecker or lattice, is derived again whole, which raises the
    TypingError that synthesize gives for its term."""
    if d.type is not None:
        return d
    return derive(ctx, d.term, cfg.mode, cfg.deltas, cfg.lattice)


def _check_cost_soundness(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    budget = inst.large_budget()
    j = _generate(cfg, trial=trial)
    with _guard(j.term, "generated term typechecks", "type_error"):
        j = _typed(cfg, j)
    with _guard(j.term, "typed terms evaluate", "eval_error"):
        r = evaluate(j.term, cfg.deltas)
    if not inst.leq(r.cost, j.bound) or not inst.leq(j.bound, budget):
        raise _Violation(
            j.term, "cost <= bound <= budget",
            {"cost": inst.format(r.cost), "bound": inst.format(j.bound), "budget": inst.format(budget)},
            _cost_soundness_violation(cfg),
        )


def _check_determinism(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    term = gen_typed_term(cfg, trial=trial)
    with _guard(term, "typed terms evaluate", "eval_error"):
        r1 = evaluate(term, cfg.deltas)
        r2 = evaluate(term, cfg.deltas)
        r3 = evaluate(rename_binders(term), cfg.deltas)
    if r1 != r2:
        raise _Violation(term, "evaluation is deterministic",
                         {"cost1": inst.format(r1.cost), "cost2": inst.format(r2.cost)})
    if r1.cost != r3.cost or not alpha_eq(r1.value, r3.value):
        raise _Violation(term, "evaluation is alpha-invariant",
                         {"cost": inst.format(r1.cost), "renamed_cost": inst.format(r3.cost)})


def _check_preservation(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    j = _generate(cfg, trial=trial)
    term = j.term
    with _guard(term, "typed terms evaluate and retype", "error"):
        j = _typed(cfg, j)
        r = evaluate(term, cfg.deltas)
        j2 = synthesize(Context(), r.value, inst.large_budget(), cfg.mode, cfg.deltas)
    if not is_subtype(j2.type, j.type, cfg.mode, inst):
        raise _Violation(term, "result type preserved up to grade subsumption",
                         {"type": pretty_type(j.type), "result_type": pretty_type(j2.type)})
    if not inst.leq(j2.bound, j.bound):
        raise _Violation(term, "result bound below original",
                         {"bound": inst.format(j.bound), "result_bound": inst.format(j2.bound)})


def _check_budget_weakening(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    rng = _trial_rng(cfg.seed ^ 0x5EED, trial)
    term = gen_typed_term(cfg, trial=trial)
    r1 = inst.random_element(rng)
    r2 = inst.join(r1, inst.random_element(rng))
    with _guard(term, "generated term typechecks", "type_error"):
        j1 = synthesize(Context(), term, r1, cfg.mode, cfg.deltas)
        j2 = synthesize(Context(), term, r2, cfg.mode, cfg.deltas)
    if j1.bound != j2.bound:
        raise _Violation(
            term, "bound independent of budget",
            {"budget1": inst.format(r1), "bound1": inst.format(j1.bound),
             "budget2": inst.format(r2), "bound2": inst.format(j2.bound)},
        )
    if j1.within_budget and not j2.within_budget:
        raise _Violation(term, "verdict monotone in the budget",
                         {"budget1": inst.format(r1), "budget2": inst.format(r2)})


def _check_box_laws(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    rng = _trial_rng(cfg.seed ^ 0xB0C5, trial)
    body_ty = sample_type(rng, 1, inst)
    grade = inst.random_element(rng)
    goal = Box(grade, body_ty)
    j = _generate(cfg, goal=goal, trial=trial)
    term = j.term

    def rule(t: Term, *kids: Derivation) -> Derivation:
        return derive(Context(), t, cfg.mode, cfg.deltas, inst, kids)

    with _guard(term, "box term and its unboxing typecheck", "type_error"):
        j = _typed(cfg, j)
        ju = rule(Unbox(term), j)
    expected = inst.combine(j.bound, cfg.deltas.unbox)
    if ju.bound != expected or not isinstance(j.type, Box) or ju.type != j.type.body:
        raise _Violation(
            term, "counit: unbox typechecks at the body type, bound + delta_unbox",
            {"bound": inst.format(j.bound), "unbox_bound": inst.format(ju.bound),
             "expected": inst.format(expected)},
        )

    # grade monotone acceptance
    v = gen_value(cfg, goal, rng, 3)
    with _guard(v.term, "grade monotone acceptance", "error"):
        jv = _typed(cfg, v)
    wider = goal
    if isinstance(jv.type, Box):
        wider = Box(inst.join(jv.type.grade, inst.random_element(rng)), jv.type.body)
    if not isinstance(jv.type, Box) or not is_subtype(jv.type, wider, cfg.mode, inst):
        raise _Violation(
            v.term, "grade monotone acceptance",
            {"error": f"synthesized type {pretty_type(jv.type)} does not match expected {pretty_type(wider)}"},
        )

    # grade bounds evaluation cost of the boxed term
    if isinstance(term, BoxT):
        with _guard(term, "boxed body evaluates", "eval_error"):
            inner = evaluate(term.body, cfg.deltas)
        if not inst.leq(inner.cost, term.grade):
            raise _Violation(term, "boxed body cost within grade",
                             {"cost": inst.format(inner.cost), "grade": inst.format(term.grade)})

    # no unconditional promotion
    plain = _generate(cfg, goal=body_ty, trial=trial + 1)
    try:
        candidate = _typed(cfg, plain)
        if candidate.bound == inst.bottom():
            candidate = rule(If(TT(), candidate.term, candidate.term), rule(TT()), candidate, candidate)
    except TypingError:
        return
    if candidate.bound == inst.bottom():
        return  # degenerate delta profile: nothing to reject
    with _guard(candidate.term, "rejection is a GradeExceeded", "error"):
        try:
            rule(BoxT(inst.bottom(), candidate.term), candidate)
        except GradeExceeded:
            return
    raise _Violation(candidate.term, "no unconditional promotion",
                     {"bound": inst.format(candidate.bound), "grade": inst.format(inst.bottom())})


def _check_substitution(cfg: GenConfig, trial: int) -> None:
    inst = cfg.lattice
    rng = _trial_rng(cfg.seed ^ 0x5B57, trial)

    val_ty = sample_type(rng, 2, inst)
    v = gen_value(cfg, val_ty, rng, 3)
    with _guard(v.term, "generated value typechecks", "type_error"):
        annot = _typed(cfg, v).type

    goal = sample_type(rng, 2, inst)
    ctx = Context((("x", annot),))
    j_open = _generate(cfg, ctx, goal, trial)
    with _guard(j_open.term, "open term typechecks", "type_error"):
        j_open = _typed(cfg, j_open, ctx)

    closed = substitute(j_open.term, "x", v.term)
    with _guard(closed, "substituted term typechecks", "type_error"):
        j_closed = synthesize(Context(), closed, inst.large_budget(), cfg.mode, cfg.deltas)
    if j_closed.type != j_open.type or j_closed.bound != j_open.bound:
        raise _Violation(
            closed, "substitution preserves type and bound",
            {"type": pretty_type(j_open.type), "sub_type": pretty_type(j_closed.type),
             "bound": inst.format(j_open.bound), "sub_bound": inst.format(j_closed.bound)},
        )
    if cfg.mode is Mode.SOUND:
        with _guard(closed, "substituted term evaluates", "eval_error"):
            r = evaluate(closed, cfg.deltas)
        if not inst.leq(r.cost, j_open.bound):
            raise _Violation(closed, "substituted cost within open bound",
                             {"cost": inst.format(r.cost), "bound": inst.format(j_open.bound)})


PROPERTIES: dict[str, Callable[[GenConfig, int], Failure | None]] = {
    "cost_soundness": _property(_check_cost_soundness),
    "determinism": _property(_check_determinism),
    "preservation": _property(_check_preservation),
    "budget_weakening": _property(_check_budget_weakening),
    "box_laws": _property(_check_box_laws),
    "substitution": _property(_check_substitution),
}


def _run_range(cfg: GenConfig, names: list[str], start: int, stop: int) -> list[list[Failure]]:
    """Each name's failures in trials start..stop-1, run trial-major on one
    generation memo per trial. A trial that raises is recorded as a failure
    of its own, with no term, so one misbehaving trial does not end the run."""
    global _generations
    props = [PROPERTIES[name] for name in names]
    out: list[list[Failure]] = [[] for _ in names]
    try:
        for trial in range(start, stop):
            _generations = {}
            for prop, failures in zip(props, out):
                try:
                    failure = prop(cfg, trial)
                except Exception as exc:
                    failure = Failure(trial=trial, term="", relation="trial raises no exception",
                                      observed={"error": f"{type(exc).__name__}: {exc}"},
                                      minimized="", minimized_observed={})
                if failure is not None:
                    failures.append(failure)
    finally:
        _generations = None
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_property(cfg: GenConfig, name: str, workers: int = 1) -> PropertyReport:
    """Run one suite; see run_properties."""
    return run_properties(cfg, [name], workers)[0]


def run_properties(cfg: GenConfig, names: list[str] | None = None, workers: int = 1) -> list[PropertyReport]:
    """One report per listed suite (all when names is empty), duplicates
    included; every name is checked first. Suites run trial-major and share
    a generation within one trial only. Reports are identical at any worker
    count: trials are seeded independently and merged in trial order. One
    pool serves every suite, at most one worker per CPU this process may use."""
    names = names or list(PROPERTIES)
    for name in names:
        if name not in PROPERTIES:
            raise KeyError(f"unknown property {name!r}")
    workers = min(workers, _usable_cpus())
    if workers <= 1 or cfg.count < workers * 2:
        parts = [_run_range(cfg, names, 0, cfg.count)]
    else:
        bounds = [(cfg.count * i) // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [cfg] * workers, [names] * workers, bounds[:-1], bounds[1:]))
    reports = []
    for i, name in enumerate(names):
        failures = [f for part in parts for f in part[i]]  # parts are consecutive trial ranges
        reports.append(PropertyReport(name, cfg.count, len(failures), failures[:MAX_REPORTED_FAILURES],
                                      truncated=len(failures) > MAX_REPORTED_FAILURES))
    return reports


def report_json(reports: list[PropertyReport], cfg: GenConfig) -> str:
    """Stable machine-readable rendering: identical configs yield identical
    bytes regardless of timing or parallelism."""
    doc = {
        "config": {
            "lattice": cfg.lattice.name,
            "seed": cfg.seed,
            "count": cfg.count,
            "max_depth": cfg.max_depth,
            "mode": cfg.mode.value,
            "allow_fn_var_reuse": cfg.allow_fn_var_reuse,
        },
        "properties": [r.to_dict() for r in reports],
    }
    return json.dumps(doc, sort_keys=True, indent=1)
