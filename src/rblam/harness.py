"""Random well-typed term generation and the executable metatheory suites.

Each property suite runs seeded, independent trials: identical configs
produce identical reports at any worker count. Generation is type-directed
(pick a rule whose conclusion matches the goal, generate the premises), so
every generated term typechecks in its generation mode by construction.

With ``allow_fn_var_reuse`` off, the generator stays inside the fragment
where the paper-mode rules are observed cost-sound: each variable whose
type mentions an arrow occurs at most once, and application heads are only
variables or lambda literals. With it on, repeated use of function-typed
variables is allowed, which is exactly the territory where paper-mode
bounds undercount.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from rblam.interp import EvalError, evaluate
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
    Value,
    Var,
    alpha_eq_value,
    embed,
    free_vars,
    pretty,
    pretty_type,
    rename_binders,
    substitute,
    subterms,
    term_size,
    to_value,
)
from rblam.typecheck import (
    Context,
    DeltaProfile,
    GradeExceeded,
    Judgment,
    Mode,
    TypingError,
    check_expected,
    is_subtype,
    retype_value,
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
    type_weights: tuple[tuple[str, float], ...] | None = None
    allow_fn_var_reuse: bool = False
    deltas: DeltaProfile | None = None

    def resolved_deltas(self) -> DeltaProfile:
        return self.deltas if self.deltas is not None else DeltaProfile.default(self.lattice)

    def weights(self) -> dict[str, float]:
        if self.type_weights is None:
            return dict(DEFAULT_TYPE_WEIGHTS)
        return dict(self.type_weights)


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


def goal_matches(syn: Type, goal: Type, inst: LatticeInstance) -> bool:
    """Does a synthesized type fit a generation goal? Absent latents in the
    goal are wildcards; otherwise grade subsumption applies covariantly."""
    match (syn, goal):
        case (Bool(), Bool()) | (Nat(), Nat()):
            return True
        case (Prod(l1, r1), Prod(l2, r2)):
            return goal_matches(l1, l2, inst) and goal_matches(r1, r2, inst)
        case (Box(g1, b1), Box(g2, b2)):
            return inst.leq(g1, g2) and goal_matches(b1, b2, inst)
        case (Arrow(d1, c1, l1), Arrow(d2, c2, l2)):
            if not _dom_matches(d1, d2, inst) or not goal_matches(c1, c2, inst):
                return False
            if l2 is None:
                return True
            lat = l1 if l1 is not None else inst.bottom()
            return inst.leq(lat, l2)
    return False


def _dom_matches(a: Type, g: Type, inst: LatticeInstance) -> bool:
    match (a, g):
        case (Bool(), Bool()) | (Nat(), Nat()):
            return True
        case (Prod(l1, r1), Prod(l2, r2)):
            return _dom_matches(l1, l2, inst) and _dom_matches(r1, r2, inst)
        case (Box(g1, b1), Box(g2, b2)):
            return g1 == g2 and _dom_matches(b1, b2, inst)
        case (Arrow(d1, c1, l1), Arrow(d2, c2, l2)):
            return (
                _dom_matches(d1, d2, inst)
                and _dom_matches(c1, c2, inst)
                and (l2 is None or l1 == l2)
            )
    return False


def sample_type(rng: random.Random, depth: int, weights: dict[str, float], inst: LatticeInstance) -> Type:
    if depth <= 0:
        return Bool() if rng.random() < 0.75 else Nat()
    kinds = list(weights)
    picked = rng.choices(kinds, [weights[k] for k in kinds])[0]
    if picked == "bool":
        return Bool()
    if picked == "nat":
        return Nat()
    if picked == "prod":
        return Prod(sample_type(rng, depth - 1, weights, inst), sample_type(rng, depth - 1, weights, inst))
    if picked == "arrow":
        return Arrow(sample_type(rng, depth - 1, weights, inst), sample_type(rng, depth - 1, weights, inst), None)
    return Box(inst.random_element(rng), sample_type(rng, depth - 1, weights, inst))


class _GenState:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.inst = cfg.lattice
        self.deltas = cfg.resolved_deltas()
        self.budget = cfg.lattice.large_budget()
        self.uses: dict[str, int] = {}
        self.fresh = 0

    def fresh_name(self, base: str = "x") -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def synth(self, ctx: list[tuple[str, Type]], term: Term) -> Judgment:
        return synthesize(Context(tuple(ctx)), term, self.budget, self.cfg.mode, self.deltas)

    def var_usable(self, name: str, ty: Type) -> bool:
        if self.cfg.allow_fn_var_reuse or not type_contains_arrow(ty):
            return True
        return self.uses.get(name, 0) == 0

    def note_use(self, name: str, ty: Type):
        if type_contains_arrow(ty):
            self.uses[name] = self.uses.get(name, 0) + 1


def _gen(st: _GenState, ctx: list[tuple[str, Type]], goal: Type, depth: int) -> Term:
    rng = st.rng
    inst = st.inst
    if depth <= 0:
        return minimal_inhabitant(concretize(goal, inst, mode=st.cfg.mode))

    candidates: list[tuple[str, float]] = []
    eligible = [
        (name, ty)
        for name, ty in ctx
        if goal_matches(ty, goal, inst) and st.var_usable(name, ty)
    ]
    heads = [
        (name, ty)
        for name, ty in ctx
        if isinstance(ty, Arrow)
        and goal_matches(ty.cod, goal, inst)
        and st.var_usable(name, ty)
    ]
    if eligible:
        candidates.append(("var", 2.0))
    if heads:
        candidates.append(("headvar", 2.5))
    candidates.extend([("leaf", 1.5), ("if", 1.2), ("redex", 1.6), ("proj", 0.5), ("unbox", 0.4)])
    match goal:
        case Prod(left, right):
            candidates.append(("pair", 3.0))
            if st.cfg.allow_fn_var_reuse and left == right:
                # hunt the multi-use gap: apply one bound function twice
                candidates.append(("hunt", 2.5))
        case Arrow(_, _, _):
            candidates.append(("lam", 3.0))
        case Box(_, _):
            candidates.append(("boxed", 3.0))

    names = [c for c, _ in candidates]
    ws = [w for _, w in candidates]
    for _ in range(6):
        picked = rng.choices(names, ws)[0]
        term = _try_production(st, ctx, goal, depth, picked, eligible, heads)
        if term is not None:
            return term
    return minimal_inhabitant(concretize(goal, inst, mode=st.cfg.mode))


def _try_production(
    st: _GenState,
    ctx: list[tuple[str, Type]],
    goal: Type,
    depth: int,
    production: str,
    eligible: list[tuple[str, Type]],
    heads: list[tuple[str, Type]],
) -> Term | None:
    rng = st.rng
    inst = st.inst
    weights = st.cfg.weights()

    if production == "leaf":
        match goal:
            case Bool():
                return TT() if rng.random() < 0.5 else FF()
            case Nat():
                return NatLit(rng.randint(0, 3))
        return None

    if production == "var":
        name, ty = rng.choice(eligible)
        st.note_use(name, ty)
        return Var(name)

    if production == "headvar":
        name, ty = rng.choice(heads)
        assert isinstance(ty, Arrow)
        st.note_use(name, ty)
        arg = _gen(st, ctx, ty.dom, depth - 1)
        term = App(Var(name), arg)
        try:
            st.synth(ctx, term)
        except TypingError:
            # generated argument subsumes nested grades the invariant
            # paper-mode arrow comparison rejects; fall back to the exact
            # domain's canonical inhabitant
            term = App(Var(name), minimal_inhabitant(ty.dom))
        return term

    if production == "if":
        concrete_goal = concretize(goal, inst, rng, st.cfg.mode)
        cond = _gen(st, ctx, Bool(), depth - 1)
        then = _gen(st, ctx, concrete_goal, depth - 1)
        other = _gen(st, ctx, concrete_goal, depth - 1)
        term = If(cond, then, other)
        try:
            st.synth(ctx, term)
        except TypingError:
            # branches synthesized unifiable-only-up-to-subsumption types
            # (paper-mode arrows are invariant); duplicate a branch shape
            try:
                then_ty = st.synth(ctx, then).type
            except TypingError:
                return None
            term = If(cond, then, minimal_inhabitant(then_ty))
            try:
                st.synth(ctx, term)
            except TypingError:
                return None
        return term

    if production == "redex":
        arg_ty = sample_type(rng, min(depth - 1, 2), weights, inst)
        arg = _gen(st, ctx, arg_ty, depth - 1)
        try:
            annot = st.synth(ctx, arg).type
        except TypingError:
            return None
        x = st.fresh_name()
        body = _gen(st, ctx + [(x, annot)], goal, depth - 1)
        return App(Lam(x, annot, body), arg)

    if production == "proj":
        other_ty = sample_type(rng, min(depth - 1, 1), weights, inst)
        left = rng.random() < 0.5
        pair_goal = Prod(goal, other_ty) if left else Prod(other_ty, goal)
        inner = _gen(st, ctx, pair_goal, depth - 1)
        return Fst(inner) if left else Snd(inner)

    if production == "unbox":
        grade = inst.random_element(rng)
        inner = _gen(st, ctx, Box(grade, goal), depth - 1)
        return Unbox(inner)

    if production == "pair":
        assert isinstance(goal, Prod)
        return Pair(_gen(st, ctx, goal.left, depth - 1), _gen(st, ctx, goal.right, depth - 1))

    if production == "lam":
        assert isinstance(goal, Arrow)
        dom = concretize(goal.dom, inst, rng, st.cfg.mode)
        x = st.fresh_name()
        body = _gen(st, ctx + [(x, dom)], goal.cod, depth - 1)
        if goal.latent is not None:
            try:
                j = st.synth(ctx + [(x, dom)], body)
                if not inst.leq(j.bound, goal.latent):
                    body = minimal_inhabitant(concretize(goal.cod, inst, mode=st.cfg.mode))
            except TypingError:
                body = minimal_inhabitant(concretize(goal.cod, inst, mode=st.cfg.mode))
        return Lam(x, dom, body)

    if production == "hunt":
        # (lam f . (f a1, f a2)) (lam x : Bool . if x then b1 else b2):
        # a shared function with a branching body, applied twice
        assert isinstance(goal, Prod)
        x = st.fresh_name()

        def branch() -> Term:
            if isinstance(goal.left, Bool) and rng.random() < 0.5:
                return TT() if rng.random() < 0.5 else FF()
            return _gen(st, ctx + [(x, Bool())], goal.left, depth - 1)

        arg = Lam(x, Bool(), If(Var(x), branch(), branch()))
        try:
            annot = st.synth(ctx, arg).type
        except TypingError:
            return None
        f = st.fresh_name()
        inner = ctx + [(f, annot)]
        a1 = _gen(st, inner, Bool(), depth - 1)
        a2 = _gen(st, inner, Bool(), depth - 1)
        body = Pair(App(Var(f), a1), App(Var(f), a2))
        return App(Lam(f, annot, body), arg)

    if production == "boxed":
        assert isinstance(goal, Box)
        body = _gen(st, ctx, goal.body, depth - 1)
        try:
            j = st.synth(ctx, body)
            if not inst.leq(j.bound, goal.grade):
                body = minimal_inhabitant(concretize(goal.body, inst, mode=st.cfg.mode))
        except TypingError:
            body = minimal_inhabitant(concretize(goal.body, inst, mode=st.cfg.mode))
        return BoxT(goal.grade, body)

    return None


def gen_typed_term(
    cfg: GenConfig,
    ctx: Context = Context(),
    goal: Type | None = None,
    trial: int = 0,
) -> Term:
    """Generate one term that synthesizes to the goal (up to grade
    subsumption) in cfg.mode. Deterministic in (cfg, ctx, goal, trial)."""
    rng = _trial_rng(cfg.seed, trial)
    st = _GenState(cfg, rng)
    if goal is None:
        if cfg.allow_fn_var_reuse and rng.random() < 0.3:
            # steer the hunter toward square products, where shared-function
            # double application lives
            base = Bool() if rng.random() < 0.75 else Nat()
            goal = Prod(base, base)
        else:
            goal = sample_type(rng, min(cfg.max_depth, 3), cfg.weights(), cfg.lattice)
    for name, ty in ctx.bindings:
        if not st.cfg.allow_fn_var_reuse and type_contains_arrow(ty):
            st.uses.setdefault(name, 0)
    return _gen(st, list(ctx.bindings), goal, cfg.max_depth)


def gen_value(cfg: GenConfig, goal: Type, rng: random.Random, depth: int) -> Value:
    """Generate a closed value of the goal type (lambda bodies may be
    arbitrary generated terms)."""
    inst = cfg.lattice
    candidate: Value
    match goal:
        case Bool():
            return to_value(TT() if rng.random() < 0.5 else FF())
        case Nat():
            return to_value(NatLit(rng.randint(0, 3)))
        case Prod(left, right):
            return to_value(
                Pair(
                    embed(gen_value(cfg, left, rng, depth - 1)),
                    embed(gen_value(cfg, right, rng, depth - 1)),
                )
            )
        case Arrow(dom, cod, latent):
            dom = concretize(dom, inst, rng, cfg.mode)
            st = _GenState(cfg, rng)
            x = st.fresh_name("a")
            body = _gen(st, [(x, dom)], cod, max(depth - 1, 1))
            candidate = to_value(Lam(x, dom, body))
        case Box(grade, body_ty):
            inner = gen_value(cfg, body_ty, rng, depth - 1)
            candidate = to_value(BoxT(grade, embed(inner)))
        case _:
            raise TypeError(f"no value rule for {goal!r}")
    try:
        j = retype_value(candidate, inst.large_budget(), cfg.mode, cfg.resolved_deltas())
        if goal_matches(j.type, goal, inst):
            return candidate
    except TypingError:
        pass
    return to_value(minimal_inhabitant(concretize(goal, inst, mode=cfg.mode)))


# ---------------------------------------------------------------------------
# Minimizer


def minimize(term: Term, failing_property: Callable[[Term], bool], cfg: GenConfig) -> Term:
    """Greedy shrink: replace subterms with canonical minimal inhabitants of
    their type or hoist strictly smaller same-type subterms, keeping each
    move only while the property still fails. Returns a fixpoint."""
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()

    def subterm_type(ctx: tuple[tuple[str, Type], ...], t: Term) -> Type | None:
        try:
            return synthesize(Context(ctx), t, budget, cfg.mode, deltas).type
        except TypingError:
            return None

    current = term
    changed = True
    while changed:
        changed = False
        for path, ctx, u in _paths(current):
            u_ty = subterm_type(ctx, u)
            if u_ty is None:
                continue
            u_size = term_size(u)
            candidates: list[Term] = []
            mini = minimal_inhabitant(u_ty)
            if term_size(mini) < u_size:
                candidates.append(mini)
            for s in subterms(u)[1:]:
                s_ty = subterm_type(ctx, s)
                if s_ty is not None and is_subtype(s_ty, u_ty, cfg.mode, inst):
                    candidates.append(s)
            for cand in candidates:
                replaced = _replace(current, path, cand)
                try:
                    if failing_property(replaced):
                        current = replaced
                        changed = True
                        break
                except Exception:
                    continue
            if changed:
                break
    return current


def _paths(t: Term, prefix: tuple[int, ...] = (), ctx: tuple[tuple[str, Type], ...] = ()):
    """Preorder (path, binding context, subterm) triples for every subterm
    position."""
    yield prefix, ctx, t
    match t:
        case Lam(name, annot, body):
            yield from _paths(body, prefix + (0,), ctx + ((name, annot),))
        case App(a, b) | Pair(a, b):
            yield from _paths(a, prefix + (0,), ctx)
            yield from _paths(b, prefix + (1,), ctx)
        case Fst(arg) | Snd(arg) | Unbox(arg):
            yield from _paths(arg, prefix + (0,), ctx)
        case If(c, a, b):
            yield from _paths(c, prefix + (0,), ctx)
            yield from _paths(a, prefix + (1,), ctx)
            yield from _paths(b, prefix + (2,), ctx)
        case BoxT(_, body):
            yield from _paths(body, prefix + (0,), ctx)


def _replace(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    i, rest = path[0], path[1:]
    match t:
        case Lam(name, annot, body):
            return Lam(name, annot, _replace(body, rest, new))
        case BoxT(grade, body):
            return BoxT(grade, _replace(body, rest, new))
        case Fst(arg):
            return Fst(_replace(arg, rest, new))
        case Snd(arg):
            return Snd(_replace(arg, rest, new))
        case Unbox(arg):
            return Unbox(_replace(arg, rest, new))
        case App(a, b):
            return App(_replace(a, rest, new), b) if i == 0 else App(a, _replace(b, rest, new))
        case Pair(a, b):
            return Pair(_replace(a, rest, new), b) if i == 0 else Pair(a, _replace(b, rest, new))
        case If(c, a, b):
            if i == 0:
                return If(_replace(c, rest, new), a, b)
            if i == 1:
                return If(c, _replace(a, rest, new), b)
            return If(c, a, _replace(b, rest, new))
    raise IndexError(path)


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

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "term": self.term,
            "relation": self.relation,
            "observed": self.observed,
            "minimized": self.minimized,
            "minimized_observed": self.minimized_observed,
        }


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
            "failures": [f.to_dict() for f in self.failures],
        }

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.failure_count} failures)"
        return f"{self.name}: {status} over {self.trials} trials"


def _observe_cost(cfg: GenConfig, term: Term) -> dict[str, str]:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    out: dict[str, str] = {}
    try:
        j = synthesize(Context(), term, inst.large_budget(), cfg.mode, deltas)
        out["bound"] = inst.format(j.bound)
    except TypingError as exc:
        out["type_error"] = str(exc)
        return out
    try:
        r = evaluate(term, deltas)
        out["cost"] = inst.format(r.cost)
    except EvalError as exc:
        out["eval_error"] = str(exc)
    return out


def _cost_soundness_violation(cfg: GenConfig) -> Callable[[Term], bool]:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()

    def violated(term: Term) -> bool:
        if free_vars(term):
            return False
        try:
            j = synthesize(Context(), term, budget, cfg.mode, deltas)
            r = evaluate(term, deltas)
        except (TypingError, EvalError):
            return False
        return not inst.leq(r.cost, j.bound)

    return violated


def _fail(cfg: GenConfig, trial: int, term: Term, relation: str, observed: dict[str, str],
          predicate: Callable[[Term], bool] | None = None) -> Failure:
    minimized = term
    if predicate is not None:
        minimized = minimize(term, predicate, cfg)
    return Failure(
        trial=trial,
        term=pretty(term),
        relation=relation,
        observed=observed,
        minimized=pretty(minimized),
        minimized_observed=_observe_cost(cfg, minimized),
    )


def _trial_cost_soundness(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()
    term = gen_typed_term(cfg, trial=trial)
    try:
        j = synthesize(Context(), term, budget, cfg.mode, deltas)
    except TypingError as exc:
        return _fail(cfg, trial, term, "generated term typechecks", {"type_error": str(exc)})
    try:
        r = evaluate(term, deltas)
    except EvalError as exc:
        return _fail(cfg, trial, term, "typed terms evaluate", {"eval_error": str(exc)})
    if not inst.leq(r.cost, j.bound) or not inst.leq(j.bound, budget):
        return _fail(
            cfg, trial, term, "cost <= bound <= budget",
            {"cost": inst.format(r.cost), "bound": inst.format(j.bound), "budget": inst.format(budget)},
            _cost_soundness_violation(cfg),
        )
    return None


def _trial_determinism(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    term = gen_typed_term(cfg, trial=trial)
    try:
        r1 = evaluate(term, deltas)
        r2 = evaluate(term, deltas)
        renamed = rename_binders(term)
        r3 = evaluate(renamed, deltas)
    except EvalError as exc:
        return _fail(cfg, trial, term, "typed terms evaluate", {"eval_error": str(exc)})
    if r1 != r2:
        return _fail(cfg, trial, term, "evaluation is deterministic",
                     {"cost1": inst.format(r1.cost), "cost2": inst.format(r2.cost)})
    if r1.cost != r3.cost or not alpha_eq_value(r1.value, r3.value):
        return _fail(
            cfg, trial, term, "evaluation is alpha-invariant",
            {"cost": inst.format(r1.cost), "renamed_cost": inst.format(r3.cost)},
        )
    return None


def _trial_preservation(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()
    term = gen_typed_term(cfg, trial=trial)
    try:
        j = synthesize(Context(), term, budget, cfg.mode, deltas)
        r = evaluate(term, deltas)
        j2 = retype_value(r.value, budget, cfg.mode, deltas)
    except (TypingError, EvalError) as exc:
        return _fail(cfg, trial, term, "typed terms evaluate and retype", {"error": str(exc)})
    if not is_subtype(j2.type, j.type, cfg.mode, inst):
        return _fail(
            cfg, trial, term, "result type preserved up to grade subsumption",
            {"type": pretty_type(j.type), "result_type": pretty_type(j2.type)},
        )
    if not inst.leq(j2.bound, j.bound):
        return _fail(
            cfg, trial, term, "result bound below original",
            {"bound": inst.format(j.bound), "result_bound": inst.format(j2.bound)},
        )
    return None


def _trial_budget_weakening(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    rng = _trial_rng(cfg.seed ^ 0x5EED, trial)
    term = gen_typed_term(cfg, trial=trial)
    r1 = inst.random_element(rng)
    r2 = inst.join(r1, inst.random_element(rng))
    try:
        j1 = synthesize(Context(), term, r1, cfg.mode, deltas)
        j2 = synthesize(Context(), term, r2, cfg.mode, deltas)
    except TypingError as exc:
        return _fail(cfg, trial, term, "generated term typechecks", {"type_error": str(exc)})
    if j1.bound != j2.bound:
        return _fail(
            cfg, trial, term, "bound independent of budget",
            {"budget1": inst.format(r1), "bound1": inst.format(j1.bound),
             "budget2": inst.format(r2), "bound2": inst.format(j2.bound)},
        )
    if j1.within_budget and not j2.within_budget:
        return _fail(
            cfg, trial, term, "verdict monotone in the budget",
            {"budget1": inst.format(r1), "budget2": inst.format(r2)},
        )
    return None


def _trial_box_laws(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()
    rng = _trial_rng(cfg.seed ^ 0xB0C5, trial)
    weights = cfg.weights()
    body_ty = sample_type(rng, 1, weights, inst)
    grade = inst.random_element(rng)
    goal = Box(grade, body_ty)
    term = gen_typed_term(cfg, goal=goal, trial=trial)

    try:
        j = synthesize(Context(), term, budget, cfg.mode, deltas)
        ju = synthesize(Context(), Unbox(term), budget, cfg.mode, deltas)
    except TypingError as exc:
        return _fail(cfg, trial, term, "box term and its unboxing typecheck", {"type_error": str(exc)})
    expected = inst.combine(j.bound, deltas.unbox)
    if ju.bound != expected or not isinstance(j.type, Box) or ju.type != j.type.body:
        return _fail(
            cfg, trial, term, "counit: unbox typechecks at the body type, bound + delta_unbox",
            {"bound": inst.format(j.bound), "unbox_bound": inst.format(ju.bound),
             "expected": inst.format(expected)},
        )

    # grade monotone acceptance
    v = gen_value(cfg, goal, rng, 3)
    try:
        jv = retype_value(v, budget, cfg.mode, deltas)
        assert isinstance(jv.type, Box)
        wider = Box(inst.join(jv.type.grade, inst.random_element(rng)), jv.type.body)
        check_expected(Context(), embed(v), wider, budget, cfg.mode, deltas)
    except (TypingError, AssertionError) as exc:
        return _fail(cfg, trial, embed(v), "grade monotone acceptance", {"error": str(exc)})

    # grade bounds evaluation cost of the boxed term
    if isinstance(term, BoxT):
        try:
            inner = evaluate(term.body, deltas)
        except EvalError as exc:
            return _fail(cfg, trial, term, "boxed body evaluates", {"eval_error": str(exc)})
        if not inst.leq(inner.cost, term.grade):
            return _fail(
                cfg, trial, term, "boxed body cost within grade",
                {"cost": inst.format(inner.cost), "grade": inst.format(term.grade)},
            )

    # no unconditional promotion
    plain = gen_typed_term(cfg, goal=body_ty, trial=trial + 1)
    try:
        jp = synthesize(Context(), plain, budget, cfg.mode, deltas)
    except TypingError:
        return None
    candidate = plain
    bound = jp.bound
    if bound == inst.bottom():
        candidate = If(TT(), plain, plain)
        try:
            bound = synthesize(Context(), candidate, budget, cfg.mode, deltas).bound
        except TypingError:
            return None
    if bound == inst.bottom():
        return None  # degenerate delta profile: nothing to reject
    try:
        synthesize(Context(), BoxT(inst.bottom(), candidate), budget, cfg.mode, deltas)
    except GradeExceeded:
        return None
    except TypingError as exc:
        return _fail(cfg, trial, candidate, "rejection is a GradeExceeded", {"error": str(exc)})
    return _fail(
        cfg, trial, candidate, "no unconditional promotion",
        {"bound": inst.format(bound), "grade": inst.format(inst.bottom())},
    )


def _trial_substitution(cfg: GenConfig, trial: int) -> Failure | None:
    inst = cfg.lattice
    deltas = cfg.resolved_deltas()
    budget = inst.large_budget()
    rng = _trial_rng(cfg.seed ^ 0x5B57, trial)
    weights = cfg.weights()

    val_ty = sample_type(rng, 2, weights, inst)
    v = gen_value(cfg, val_ty, rng, 3)
    try:
        annot = retype_value(v, budget, cfg.mode, deltas).type
    except TypingError as exc:
        return _fail(cfg, trial, embed(v), "generated value typechecks", {"type_error": str(exc)})

    goal = sample_type(rng, 2, weights, inst)
    open_term = gen_typed_term(cfg, Context((("x", annot),)), goal, trial)
    try:
        j_open = synthesize(Context((("x", annot),)), open_term, budget, cfg.mode, deltas)
    except TypingError as exc:
        return _fail(cfg, trial, open_term, "open term typechecks", {"type_error": str(exc)})

    closed = substitute(open_term, "x", v)
    try:
        j_closed = synthesize(Context(), closed, budget, cfg.mode, deltas)
    except TypingError as exc:
        return _fail(cfg, trial, closed, "substituted term typechecks", {"type_error": str(exc)})
    if j_closed.type != j_open.type or j_closed.bound != j_open.bound:
        return _fail(
            cfg, trial, closed, "substitution preserves type and bound",
            {"type": pretty_type(j_open.type), "sub_type": pretty_type(j_closed.type),
             "bound": inst.format(j_open.bound), "sub_bound": inst.format(j_closed.bound)},
        )
    if cfg.mode is Mode.SOUND:
        try:
            r = evaluate(closed, deltas)
        except EvalError as exc:
            return _fail(cfg, trial, closed, "substituted term evaluates", {"eval_error": str(exc)})
        if not inst.leq(r.cost, j_open.bound):
            return _fail(
                cfg, trial, closed, "substituted cost within open bound",
                {"cost": inst.format(r.cost), "bound": inst.format(j_open.bound)},
            )
    return None


PROPERTIES: dict[str, Callable[[GenConfig, int], Failure | None]] = {
    "cost_soundness": _trial_cost_soundness,
    "determinism": _trial_determinism,
    "preservation": _trial_preservation,
    "budget_weakening": _trial_budget_weakening,
    "box_laws": _trial_box_laws,
    "substitution": _trial_substitution,
}


def _run_range(cfg: GenConfig, name: str, start: int, stop: int) -> list[dict]:
    """Run trials start..stop-1. A trial that raises is recorded as a failure
    of its own, with no term, so one misbehaving trial does not end the run."""
    prop = PROPERTIES[name]
    out = []
    for trial in range(start, stop):
        try:
            failure = prop(cfg, trial)
        except Exception as exc:
            failure = Failure(trial=trial, term="", relation="trial raises no exception",
                              observed={"error": f"{type(exc).__name__}: {exc}"},
                              minimized="", minimized_observed={})
        if failure is not None:
            out.append(failure.to_dict())
    return out


def run_property(cfg: GenConfig, name: str, workers: int = 1) -> PropertyReport:
    """Run one suite. Reports are identical at any worker count: trials are
    seeded independently and merged in trial order."""
    if name not in PROPERTIES:
        raise KeyError(f"unknown property {name!r}")
    if workers <= 1 or cfg.count < workers * 2:
        raw = _run_range(cfg, name, 0, cfg.count)
    else:
        bounds = [(cfg.count * i) // workers for i in range(workers + 1)]
        chunks = [(bounds[i], bounds[i + 1]) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [cfg] * workers, [name] * workers,
                                  [c[0] for c in chunks], [c[1] for c in chunks]))
        raw = [f for part in parts for f in part]
    raw.sort(key=lambda f: f["trial"])
    failures = [Failure(**f) for f in raw[:MAX_REPORTED_FAILURES]]
    return PropertyReport(
        name=name,
        trials=cfg.count,
        failure_count=len(raw),
        failures=failures,
        truncated=len(raw) > MAX_REPORTED_FAILURES,
    )


def run_properties(cfg: GenConfig, names: list[str] | None = None, workers: int = 1) -> list[PropertyReport]:
    return [run_property(cfg, name, workers) for name in (names or list(PROPERTIES))]


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
