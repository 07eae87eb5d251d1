"""Big-step call-by-value evaluator with explicit cost accounting.

Values are the terms for which `is_value` holds, and each evaluates to
itself at cost bottom; results are built as `Pair` and `BoxT` terms, so no
value is converted back into a term. Application substitutes the argument
value into the lambda body. The value is closed, so substitution shares
every subterm that does not mention the parameter: one application rebuilds
only the paths down to the parameter's occurrences, and a chain of nested
applications evaluates in time linear in its size. Each rule charges the
corresponding delta: application, conditionals, projections, and unboxing.
Evaluation is deterministic and total on well-typed closed terms; the fuel
guard turns ill-typed or runaway inputs into clean errors instead of
divergence. The trace printer prints each shared term once.

The rules live in one table, `RULES`: a handler per rule, called once per
derivation node. It spends one unit of fuel first, `next(fuel)`, builds its
trace node only when tracing, and evaluates a subterm through the table, not
through `evaluate`, so a nesting level costs one Python frame.
"""

from __future__ import annotations

from typing import Any, Callable

from rblam.lattice import LatticeElement, LatticeInstance, record
from rblam.syntax import (
    App,
    BoxT,
    FF,
    Fst,
    If,
    KEYWORD_OF,
    Lam,
    NatLit,
    Pair,
    RuleTable,
    Snd,
    TT,
    Term,
    Unbox,
    Var,
    is_value,
    pretty,
    substitute,
)
from rblam.typecheck import DeltaProfile


DEFAULT_FUEL = 10**6


class EvalError(Exception):
    pass


class Stuck(EvalError):
    """No evaluation rule applies; only reachable on ill-typed input."""


class FuelExhausted(EvalError):
    """Derivation exceeded the fuel limit."""


@record
class CostedResult:
    __slots__ = ("value", "cost")
    value: Term
    cost: LatticeElement


@record(children=())
class EvalTrace:
    """Derivation-shaped log: one node per rule application, carrying the
    delta that node contributed. Folding contributions with combine yields
    the root cost."""

    __slots__ = ("rule", "term", "contribution", "children")
    rule: str
    term: Term
    contribution: LatticeElement
    children: tuple["EvalTrace", ...]


def evaluate(term: Term, deltas: DeltaProfile, fuel: int = DEFAULT_FUEL) -> CostedResult:
    """Evaluate a closed term, returning its value and accumulated cost."""
    value, cost, _ = RULES[term.__class__](term, deltas, deltas.instance, _fuel(fuel), False)
    return CostedResult(value, cost)


def evaluate_trace(
    term: Term, deltas: DeltaProfile, fuel: int = DEFAULT_FUEL
) -> tuple[CostedResult, EvalTrace]:
    """As evaluate, but also return the derivation tree."""
    value, cost, trace = RULES[term.__class__](term, deltas, deltas.instance, _fuel(fuel), True)
    return CostedResult(value, cost), trace


def _fuel(units: int):
    """One unit of fuel per next(); the next after the last raises FuelExhausted."""
    yield from range(units)
    raise FuelExhausted("evaluation fuel exhausted")


def _value(t, d, inst, fuel, tracing):
    next(fuel)
    return t, inst.bottom(), EvalTrace.make("Val", t, inst.bottom(), ()) if tracing else None


def _pair(t, d, inst, fuel, tracing):
    if is_value(t):
        return _value(t, d, inst, fuel, tracing)
    next(fuel)
    va, ka, ta = RULES[t.fst.__class__](t.fst, d, inst, fuel, tracing)
    vb, kb, tb = RULES[t.snd.__class__](t.snd, d, inst, fuel, tracing)
    node = EvalTrace.make("Pair", t, inst.bottom(), (ta, tb)) if tracing else None
    return Pair.make(va, vb), inst.combine(ka, kb), node


def _proj(t, d, inst, fuel, tracing):
    next(fuel)
    va, k, tr = RULES[t.arg.__class__](t.arg, d, inst, fuel, tracing)
    if not isinstance(va, Pair):
        raise Stuck(f"{KEYWORD_OF[t.__class__]} of non-pair value {pretty(va)}")
    node = EvalTrace.make(t.__class__.__name__, t, d.proj, (tr,)) if tracing else None
    return va.fst if t.__class__ is Fst else va.snd, inst.combine(k, d.proj), node


def _if(t, d, inst, fuel, tracing):
    next(fuel)
    vc, kc, tc = RULES[t.cond.__class__](t.cond, d, inst, fuel, tracing)
    if isinstance(vc, TT):
        rule, taken = "IfT", t.then
    elif isinstance(vc, FF):
        rule, taken = "IfF", t.other
    else:
        raise Stuck(f"if on non-boolean value {pretty(vc)}")
    vb, kb, tb = RULES[taken.__class__](taken, d, inst, fuel, tracing)
    cost = inst.combine(inst.combine(kc, kb), d.iff)
    return vb, cost, EvalTrace.make(rule, t, d.iff, (tc, tb)) if tracing else None


def _app(t, d, inst, fuel, tracing):
    next(fuel)
    vf, kf, tf = RULES[t.fn.__class__](t.fn, d, inst, fuel, tracing)
    if not isinstance(vf, Lam):
        raise Stuck(f"application of non-function value {pretty(vf)}")
    va, ka, ta = RULES[t.arg.__class__](t.arg, d, inst, fuel, tracing)
    body = substitute(vf.body, vf.name, va)
    vb, kb, tb = RULES[body.__class__](body, d, inst, fuel, tracing)
    cost = inst.combine(inst.combine(inst.combine(kf, ka), d.app), kb)
    return vb, cost, EvalTrace.make("App", t, d.app, (tf, ta, tb)) if tracing else None


def _box(t, d, inst, fuel, tracing):
    if is_value(t):
        return _value(t, d, inst, fuel, tracing)
    next(fuel)
    vb, k, tb = RULES[t.body.__class__](t.body, d, inst, fuel, tracing)
    return BoxT.make(t.grade, vb), k, EvalTrace.make("Box", t, inst.bottom(), (tb,)) if tracing else None


def _unbox(t, d, inst, fuel, tracing):
    next(fuel)
    va, k, tr = RULES[t.arg.__class__](t.arg, d, inst, fuel, tracing)
    if not isinstance(va, BoxT):
        raise Stuck(f"unbox of non-box value {pretty(va)}")
    return va.body, inst.combine(k, d.unbox), EvalTrace.make("Unbox", t, d.unbox, (tr,)) if tracing else None


def _stuck(t, d, inst, fuel, tracing):
    next(fuel)
    if t.__class__ is Var:
        raise Stuck(f"unbound variable {t.name!r}: term is not closed")
    raise Stuck(f"no rule applies to {pretty(t)}")


RULES = RuleTable({Lam: _value, TT: _value, FF: _value, NatLit: _value, Pair: _pair, Fst: _proj, Snd: _proj,
                   If: _if, App: _app, BoxT: _box, Unbox: _unbox, Var: _stuck}, _stuck)


def trace_cost(trace: EvalTrace, inst: LatticeInstance) -> LatticeElement:
    """Fold per-node contributions with combine; equals the reported cost."""
    total = trace.contribution
    for child in trace.children:
        total = inst.combine(total, trace_cost(child, inst))
    return total


def format_tree(root, head: Callable[[Any], str]) -> str:
    """One line per node of an evaluation trace or a typing derivation,
    children indented below their parent: head(node), then the node's term.
    Nodes share subterms, so one pretty memo serves the whole tree."""
    memo: dict[int, str] = {}
    lines: list[str] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(f"{'  ' * depth}{head(node)}{pretty(node.term, memo)}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def format_trace(trace: EvalTrace, inst: LatticeInstance) -> str:
    return format_tree(trace, lambda node: f"{node.rule} +{inst.format(node.contribution)}  ")
