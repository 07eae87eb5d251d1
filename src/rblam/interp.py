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
"""

from __future__ import annotations

from dataclasses import dataclass

from rblam.lattice import LatticeElement, LatticeInstance
from rblam.syntax import (
    App,
    BoxT,
    FF,
    Fst,
    If,
    Lam,
    Pair,
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


@dataclass(frozen=True)
class CostedResult:
    value: Term
    cost: LatticeElement


@dataclass(frozen=True)
class EvalTrace:
    """Derivation-shaped log: one node per rule application, carrying the
    delta that node contributed. Folding contributions with combine yields
    the root cost."""

    rule: str
    term: Term
    contribution: LatticeElement
    children: tuple["EvalTrace", ...] = ()


def evaluate(term: Term, deltas: DeltaProfile, fuel: int = DEFAULT_FUEL) -> CostedResult:
    """Evaluate a closed term, returning its value and accumulated cost."""
    value, cost, _ = _eval(term, deltas, deltas.instance, [fuel], False)
    return CostedResult(value, cost)


def evaluate_trace(
    term: Term, deltas: DeltaProfile, fuel: int = DEFAULT_FUEL
) -> tuple[CostedResult, EvalTrace]:
    """As evaluate, but also return the derivation tree."""
    value, cost, trace = _eval(term, deltas, deltas.instance, [fuel], True)
    return CostedResult(value, cost), trace


def _eval(
    t: Term, d: DeltaProfile, inst: LatticeInstance, counter: list[int], tracing: bool
) -> tuple[Term, LatticeElement, EvalTrace | None]:
    """The operational rules: one call per derivation node, each spending one
    unit of fuel. The node's EvalTrace is built only when `tracing` is set;
    otherwise the third result is None."""
    counter[0] -= 1
    if counter[0] < 0:
        raise FuelExhausted("evaluation fuel exhausted")
    if is_value(t):
        bot = inst.bottom()
        return t, bot, EvalTrace("Val", t, bot) if tracing else None
    match t:
        case Pair(a, b):
            va, ka, ta = _eval(a, d, inst, counter, tracing)
            vb, kb, tb = _eval(b, d, inst, counter, tracing)
            node = EvalTrace("Pair", t, inst.bottom(), (ta, tb)) if tracing else None
            return Pair(va, vb), inst.combine(ka, kb), node
        case Fst(arg):
            va, k, tr = _eval(arg, d, inst, counter, tracing)
            if not isinstance(va, Pair):
                raise Stuck(f"fst of non-pair value {pretty(va)}")
            node = EvalTrace("Fst", t, d.proj, (tr,)) if tracing else None
            return va.fst, inst.combine(k, d.proj), node
        case Snd(arg):
            va, k, tr = _eval(arg, d, inst, counter, tracing)
            if not isinstance(va, Pair):
                raise Stuck(f"snd of non-pair value {pretty(va)}")
            node = EvalTrace("Snd", t, d.proj, (tr,)) if tracing else None
            return va.snd, inst.combine(k, d.proj), node
        case If(cond, then, other):
            vc, kc, tc = _eval(cond, d, inst, counter, tracing)
            if isinstance(vc, TT):
                rule = "IfT"
                vb, kb, tb = _eval(then, d, inst, counter, tracing)
            elif isinstance(vc, FF):
                rule = "IfF"
                vb, kb, tb = _eval(other, d, inst, counter, tracing)
            else:
                raise Stuck(f"if on non-boolean value {pretty(vc)}")
            cost = inst.combine(inst.combine(kc, kb), d.iff)
            return vb, cost, EvalTrace(rule, t, d.iff, (tc, tb)) if tracing else None
        case App(fn, arg):
            vf, kf, tf = _eval(fn, d, inst, counter, tracing)
            if not isinstance(vf, Lam):
                raise Stuck(f"application of non-function value {pretty(vf)}")
            va, ka, ta = _eval(arg, d, inst, counter, tracing)
            body = substitute(vf.body, vf.name, va)
            vb, kb, tb = _eval(body, d, inst, counter, tracing)
            cost = inst.combine(inst.combine(inst.combine(kf, ka), d.app), kb)
            return vb, cost, EvalTrace("App", t, d.app, (tf, ta, tb)) if tracing else None
        case BoxT(grade, body):
            vb, k, tb = _eval(body, d, inst, counter, tracing)
            node = EvalTrace("Box", t, inst.bottom(), (tb,)) if tracing else None
            return BoxT(grade, vb), k, node
        case Unbox(arg):
            va, k, tr = _eval(arg, d, inst, counter, tracing)
            if not isinstance(va, BoxT):
                raise Stuck(f"unbox of non-box value {pretty(va)}")
            node = EvalTrace("Unbox", t, d.unbox, (tr,)) if tracing else None
            return va.body, inst.combine(k, d.unbox), node
        case Var(name):
            raise Stuck(f"unbound variable {name!r}: term is not closed")
    raise Stuck(f"no rule applies to {pretty(t)}")


def trace_cost(trace: EvalTrace, inst: LatticeInstance) -> LatticeElement:
    """Fold per-node contributions with combine; equals the reported cost."""
    total = trace.contribution
    for child in trace.children:
        total = inst.combine(total, trace_cost(child, inst))
    return total


def format_trace(trace: EvalTrace, inst: LatticeInstance, indent: int = 0) -> str:
    """One line per node, children indented below their parent. Evaluation
    shares subterms between nodes, so one pretty memo serves the whole tree."""
    memo: dict[int, str] = {}
    lines: list[str] = []
    stack = [(trace, indent)]
    while stack:
        node, depth = stack.pop()
        term = pretty(node.term, memo)
        lines.append(f"{'  ' * depth}{node.rule} +{inst.format(node.contribution)}  {term}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)
