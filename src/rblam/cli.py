"""Command-line entry point.

Subcommands: check (typecheck a program and verify its bound against the
budget), eval (typecheck then run with cost accounting), fuzz (metatheory
property suites), model (finite-lattice semantic checks), laws (lattice
axiom checker). Exit codes are a stable CI contract: 0 success, 1 budget or
property violation, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from rblam.harness import (
    GenConfig,
    PROPERTIES,
    gen_typed_term,
    report_json,
    run_properties,
    run_property,
)
from rblam.interp import DEFAULT_FUEL, EvalError, Stuck, evaluate, evaluate_trace, format_trace
from rblam.lattice import (
    LatticeError,
    LatticeInstance,
    builtin_lattice,
    check_laws,
    load_lattice,
)
from rblam.model import DenModel, EnumBudget, check_cost_preservation, run_model_checks
from rblam.syntax import (
    ParseError,
    parse,
    parse_literal_text,
    pretty,
    pretty_type,
)
from rblam.typecheck import Context, DeltaProfile, Mode, TypingError, synthesize

OK, VIOLATION, INPUT_ERROR = 0, 1, 2


def _reject(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(INPUT_ERROR)


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise LatticeError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise LatticeError(f"cannot read config {path}: {exc}") from exc
    return out


class Session:
    """Resolved lattice, deltas, budget, mode, fuel, and output format."""

    def __init__(self, args: argparse.Namespace):
        settings = _read_config(args.config) if getattr(args, "config", None) else {}

        def pick(flag: str, key: str, default=None):
            value = getattr(args, flag, None)
            if value is not None:
                return value
            return settings.get(key, default)

        lattice_file = pick("lattice_file", "lattice_file")
        lattice_name = pick("lattice", "lattice", "nat")
        if lattice_file:
            self.lattice: LatticeInstance = load_lattice(lattice_file)
        else:
            self.lattice = builtin_lattice(lattice_name)

        unit = self.lattice.unit_step()
        deltas = {
            "app": unit, "if": unit, "unbox": unit, "proj": unit,
        }
        for name in deltas:
            text = pick(f"delta_{name}" if name != "if" else "delta_if", f"delta.{name}")
            if text is not None:
                deltas[name] = parse_literal_text(text, self.lattice)
        self.deltas = DeltaProfile(
            app=deltas["app"], iff=deltas["if"], unbox=deltas["unbox"], proj=deltas["proj"]
        )

        budget_text = pick("budget", "budget")
        self.budget = (
            parse_literal_text(budget_text, self.lattice)
            if budget_text is not None
            else self.lattice.large_budget()
        )
        mode = pick("mode", "mode", "sound")
        if mode not in [m.value for m in Mode]:
            _reject(f"bad mode {mode!r}; expected paper or sound")
        self.mode = Mode(mode)
        fuel = str(pick("fuel", "fuel", DEFAULT_FUEL))
        try:
            if not fuel.isdecimal():
                raise ValueError(fuel)
            self.fuel = int(fuel)  # refuses numerals of more than 4300 digits
        except ValueError:
            _reject(f"bad fuel {fuel!r}; expected a non-negative integer")
        self.format = pick("format", "format", "text")
        if self.format not in ("text", "json"):
            _reject(f"bad format {self.format!r}; expected text or json")


def _int_at_least(lo: int):
    """argparse type for an integer flag that must be at least `lo`."""

    def parse_int(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse_int.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse_int


def _session_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--lattice", help="builtin lattice: nat, gas, triple, sat<cap>")
    sub.add_argument("--lattice-file", dest="lattice_file", help="finite lattice table file")
    sub.add_argument("--budget", help="budget literal, e.g. 100 or (10,10,10)")
    sub.add_argument("--mode", choices=["paper", "sound"], help="typing rule set")
    sub.add_argument("--delta-app", dest="delta_app", help="application cost literal")
    sub.add_argument("--delta-if", dest="delta_if", help="conditional cost literal")
    sub.add_argument("--delta-unbox", dest="delta_unbox", help="unboxing cost literal")
    sub.add_argument("--delta-proj", dest="delta_proj", help="projection cost literal")
    sub.add_argument("--fuel", type=int, help="evaluation fuel (derivation nodes)")
    sub.add_argument("--format", choices=["text", "json"], help="output format")
    sub.add_argument("--config", help="key = value config file; flags override")


def _emit(doc: dict, session: Session) -> None:
    if session.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _load_program(path: str, session: Session):
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        _reject(f"cannot read {path}: {exc}")
    try:
        return parse(source, session.lattice)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(INPUT_ERROR)


def cmd_check(args: argparse.Namespace) -> int:
    session = Session(args)
    term = _load_program(args.file, session)
    inst = session.lattice
    try:
        j = synthesize(Context(), term, session.budget, session.mode, session.deltas)
    except TypingError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    verdict = "OK" if j.within_budget else "BUDGET-EXCEEDED"
    doc = {
        "type": pretty_type(j.type),
        "bound": inst.format(j.bound),
        "budget": inst.format(j.budget),
        "verdict": verdict,
    }
    _emit(doc, session)
    if args.trace:
        _print_derivation(j.trace, inst)
    if not j.within_budget:
        print(
            f"bound {inst.format(j.bound)} exceeds budget {inst.format(j.budget)}",
            file=sys.stderr,
        )
        return VIOLATION
    return OK


def _print_derivation(deriv, inst) -> None:
    """One line per node, children indented below their parent. The nodes'
    terms are subterms of the program, so one pretty memo prints each once."""
    memo: dict[int, str] = {}
    stack = [(deriv, 0)]
    while stack:
        node, depth = stack.pop()
        print("  " * depth + f"{node.rule} [{inst.format(node.bound)}] {pretty(node.term, memo)}")
        stack.extend((child, depth + 1) for child in reversed(node.children))


def cmd_eval(args: argparse.Namespace) -> int:
    session = Session(args)
    term = _load_program(args.file, session)
    inst = session.lattice
    j = None
    if not args.unsafe_eval:
        try:
            j = synthesize(Context(), term, session.budget, session.mode, session.deltas)
        except TypingError as exc:
            print(f"type error: {exc}", file=sys.stderr)
            return INPUT_ERROR
    try:
        if args.trace:
            result, trace = evaluate_trace(term, session.deltas, session.fuel)
        else:
            result = evaluate(term, session.deltas, session.fuel)
            trace = None
    except Stuck as exc:
        if j is not None:
            print(f"internal invariant failure: typed term got stuck: {exc}", file=sys.stderr)
            return VIOLATION
        print(f"stuck: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    doc = {"value": pretty(result.value), "cost": inst.format(result.cost)}
    code = OK
    if j is not None:
        doc["bound"] = inst.format(j.bound)
        if inst.leq(result.cost, j.bound):
            doc["cost_within_bound"] = "yes"
        else:
            doc["cost_within_bound"] = "SOUNDNESS-VIOLATION"
            code = VIOLATION
    _emit(doc, session)
    if trace is not None:
        print(format_trace(trace, inst))
    return code


def cmd_fuzz(args: argparse.Namespace) -> int:
    session = Session(args)
    props = args.props.split(",") if args.props else list(PROPERTIES)
    for name in props:
        if name not in PROPERTIES:
            print(f"error: unknown property {name!r}; known: {', '.join(PROPERTIES)}", file=sys.stderr)
            return INPUT_ERROR
    if args.hunt and args.props and props != ["cost_soundness"]:
        print(f"error: --hunt runs cost_soundness only, not --props {args.props}", file=sys.stderr)
        return INPUT_ERROR
    cfg = GenConfig(
        lattice=session.lattice,
        seed=args.seed,
        count=args.count,
        max_depth=args.depth,
        mode=session.mode,
        allow_fn_var_reuse=args.fn_var_reuse,
        deltas=session.deltas,
    )
    if args.hunt:
        report = run_property(cfg, "cost_soundness", workers=args.workers)
        if session.format == "json":
            print(report_json([report], cfg))
        else:
            print(report)
            for failure in report.failures[:5]:
                print(f"  trial {failure.trial}: {failure.observed} minimized to {failure.minimized}")
        return OK if report.failure_count > 0 else VIOLATION
    reports = run_properties(cfg, props, workers=args.workers)
    if session.format == "json":
        print(report_json(reports, cfg))
    else:
        for r in reports:
            print(r)
    return OK if all(r.passed for r in reports) else VIOLATION


def cmd_model(args: argparse.Namespace) -> int:
    session = Session(args)
    inst = session.lattice
    if not inst.is_finite:
        print(f"error: model checks need a finite lattice, got {inst.name!r}", file=sys.stderr)
        return INPUT_ERROR
    enum = EnumBudget(
        deltas=session.deltas,
        max_nat=args.max_nat,
        max_term_size=args.max_term_size,
    )
    report = run_model_checks(inst, enum=enum)
    docs = [report.to_dict()]
    ok = report.passed
    if args.interp_corpus:
        cfg = GenConfig(lattice=inst, seed=args.seed, count=args.interp_corpus, mode=Mode.SOUND,
                        deltas=session.deltas)
        corpus = [gen_typed_term(cfg, trial=i) for i in range(args.interp_corpus)]
        cp = check_cost_preservation(corpus, DenModel(inst, session.deltas), Mode.SOUND)
        docs.append({"cost_preservation": cp.to_dict()})
        ok = ok and cp.ok
    if session.format == "json":
        print(json.dumps(docs, sort_keys=True, indent=1))
    else:
        print(report)
        for doc in docs[1:]:
            print(json.dumps(doc, sort_keys=True, indent=1))
    return OK if ok else VIOLATION


def _sample_from_range(inst: LatticeInstance, spec: str):
    try:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise LatticeError(f"bad sample range {spec!r}; expected LO..HI")
    if hi < lo:
        raise LatticeError(f"bad sample range {spec!r}")
    if inst.kind in ("nat", "gas"):
        return [inst.element(i) for i in range(lo, hi + 1)]
    if inst.kind == "nat-saturating":
        cap = inst.cap  # type: ignore[attr-defined]
        return [inst.element(i) for i in range(max(lo, 0), min(hi, cap) + 1)]
    if inst.kind == "triple":
        coords = sorted({lo, lo + 1, (lo + hi) // 2, hi})
        return [inst.element((a, b, c)) for a in coords for b in coords for c in coords]
    return None  # finite and product default to full enumeration


def cmd_laws(args: argparse.Namespace) -> int:
    session = Session(args)
    inst = session.lattice
    sample = None
    if args.sample:
        try:
            sample = _sample_from_range(inst, args.sample)
        except LatticeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return INPUT_ERROR
    try:
        report = check_laws(inst, sample)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if session.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    else:
        print(report)
    return OK if report.passed else VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Parsing leaves it unchanged, so every
    call to main reuses it."""
    parser = argparse.ArgumentParser(
        prog="rblam",
        description="Resource-bounded lambda calculus toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck and verify the bound against the budget")
    p_check.add_argument("file")
    p_check.add_argument("--trace", action="store_true", help="print the derivation tree")
    _session_flags(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_eval = sub.add_parser("eval", help="typecheck then evaluate with cost accounting")
    p_eval.add_argument("file")
    p_eval.add_argument("--trace", action="store_true", help="print the evaluation derivation")
    p_eval.add_argument(
        "--unsafe-eval", action="store_true",
        help="evaluate without typechecking (stuck terms become input errors)",
    )
    _session_flags(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_fuzz = sub.add_parser("fuzz", help="run metatheory property suites")
    p_fuzz.add_argument("--count", type=_int_at_least(1), default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--depth", type=_int_at_least(1), default=5)
    p_fuzz.add_argument("--props", help="comma-separated property names")
    p_fuzz.add_argument("--workers", type=_int_at_least(1), default=1)
    p_fuzz.add_argument("--fn-var-reuse", dest="fn_var_reuse", action="store_true",
                        help="allow repeated use of function-typed variables")
    p_fuzz.add_argument("--hunt", action="store_true",
                        help="expect cost-soundness violations; exit 0 only if found")
    _session_flags(p_fuzz)
    p_fuzz.set_defaults(handler=cmd_fuzz)

    p_model = sub.add_parser("model", help="finite-lattice semantic checks")
    p_model.add_argument("--max-nat", type=_int_at_least(0), default=3)
    p_model.add_argument("--max-term-size", type=_int_at_least(0), default=7)
    p_model.add_argument("--interp-corpus", type=_int_at_least(0), default=0,
                         help="also check cost preservation on a generated corpus")
    p_model.add_argument("--seed", type=int, default=0)
    _session_flags(p_model)
    p_model.set_defaults(handler=cmd_model)

    p_laws = sub.add_parser("laws", help="check the lattice axioms over a sample")
    p_laws.add_argument("--sample", help="numeric sample range, e.g. 0..50")
    _session_flags(p_laws)
    p_laws.set_defaults(handler=cmd_laws)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else INPUT_ERROR
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
