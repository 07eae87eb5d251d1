"""Command-line entry point.

Subcommands: check (typecheck a program and verify its bound against the
budget), eval (typecheck then run with cost accounting), fuzz (metatheory
property suites), model (finite-lattice semantic checks), laws (lattice
axiom checker). Exit codes are a stable CI contract: 0 success, 1 budget or
property violation, 2 input error, 141 stdout closed before the output was
written (as by `| head -1`). Commands raise input errors; `main` alone
prints each as one `error:` line and returns 2, and turns a closed stdout
into 141 without a traceback.

Each command takes the session flags it reads and loads the layers it uses:
`harness` only for `fuzz` and `model --interp-corpus`, `model` for `model`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from rblam.interp import DEFAULT_FUEL, EvalError, Stuck, evaluate, evaluate_trace, format_trace, format_tree, tree_rows
from rblam.lattice import (
    NAT,
    LatticeError,
    LatticeInstance,
    NatLattice,
    SaturatingNatLattice,
    TripleLattice,
    builtin_lattice,
    check_element_count,
    check_laws,
    load_lattice,
)
from rblam.syntax import (
    ParseError,
    free_vars,
    parse,
    parse_literal_text,
    pretty,
)
from rblam.typecheck import Context, DeltaProfile, Mode, TypingError, synthesize

OK, VIOLATION, INPUT_ERROR = 0, 1, 2
CLOSED_STDOUT = 141  # the status a shell reports for a process that SIGPIPE ends


class InputError(Exception):
    """Input a command refuses; `main` prints it as one `error:` line and
    exits 2."""


def _read_text(path: str, what: str = "") -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not part of the text
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path, "config ").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


MODES = tuple(m.value for m in Mode)
FORMATS = ("text", "json")


def _one_of(what: str, choices: tuple[str, ...], text: str) -> str:
    if text not in choices:
        raise InputError(f"bad {what} {text!r}; expected {' or '.join(choices)}")
    return text


def _fuel(text: str | int, _lattice) -> int:
    text = str(text)  # the flag is already an int
    try:
        if not text.isdecimal():
            raise ValueError(text)
        return int(text)  # refuses numerals of more than 4300 digits
    except ValueError:
        raise InputError(f"bad fuel {text!r}; expected a non-negative integer")


# Every session setting as (flag, config key, parser, the flag's argparse
# options); a parser takes the setting's text and the session lattice. A flag
# beats the config file, which may hold only these keys. The lattice file and
# the lattice name are one setting: the flags' choice beats the file's, and a
# lattice file beats a name given the same way.
SETTINGS = (
    ("lattice_file", "lattice_file", lambda text, _: load_lattice(text),
     {"help": "finite lattice table file"}),
    ("lattice", "lattice", lambda text, _: builtin_lattice(text),
     {"help": "builtin lattice: nat, gas, triple, sat<cap>"}),
    ("delta_app", "delta.app", parse_literal_text, {"help": "application cost literal"}),
    ("delta_if", "delta.if", parse_literal_text, {"help": "conditional cost literal"}),
    ("delta_unbox", "delta.unbox", parse_literal_text, {"help": "unboxing cost literal"}),
    ("delta_proj", "delta.proj", parse_literal_text, {"help": "projection cost literal"}),
    ("budget", "budget", parse_literal_text, {"help": "budget literal, e.g. 100 or (10,10,10)"}),
    ("mode", "mode", lambda text, _: Mode(_one_of("mode", MODES, text)),
     {"choices": MODES, "help": "typing rule set"}),
    ("fuel", "fuel", _fuel, {"type": int, "help": "evaluation fuel (derivation nodes)"}),
    ("format", "format", lambda text, _: _one_of("format", FORMATS, text),
     {"choices": FORMATS, "help": "output format"}),
)
CONFIG_KEYS = tuple(key for _, key, _, _ in SETTINGS)


def _setting_texts(args: argparse.Namespace) -> dict[str, tuple[str, object]]:
    """Each given setting's origin and text by flag name: the flag's, or else
    the config file's key. A lattice named by a flag drops both of the file's
    lattice keys."""
    texts: dict[str, tuple[str, object]] = {}
    if getattr(args, "config", None):
        settings = _read_config(args.config)
        for key in settings:
            if key not in CONFIG_KEYS:
                raise InputError(f"{args.config}: unknown key {key!r}; keys: {', '.join(CONFIG_KEYS)}")
        texts = {flag: (f"{args.config}: {key}", settings[key]) for flag, key, _, _ in SETTINGS if key in settings}
    flags = {flag: ("--" + flag.replace("_", "-"), value)
             for flag, _, _, _ in SETTINGS if (value := getattr(args, flag, None)) is not None}
    if "lattice_file" in flags or "lattice" in flags:
        texts.pop("lattice_file", None)
        texts.pop("lattice", None)
    texts.update(flags)
    return texts


class Session:
    """Resolved lattice, deltas, budget, mode, fuel, and output format. A
    command with delta flags charges costs: it refuses the default deltas
    where they are all bottom although the lattice has elements above it,
    as a table lattice with no unique atom would check no cost at all."""

    def __init__(self, args: argparse.Namespace):
        texts = _setting_texts(args)
        parsers = {flag: parse for flag, _, parse, _ in SETTINGS}
        lattice = None

        def pick(flag: str, default=None):
            if flag not in texts:
                return default
            origin, text = texts[flag]
            try:
                return parsers[flag](text, lattice)
            except (ParseError, InputError) as exc:  # name the origin: a literal's line:col is inside its own text
                raise InputError(f"{origin}: {exc}") from exc

        lattice = pick("lattice_file") if "lattice_file" in texts else pick("lattice", NAT)
        self.lattice: LatticeInstance = lattice
        unit = lattice.unit_step()
        free = unit == lattice.bottom() != lattice.top()  # a bottom unit on a lattice of more than bottom
        if free and hasattr(args, "delta_app") and not any(flag.startswith("delta_") for flag in texts):
            raise InputError(f"lattice {lattice.name!r} has no unique least step above bottom, so "
                             "every default delta is bottom; give --delta-app, --delta-if, "
                             "--delta-unbox and --delta-proj, or the delta.* config keys")
        self.deltas = DeltaProfile(
            app=pick("delta_app", unit), iff=pick("delta_if", unit),
            unbox=pick("delta_unbox", unit), proj=pick("delta_proj", unit),
        )
        budget = pick("budget")
        self.budget = budget if budget is not None else lattice.large_budget()
        self.mode = pick("mode", Mode.SOUND)
        self.fuel = pick("fuel", DEFAULT_FUEL)
        self.format = pick("format", "text")


def _int_at_least(lo: int, hi: int | None = None):
    """argparse type for an integer flag that must be at least `lo`, and at
    most `hi` if given."""

    def parse_int(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value

    parse_int.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse_int


def _session_flags(sub: argparse.ArgumentParser, *taken: str):
    for flag, _, _, options in SETTINGS:
        if flag in taken:
            sub.add_argument("--" + flag.replace("_", "-"), **options)
    sub.add_argument("--config", help="key = value config file; flags override")


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=1))


def _emit(doc: dict, session: Session) -> None:
    if session.format == "json":
        _print_json(doc)
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _json_trace(root, key: str, inst: LatticeInstance) -> list[dict]:
    """An evaluation trace or a typing derivation as JSON: one object per
    node in preorder, with its depth, rule, term and `key` field."""
    return [{"depth": depth, "rule": node.rule, "term": term, key: inst.format(getattr(node, key))}
            for depth, node, term in tree_rows(root)]


def _load_program(path: str, session: Session):
    source = _read_text(path)
    try:
        return parse(source, session.lattice)
    except ParseError as exc:
        raise InputError(f"{path}:{exc}") from exc


def _synthesize(term, session: Session):
    try:
        return synthesize(Context(), term, session.budget, session.mode, session.deltas)
    except TypingError as exc:
        raise InputError(f"type error: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    session = Session(args)
    term = _load_program(args.file, session)
    inst = session.lattice
    j = _synthesize(term, session)
    verdict = "OK" if j.within_budget else "BUDGET-EXCEEDED"
    doc = {
        "type": pretty(j.type),
        "bound": inst.format(j.bound),
        "budget": inst.format(j.budget),
        "verdict": verdict,
    }
    if args.trace and session.format == "json":
        doc["trace"] = _json_trace(j.trace, "bound", inst)
    _emit(doc, session)
    if args.trace and session.format == "text":
        print(format_tree(j.trace, lambda node: f"{node.rule} [{inst.format(node.bound)}] "))
    if not j.within_budget:
        print(
            f"bound {inst.format(j.bound)} exceeds budget {inst.format(j.budget)}",
            file=sys.stderr,
        )
        return VIOLATION
    return OK


def cmd_eval(args: argparse.Namespace) -> int:
    session = Session(args)
    term = _load_program(args.file, session)
    inst = session.lattice
    j = None if args.unsafe_eval else _synthesize(term, session)
    if args.unsafe_eval and (unbound := free_vars(term)):  # worded as the evaluator's stuck variable
        raise InputError(f"stuck: unbound variable {min(unbound)!r}: term is not closed")
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
        raise InputError(f"stuck: {exc}") from exc
    except EvalError as exc:
        raise InputError(f"evaluation error: {exc}") from exc
    except RecursionError as exc:  # a typed program too deep for the limit still raises (ROADMAP defect 1)
        if not args.unsafe_eval:
            raise
        raise InputError("evaluation error: nesting passed the recursion limit; the program may diverge") from exc
    doc = {"value": pretty(result.value), "cost": inst.format(result.cost)}
    code = OK
    if j is not None:
        doc["bound"] = inst.format(j.bound)
        if inst.leq(result.cost, j.bound):
            doc["cost_within_bound"] = "yes"
        else:
            doc["cost_within_bound"] = "SOUNDNESS-VIOLATION"
            code = VIOLATION
    if trace is not None and session.format == "json":
        doc["trace"] = _json_trace(trace, "contribution", inst)
    _emit(doc, session)
    if trace is not None and session.format == "text":
        print(format_trace(trace, inst))
    return code


def cmd_fuzz(args: argparse.Namespace) -> int:
    from rblam.harness import PROPERTIES, GenConfig, report_json, run_properties

    session = Session(args)
    props = args.props.split(",") if args.props else list(PROPERTIES)
    for name in props:
        if name not in PROPERTIES:
            raise InputError(f"unknown property {name!r}; known: {', '.join(PROPERTIES)}")
    if args.hunt and args.props and props != ["cost_soundness"]:
        raise InputError(f"--hunt runs cost_soundness only, not --props {args.props}")
    cfg = GenConfig(
        lattice=session.lattice,
        seed=args.seed,
        count=args.count,
        max_depth=args.depth,
        mode=session.mode,
        allow_fn_var_reuse=args.fn_var_reuse,
        deltas=session.deltas,
    )
    reports = run_properties(cfg, ["cost_soundness"] if args.hunt else props, workers=args.workers)
    if session.format == "json":
        print(report_json(reports, cfg))
    else:
        for r in reports:
            print(r)
            if args.hunt:
                for failure in r.failures[:5]:
                    print(f"  trial {failure.trial}: {failure.observed} minimized to {failure.minimized}"
                          f" with {failure.minimized_observed}")
    passed = all(r.passed for r in reports)
    # the hunt succeeds when it finds a violation
    return OK if passed != args.hunt else VIOLATION


def cmd_model(args: argparse.Namespace) -> int:
    from rblam.model import DenModel, EnumBudget, check_cost_preservation, run_model_checks

    session = Session(args)
    inst = session.lattice
    if not inst.is_finite:
        raise InputError(f"model checks need a finite lattice, got {inst.name!r}")
    enum = EnumBudget(
        deltas=session.deltas,
        max_nat=args.max_nat,
        max_term_size=args.max_term_size,
    )
    report = run_model_checks(inst, enum=enum)
    docs = [report.to_dict()]
    ok = report.passed
    if args.interp_corpus:
        from rblam.harness import GenConfig, gen_typed_term
        cfg = GenConfig(lattice=inst, seed=args.seed, count=args.interp_corpus, mode=Mode.SOUND,
                        deltas=session.deltas)
        corpus = [gen_typed_term(cfg, trial=i) for i in range(args.interp_corpus)]
        cp = check_cost_preservation(corpus, DenModel(inst, session.deltas), Mode.SOUND)
        docs.append({"cost_preservation": cp.to_dict()})
        ok = ok and cp.ok
    if session.format == "json":
        _print_json(docs)
    else:
        print(report)
        if args.interp_corpus:
            print(f"  {cp}")
    return OK if ok else VIOLATION


def _sample_from_range(inst: LatticeInstance, spec: str):
    lo_text, _, hi_text = spec.partition("..")
    # ASCII digits only: int() would also take "1_0", "+3", " 3" and "٣"
    if not all(b.isascii() and b.isdigit() for b in (lo_text, hi_text)):
        raise LatticeError(f"bad sample range {spec!r}; expected LO..HI")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:  # more digits than int() converts
        raise LatticeError(f"bad sample range {spec!r}; expected LO..HI")
    if hi < lo:
        raise LatticeError(f"bad sample range {spec!r}")
    if isinstance(inst, SaturatingNatLattice):  # a sat<cap>'s sample stops at the cap
        if lo > inst.cap:
            raise LatticeError(f"bad sample range {spec!r}; {inst.name} holds 0..{inst.cap}")
        hi = min(hi, inst.cap)
    if isinstance(inst, NatLattice):  # counted before any element is built
        check_element_count(f"sample {spec!r}", hi - lo + 1)
        return [inst.element(i) for i in range(lo, hi + 1)]
    if isinstance(inst, TripleLattice):
        coords = sorted({lo, min(lo + 1, hi), (lo + hi) // 2, hi})
        return [inst.element((a, b, c)) for a in coords for b in coords for c in coords]
    raise LatticeError(f"--sample takes a range only on nat, gas, sat<cap> and triple; "
                       f"omit it to check every element of {inst.name!r}")


def cmd_laws(args: argparse.Namespace) -> int:
    session = Session(args)
    inst = session.lattice
    sample = _sample_from_range(inst, args.sample) if args.sample else None
    report = check_laws(inst, sample)
    if session.format == "json":
        _print_json(report.to_dict())
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
    # every command reads the lattice and the format; one that charges costs reads the deltas
    every = ("lattice_file", "lattice", "format")
    costs = every + ("delta_app", "delta_if", "delta_unbox", "delta_proj")

    p_check = sub.add_parser("check", help="typecheck and verify the bound against the budget")
    p_check.add_argument("file")
    p_check.add_argument("--trace", action="store_true", help="print the derivation tree")
    _session_flags(p_check, *costs, "mode", "budget")
    p_check.set_defaults(handler=cmd_check)

    p_eval = sub.add_parser("eval", help="typecheck then evaluate with cost accounting")
    p_eval.add_argument("file")
    p_eval.add_argument("--trace", action="store_true", help="print the evaluation derivation")
    p_eval.add_argument(
        "--unsafe-eval", action="store_true",
        help="evaluate without typechecking (an open program or a stuck term is an input error)",
    )
    _session_flags(p_eval, *costs, "mode", "fuel")
    p_eval.set_defaults(handler=cmd_eval)

    p_fuzz = sub.add_parser("fuzz", help="run metatheory property suites")
    p_fuzz.add_argument("--count", type=_int_at_least(1), default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    # generation time grows about 1.5x per level, and far deeper terms
    # outgrow the recursion limit
    p_fuzz.add_argument("--depth", type=_int_at_least(1, 32), default=5, help="term depth, 1..32")
    p_fuzz.add_argument("--props", help="comma-separated property names")
    p_fuzz.add_argument("--workers", type=_int_at_least(1), default=1)
    p_fuzz.add_argument("--fn-var-reuse", dest="fn_var_reuse", action="store_true",
                        help="allow repeated use of function-typed variables")
    p_fuzz.add_argument("--hunt", action="store_true",
                        help="expect cost-soundness violations; exit 0 only if found")
    _session_flags(p_fuzz, *costs, "mode")
    p_fuzz.set_defaults(handler=cmd_fuzz)

    p_model = sub.add_parser("model", help="finite-lattice semantic checks")
    p_model.add_argument("--max-nat", type=_int_at_least(0), default=3)
    p_model.add_argument("--max-term-size", type=_int_at_least(0), default=7)
    p_model.add_argument("--interp-corpus", type=_int_at_least(0), default=0,
                         help="also check cost preservation on a generated corpus")
    p_model.add_argument("--seed", type=int, default=0)
    _session_flags(p_model, *costs)
    p_model.set_defaults(handler=cmd_model)

    p_laws = sub.add_parser("laws", help="check the lattice axioms over a sample")
    p_laws.add_argument("--sample", help="numeric sample range on nat, gas, sat<cap> or triple, e.g. 0..50")
    _session_flags(p_laws, *every)
    p_laws.set_defaults(handler=cmd_laws)

    for command in sub.choices.values():  # main shows a command's own usage for an argument it does not take
        command.set_defaults(command_parser=command)
    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the flush
    at exit does not meet the closed pipe again. A stdout without one is
    left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        if rest:
            args.command_parser.error(f"unrecognized arguments: {' '.join(rest)}")
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:  # argparse's --help, or a usage error it has printed
        return exc.code if isinstance(exc.code, int) else INPUT_ERROR
    except (InputError, LatticeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BrokenPipeError:  # the reader closed stdout, as `rblam ... | head -1` does
        _discard_stdout()
        return CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
