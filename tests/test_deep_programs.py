"""Deep programs through the CLI, trace text against a per-node reference
printer, and the cost of evaluation and trace printing measured in calls."""

import sys

import pytest

from rblam import interp, syntax
from rblam.cli import main
from rblam.harness import GenConfig, gen_typed_term
from rblam.interp import CostedResult, evaluate, evaluate_trace, format_trace, format_tree
from rblam.lattice import NAT, TRIPLE
from rblam.syntax import (
    App,
    Bool,
    BoxT,
    FF,
    Fst,
    If,
    Lam,
    NatLit,
    Pair,
    Snd,
    TT,
    Unbox,
    Var,
    parse,
    pretty_type,
)
from rblam.typecheck import Context, DeltaProfile, Mode, derive, synthesize

N = 225  # the largest let-chain the recursive parser and evaluator take


def let_chain(n):
    """(lam v1 : Bool . (lam v2 : Bool . ... (lam vn : Bool . vn) v{n-1} ...) v1) tt:
    n applications, value tt, k = b = n."""
    body = f"v{n}"
    for i in range(n, 0, -1):
        body = f"(lam v{i} : Bool . {body}) {'tt' if i == 1 else f'v{i - 1}'}"
    return body


def nested_if(n):
    """n conditionals, each taking the nested branch: value ff, k = b = n."""
    body = "ff"
    for i in range(n):
        body = f"if tt then {body} else tt" if i % 2 == 0 else f"if ff then ff else {body}"
    return body


FAMILIES = {"let": (let_chain, "tt"), "if": (nested_if, "ff")}


# A printer that prints every node afresh, kept as the reference for the
# trace text.
_ATOMIC = (Var, TT, FF, NatLit, Pair)


def ref_pretty(t):
    match t:
        case Var(name):
            return name
        case Lam(name, annot, body):
            return f"lam {name} : {pretty_type(annot)} . {ref_pretty(body)}"
        case App(fn, arg):
            fn_s = ref_pretty(fn) if isinstance(fn, (App,) + _ATOMIC) else ref_atom(fn)
            return f"{fn_s} {ref_atom(arg)}"
        case Pair(a, b):
            return f"({ref_pretty(a)}, {ref_pretty(b)})"
        case Fst(arg):
            return f"fst {ref_atom(arg)}"
        case Snd(arg):
            return f"snd {ref_atom(arg)}"
        case If(c, a, b):
            return f"if {ref_pretty(c)} then {ref_pretty(a)} else {ref_pretty(b)}"
        case TT():
            return "tt"
        case FF():
            return "ff"
        case NatLit(n):
            return str(n)
        case BoxT(grade, body):
            return f"box[{grade.instance.format(grade)}] {ref_atom(body)}"
        case Unbox(arg):
            return f"unbox {ref_atom(arg)}"
    raise TypeError(f"not a term: {t!r}")


def ref_atom(t):
    return ref_pretty(t) if isinstance(t, _ATOMIC) else f"({ref_pretty(t)})"


def ref_lines(root, label):
    lines, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{label(node)}{ref_pretty(node.term)}")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines) + "\n"


def ref_eval_trace(term, inst):
    _, trace = evaluate_trace(term, DeltaProfile.default(inst))
    return ref_lines(trace, lambda node: f"{node.rule} +{inst.format(node.contribution)}  ")


def ref_derivation(term, inst):
    j = synthesize(Context(), term, inst.large_budget(), Mode.SOUND, DeltaProfile.default(inst))
    return ref_lines(j.trace, lambda node: f"{node.rule} [{inst.format(node.bound)}] ")


@pytest.fixture
def write(tmp_path):
    def write(name, source):
        path = tmp_path / f"{name}.rb"
        path.write_text(source + "\n")
        return str(path)

    return write


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("trace", [False, True])
class TestDeepPrograms:
    def test_eval(self, fam, trace, write, capsys):
        build, value = FAMILIES[fam]
        path = write(fam, build(N))
        code = main(["eval", path, "--lattice", "nat"] + (["--trace"] if trace else []))
        out = capsys.readouterr().out
        assert code == 0
        doc = f"value: {value}\ncost: {N}\nbound: {N}\ncost_within_bound: yes\n"
        assert out == doc + (ref_eval_trace(parse(build(N), NAT), NAT) if trace else "")

    def test_check(self, fam, trace, write, capsys):
        build, _ = FAMILIES[fam]
        path = write(fam, build(N))
        budget = f"({N},0,0)"
        code = main(["check", path, "--lattice", "triple", "--budget", budget] + (["--trace"] if trace else []))
        out = capsys.readouterr().out
        assert code == 0
        doc = f"type: Bool\nbound: ({N},0,0)\nbudget: {budget}\nverdict: OK\n"
        assert out == doc + (ref_derivation(parse(build(N), TRIPLE), TRIPLE) if trace else "")


@pytest.mark.parametrize("lattice", ["nat", "triple"])
def test_generated_traces_match_the_reference(lattice, write, capsys):
    inst = NAT if lattice == "nat" else TRIPLE
    cfg = GenConfig(lattice=inst, seed=11, count=100, max_depth=6)
    for i in range(100):
        term = gen_typed_term(cfg, trial=i)
        path = write(f"gen{i}", syntax.pretty(term))
        parsed = parse(syntax.pretty(term), inst)
        assert main(["eval", path, "--lattice", lattice, "--trace"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n", 4)[4] == ref_eval_trace(parsed, inst), syntax.pretty(term)
        budget = inst.format(inst.large_budget())
        assert main(["check", path, "--lattice", lattice, "--budget", budget, "--trace"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n", 4)[4] == ref_derivation(parsed, inst), syntax.pretty(term)


def count_calls(monkeypatch, module, name, *also):
    """Count the calls of `module.name`, recursive ones included; `also`
    lists further modules that bound the same function by import."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod in (module,) + also:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_evaluation_and_trace_printing_scale_linearly(monkeypatch, capsys):
    # The counting wrapper adds a frame per nesting level, so the sizes stay
    # well below N.
    deltas = DeltaProfile.default(NAT)
    substs, eval_prints, check_prints = [], [], []
    for n in (50, 100):
        term = parse(let_chain(n), NAT)
        with monkeypatch.context() as m:
            calls = count_calls(m, syntax, "_subst")
            assert evaluate(term, deltas).cost == NAT.element(n)
            substs.append(calls[0])
        _, trace = evaluate_trace(term, deltas)
        with monkeypatch.context() as m:
            calls = count_calls(m, syntax, "pretty", interp)
            format_trace(trace, NAT)
            eval_prints.append(calls[0])
        deriv = synthesize(Context(), term, NAT.large_budget(), Mode.SOUND, deltas).trace
        with monkeypatch.context() as m:
            calls = count_calls(m, syntax, "pretty", interp)
            format_tree(deriv, lambda node: "")
            check_prints.append(calls[0])
    capsys.readouterr()
    for counts in (substs, eval_prints, check_prints):
        assert counts[1] <= 2.2 * counts[0], counts


def nested_if_term(n):
    """nested_if(n), built without the parser."""
    body = FF()
    for i in range(n):
        body = If(TT(), body, TT()) if i % 2 == 0 else If(FF(), FF(), body)
    return body


def let_chain_term(n):
    """let_chain(n), built without the parser: 2n nesting levels."""
    body = Var(f"v{n}")
    for i in range(n, 0, -1):
        body = App(Lam(f"v{i}", Bool(), body), TT() if i == 1 else Var(f"v{i - 1}"))
    return body


@pytest.mark.parametrize("build, n, value", [(nested_if_term, 900, FF()), (let_chain_term, 450, TT())])
def test_rules_take_one_frame_per_nesting_level(build, n, value):
    # 900 levels fit below the default recursion limit only if typing and
    # evaluation spend one frame per level: rules that recursed through
    # derive or evaluate would need twice as many. The parser takes more
    # frames per level, so the CLI stops at N and at 300 nested ifs
    assert sys.getrecursionlimit() == 1000
    term = build(n)
    deltas = DeltaProfile.default(NAT)
    deriv = derive(Context(), term, Mode.SOUND, deltas, NAT)
    assert (deriv.type, deriv.bound) == (Bool(), NAT.element(n))
    assert evaluate(term, deltas) == CostedResult(value, NAT.element(n))
