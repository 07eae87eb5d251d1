"""Deep programs through the CLI, trace text against a per-node reference
printer, and the cost of evaluation and trace printing measured in calls."""

import inspect
import json
import sys

import pytest

from rblam import interp, syntax
from rblam.cli import main
from rblam.harness import GenConfig, gen_typed_term, minimize
from rblam.interp import CostedResult, evaluate, evaluate_trace, format_trace, format_tree
from rblam.lattice import NAT, TRIPLE
from rblam.syntax import App, Bool, FF, If, Lam, TT, Var, parse
from rblam.typecheck import Context, DeltaProfile, Mode, derive, synthesize

from reference_printers import reference_pretty

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


def ref_lines(root, label):
    lines, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{label(node)}{reference_pretty(node.term)}")
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


def test_deep_parses_compare_hash_and_print_alike(fresh_python):
    # the largest let-chain the parser takes and a deep nested if: `==` and
    # `repr` of two parses must fit below the default recursion limit. A
    # fresh interpreter runs them, so pytest's own frames do not count
    code = """
import json, sys
from rblam.lattice import NAT
from rblam.syntax import parse
assert sys.getrecursionlimit() == 1000
for source in json.load(sys.stdin):
    a, b = parse(source, NAT), parse(source, NAT)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
"""
    run = fresh_python(code, json.dumps([let_chain(246), nested_if(330)]))
    assert run.returncode == 0, run.stderr[-2000:]


def test_alpha_eq_and_rename_binders_at_the_deepest_programs(fresh_python):
    # the deepest let-chain and nested if the parser takes, 246 and 328,
    # built directly. alpha_eq compares two renamings with record `==`,
    # which spends two recursion units per level; rename_binders spends one,
    # so it also takes a nested if of 900. A fresh interpreter runs them, so
    # pytest's own frames do not count
    code = inspect.getsource(let_chain_term) + inspect.getsource(nested_if_term) + """
import sys
from rblam.syntax import App, Bool, FF, If, Lam, TT, Var, alpha_eq, rename_binders
assert sys.getrecursionlimit() == 1000
lets, ifs = let_chain_term(246), nested_if_term(328)
assert alpha_eq(lets, rename_binders(lets)) and alpha_eq(ifs, rename_binders(ifs))
assert not alpha_eq(lets, ifs)
deepest = nested_if_term(900)
assert rename_binders(deepest).cond == deepest.cond
"""
    run = fresh_python(code)
    assert run.returncode == 0, run.stderr[-2000:]


def test_minimize_a_deep_term_at_the_default_recursion_limit():
    # a nested if of depth 300, the deepest program CI checks. Each pass
    # rejects the leaves and the three deep hoists bound 4m + 3, 4m + 2 and
    # 4m + 1, then accepts the hoist bound 4m, down to nested_if(4). Keying
    # and comparing candidates must spend no frame per nesting level
    assert sys.getrecursionlimit() == 1000
    bounds = []

    def bound_a_positive_multiple_of_four(d):
        bounds.append(d.bound.payload)
        return d.bound.payload % 4 == 0 < d.bound.payload

    cfg = GenConfig(lattice=NAT, seed=0, mode=Mode.PAPER)
    minimized = minimize(nested_if_term(300), bound_a_positive_multiple_of_four, cfg)
    assert minimized == nested_if_term(4)
    assert [b for b in bounds if b > 4] == list(range(299, 4, -1))
