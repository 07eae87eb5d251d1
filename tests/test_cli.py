import argparse
import hashlib
import io
import json
import pathlib
import re
import shlex
import sys

import pytest

from rblam import cli, harness, interp, model
from rblam.cli import main
from rblam.lattice import MAX_CHECKED_ELEMENTS, SaturatingNatLattice
from rblam.syntax import BoxT, free_vars, pretty, substitute

IF_EXAMPLE = "if tt then ff else tt\n"
APP_EXAMPLE = "(lam x : Bool . if x then ff else tt) tt\n"
WITNESS = "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)\n"


@pytest.fixture
def program(tmp_path):
    def write(source, name="prog.rb"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


class TestCheck:
    def test_within_budget(self, program, capsys):
        code = main(["check", program(IF_EXAMPLE), "--lattice", "nat", "--budget", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "type: Bool" in out and "bound: 1" in out and "verdict: OK" in out

    def test_budget_exceeded(self, program, capsys):
        code = main(["check", program(IF_EXAMPLE), "--lattice", "nat", "--budget", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bound 1 exceeds budget 0" in captured.err

    def test_ill_formed_file(self, program, capsys):
        code = main(["check", program("if tt then"), "--lattice", "nat"])
        assert code == 2

    def test_type_error(self, program, capsys):
        code = main(["check", program("tt ff"), "--lattice", "nat"])
        captured = capsys.readouterr()
        assert code == 2
        assert "type error" in captured.err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/prog.rb", "--lattice", "nat"]) == 2

    def test_json_format(self, program, capsys):
        code = main(["check", program(IF_EXAMPLE), "--lattice", "nat", "--budget", "7", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc == {"type": "Bool", "bound": "1", "budget": "7", "verdict": "OK"}

    def test_trace(self, program, capsys):
        code = main(["check", program(IF_EXAMPLE), "--lattice", "nat", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "If" in out and "Const" in out

    def test_json_trace_is_one_document_with_the_text_traces_rows(self, program, capsys):
        path = program(WITNESS)
        assert main(["check", path, "--mode", "paper", "--trace"]) == 0
        text = capsys.readouterr().out.splitlines()[4:]
        assert main(["check", path, "--mode", "paper", "--trace", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "OK" and len(doc["trace"]) == len(text) == 14
        assert [f"{'  ' * row['depth']}{row['rule']} [{row['bound']}] {row['term']}" for row in doc["trace"]] == text
        assert all(row.keys() == {"depth", "rule", "term", "bound"} for row in doc["trace"])

    def test_triple_lattice_budget_literal(self, program, capsys):
        code = main(
            ["check", program(IF_EXAMPLE), "--lattice", "triple", "--budget", "(2,2,2)"]
        )
        assert code == 0
        assert "bound: (1,0,0)" in capsys.readouterr().out

    def test_huge_saturating_cap(self, program, capsys):
        # a sat<N> lattice builds its elements as they are used, not all N + 1
        code = main(["check", program(IF_EXAMPLE), "--lattice", "sat1000000000"])
        assert code == 0
        assert "budget: 1000000000" in capsys.readouterr().out


class TestEval:
    def test_value_and_cost(self, program, capsys):
        code = main(["eval", program(APP_EXAMPLE), "--lattice", "nat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: ff" in out and "cost: 2" in out and "cost_within_bound: yes" in out

    def test_value_input_costs_nothing(self, program, capsys):
        code = main(["eval", program("box[3] tt\n"), "--lattice", "nat"])
        out = capsys.readouterr().out
        assert code == 0 and "cost: 0" in out

    def test_paper_witness_flags_soundness_violation(self, program, capsys):
        code = main(["eval", program(WITNESS), "--lattice", "nat", "--mode", "paper"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SOUNDNESS-VIOLATION" in out and "cost: 5" in out and "bound: 4" in out

    def test_sound_mode_witness_is_within_bound(self, program, capsys):
        annotated = WITNESS.replace("Bool -> Bool", "Bool -[1]-> Bool")
        code = main(["eval", program(annotated), "--lattice", "nat", "--mode", "sound"])
        out = capsys.readouterr().out
        assert code == 0 and "cost: 5" in out and "bound: 5" in out

    def test_default_mode_reads_a_bare_arrow_as_latent_bottom(self, program, capsys):
        # the README's two sound-mode runs of the witness, without --mode
        assert main(["eval", program(WITNESS)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: type error: argument type Bool -[1]-> Bool does not match domain Bool -> Bool\n"
        annotated = WITNESS.replace("lam f : Bool -> Bool", "lam f : Bool -[1]-> Bool")
        assert main(["eval", program(annotated)]) == 0
        assert capsys.readouterr().out == "value: (ff, ff)\ncost: 5\nbound: 5\ncost_within_bound: yes\n"

    def test_refuses_ill_typed(self, program, capsys):
        assert main(["eval", program("fst tt"), "--lattice", "nat"]) == 2

    def test_unsafe_eval_reports_stuck_as_input_error(self, program, capsys):
        code = main(["eval", program("fst tt"), "--lattice", "nat", "--unsafe-eval"])
        captured = capsys.readouterr()
        assert code == 2
        assert "stuck" in captured.err

    @pytest.mark.parametrize(
        "source",
        ["lam z : Bool . y", "(lam f : Bool -> Bool . f) (lam z : Bool . y)", "(lam x : Bool . y) tt"],
        ids=["open value", "open argument", "open body"],
    )
    def test_unsafe_eval_refuses_an_open_program(self, program, capsys, source):
        code = main(["eval", program(source), "--lattice", "nat", "--unsafe-eval"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: stuck: unbound variable 'y': term is not closed\n"

    def test_typed_term_that_gets_stuck_is_an_internal_failure(self, program, monkeypatch, capsys):
        # an evaluator whose box rule drops the box: the typed unbox gets
        # stuck, which is the evaluator's fault, not the input's
        monkeypatch.setitem(interp.RULES, BoxT, lambda t, *rest: interp.RULES[t.body.__class__](t.body, *rest))
        code = main(["eval", program("unbox (box[0] tt)"), "--lattice", "nat"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "internal invariant failure: typed term got stuck: unbox of non-box value tt\n"

    def test_eval_trace(self, program, capsys):
        code = main(["eval", program(APP_EXAMPLE), "--lattice", "nat", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "App +1" in out and "IfT +1" in out

    def test_json_trace_is_one_document_with_the_text_traces_rows(self, program, capsys):
        path = program(WITNESS)
        assert main(["eval", path, "--mode", "paper", "--trace"]) == 1
        text = capsys.readouterr().out.splitlines()[4:]
        assert main(["eval", path, "--mode", "paper", "--trace", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost_within_bound"] == "SOUNDNESS-VIOLATION" and len(doc["trace"]) == len(text) > 10
        assert [f"{'  ' * row['depth']}{row['rule']} +{row['contribution']}  {row['term']}"
                for row in doc["trace"]] == text
        assert all(row.keys() == {"depth", "rule", "term", "contribution"} for row in doc["trace"])

    def test_unsafe_eval_of_a_divergent_program_is_an_input_error(self, program, capsys):
        # fuel does not end the run; the recursion limit does
        code = main(["eval", program("(lam x : Bool . x x) (lam x : Bool . x x)"), "--unsafe-eval"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: evaluation error: nesting passed the recursion limit; the program may diverge\n"

    def test_a_typed_program_still_raises_past_the_recursion_limit(self, program, monkeypatch, capsys):
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "evaluate", too_deep)
        with pytest.raises(RecursionError):
            main(["eval", program(IF_EXAMPLE)])
        assert main(["eval", program(IF_EXAMPLE), "--unsafe-eval"]) == 2


class TestSubstitutedValues:
    def test_every_substituted_value_is_closed(self, monkeypatch, capsys):
        # evaluation, the substitution suite and the model substitute only
        # closed values, so `substitute` needs no capture-avoiding path
        calls, open_values = [0], []

        def spy(t, name, v):
            calls[0] += 1
            if free_vars(v):
                open_values.append(pretty(v))
            return substitute(t, name, v)

        for module in (interp, harness, model):
            monkeypatch.setattr(module, "substitute", spy)
        runs = [
            ["fuzz", "--count", "60", "--seed", "7"],
            ["fuzz", "--count", "60", "--seed", "7", "--lattice", "triple"],
            ["fuzz", "--hunt", "--mode", "paper", "--fn-var-reuse", "--count", "200"],
            ["model", "--lattice", "sat2", "--interp-corpus", "50"],
        ]
        assert [main(argv) for argv in runs] == [0, 0, 0, 0]
        capsys.readouterr()
        assert calls[0] > 1000
        assert open_values == []


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_carries_over_between_calls(self, program, capsys):
        witness = program(WITNESS)
        assert main(["eval", witness, "--trace", "--mode", "paper"]) == 1
        out = capsys.readouterr().out
        assert "cost_within_bound: SOUNDNESS-VIOLATION" in out and "App +1" in out
        # the default mode is sound again, which rejects the witness
        assert main(["eval", witness]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "type error" in captured.err
        assert main(["eval", witness, "--mode", "fast"]) == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err
        assert main(["eval", program(APP_EXAMPLE, "app.rb")]) == 0
        assert capsys.readouterr().out == "value: ff\ncost: 2\nbound: 2\ncost_within_bound: yes\n"


class TestFuzz:
    def test_small_clean_run(self, capsys):
        code = main(["fuzz", "--count", "60", "--seed", "3", "--mode", "sound"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("pass") == 6

    def test_selected_properties(self, capsys):
        code = main(["fuzz", "--count", "40", "--seed", "3", "--props", "determinism,box_laws"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_unknown_property(self, capsys):
        assert main(["fuzz", "--count", "10", "--props", "bogus"]) == 2

    def test_suite_listed_twice_reports_twice(self, capsys):
        # one report per listed name: the two runs share each trial's
        # generation, not their failures
        code = main(["fuzz", "--props", "cost_soundness,cost_soundness", "--mode", "paper",
                     "--fn-var-reuse", "--count", "200", "--seed", "7", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(p["property"], p["failure_count"]) for p in doc["properties"]] == [("cost_soundness", 29)] * 2

    def test_hunt_finds_violations(self, capsys):
        code = main([
            "fuzz", "--count", "400", "--seed", "6", "--mode", "paper",
            "--fn-var-reuse", "--hunt",
        ])
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

    def test_hunt_line_gives_the_minimized_terms_own_cost_and_bound(self, capsys):
        code = main(["fuzz", "--hunt", "--mode", "paper", "--fn-var-reuse", "--count", "50", "--lattice", "triple"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "cost_soundness: FAIL (4 failures) over 50 trials"
        assert lines[1] == (
            "  trial 14: {'cost': '(12,0,0)', 'bound': '(8,0,0)', 'budget': '(1000000,1000000,1000000)'}"
            " minimized to (lam x2 : Bool -> Bool . (tt, x2 (x2 ff))) (lam x1 : Bool . if x1 then ff else tt)"
            " with {'bound': '(4,0,0)', 'cost': '(5,0,0)'}"
        )

    def test_hunt_without_reuse_reports_none(self, capsys):
        code = main([
            "fuzz", "--count", "200", "--seed", "6", "--mode", "paper", "--hunt",
        ])
        assert code == 1

    def test_json_report_parses_and_is_stable(self, capsys):
        argv = ["fuzz", "--count", "80", "--seed", "5", "--format", "json",
                "--props", "cost_soundness,preservation"]
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        code = main(argv)
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert {p["property"] for p in doc["properties"]} == {"cost_soundness", "preservation"}


class TestModel:
    def test_lattice_file(self, data_dir, capsys):
        code = main(["model", "--lattice-file", str(data_dir / "chain2.lat")])
        out = capsys.readouterr().out
        assert code == 0
        assert "model checks over chain2: pass" in out

    def test_infinite_lattice_rejected(self, capsys):
        code = main(["model", "--lattice", "nat"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_saturating_with_interp_corpus(self, capsys):
        code = main(["model", "--lattice", "sat2", "--interp-corpus", "40", "--format", "json"])
        docs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert docs[0]["passed"] is True
        assert docs[1]["cost_preservation"]["ok"] is True

    def test_text_report_with_interp_corpus_is_text(self, capsys):
        code = main(["model", "--lattice", "sat2", "--interp-corpus", "30"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert not [line for line in lines if line.startswith("{")]
        assert lines[-1] == "  cost-preservation[sound]: pass (90 cases)"

    def test_interp_corpus_uses_session_lattice_and_deltas(self, monkeypatch, capsys):
        seen = []
        real = model.check_cost_preservation

        def spy(corpus, m, mode):
            seen.append((corpus, m))
            return real(corpus, m, mode)

        monkeypatch.setattr(model, "check_cost_preservation", spy)
        code = main(["model", "--lattice", "sat3", "--delta-app", "2", "--interp-corpus", "30"])
        assert code == 0
        [(corpus, m)] = seen
        assert len(corpus) == 30
        assert m.lattice.name == "sat3"
        assert m.deltas.app == m.lattice.element(2)
        assert m.deltas.iff == m.lattice.element(1)

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_size_without_lambda_bodies_is_not_exhaustive(self, capsys, size):
        code = main(["model", "--lattice", "sat2", "--max-term-size", size, "--format", "json"])
        docs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert docs[0]["universe"]["exhaustive"] is False

    @pytest.mark.parametrize("command", ["check", "eval", "fuzz", "model"])
    def test_all_bottom_default_deltas_are_an_input_error(self, program, data_dir, capsys, command):
        # diamond's two atoms leave no unit step, so each default delta is
        # bottom and nothing would cost anything
        argv = [command] + ([program(IF_EXAMPLE)] if command in ("check", "eval") else [])
        argv += ["--lattice-file", str(data_dir / "diamond.lat")] + (["--count", "5"] if command == "fuzz" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: lattice 'diamond' has no unique least step above bottom")
        assert "--delta-app, --delta-if, --delta-unbox and --delta-proj" in captured.err

    @pytest.mark.parametrize("how", ["flags", "config"])
    def test_given_deltas_run_on_a_lattice_without_a_unit_step(self, program, data_dir, tmp_path, capsys, how):
        argv = ["eval", program(IF_EXAMPLE), "--lattice-file", str(data_dir / "diamond.lat")]
        if how == "flags":
            argv += ["--delta-if", "b"]
        else:
            cfg = tmp_path / "session.cfg"
            cfg.write_text("delta.if = b\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        assert "cost: b\n" in capsys.readouterr().out

    def test_a_one_element_lattice_needs_no_deltas(self, capsys):
        # sat0's unit step is bottom too, but nothing sits above bottom
        assert main(["model", "--lattice", "sat0"]) == 0

    @pytest.mark.parametrize("mode", ["paper", "sound"])
    def test_mode_is_an_input_error(self, capsys, mode):
        # the tabulation types in paper mode and --interp-corpus in sound
        # mode whatever the flag says, so model takes no --mode: the flag is
        # refused, not ignored
        code = main(["model", "--lattice", "sat2", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unrecognized arguments: --mode" in captured.err and "Traceback" not in captured.err


class TestStartUp:
    """A process loads the modules its command uses, and no others."""

    def test_importing_every_layer_loads_no_process_pool(self, fresh_python):
        code = """
import sys
import rblam.cli, rblam.harness, rblam.interp, rblam.lattice, rblam.model, rblam.syntax, rblam.typecheck
pools = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
assert not pools, pools
"""
        run = fresh_python(code)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("command", ["check", "eval", "laws", "model"])
    def test_check_eval_and_laws_load_neither_harness_nor_model(self, fresh_python, program, command):
        # the model, an oracle independent of the generator, loads no harness
        argv = [command] + {"laws": ["--sample", "0..5"], "model": ["--lattice", "sat2"]}.get(
            command, [program(APP_EXAMPLE)])
        unloaded = ["rblam.harness"] + (["rblam.model"] if command != "model" else [])
        code = """
import json, sys
from rblam.cli import main
argv, unloaded = json.load(sys.stdin)
status = main(argv)
loaded = sorted(m for m in unloaded if m in sys.modules)
assert status == 0 and not loaded, (status, loaded)
"""
        run = fresh_python(code, json.dumps([argv, unloaded]))
        assert run.returncode == 0, run.stderr


class TestGoldenReports:
    """Seeded fuzz reports, and model and laws reports, pinned byte for byte.
    A change to the generated term stream, to the minimizer, to the section
    families or to the law checker changes these digests; update them only
    for a deliberate change of that kind."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["fuzz", "--count", "200", "--seed", "42", "--lattice", "triple", "--format", "json"],
             "1fa5ca99cbdb268c57c539e31d52939bc0b087083256dd8c1e4bfd218dd62ea7"),
            (["fuzz", "--hunt", "--mode", "paper", "--fn-var-reuse", "--count", "300", "--seed", "5",
              "--format", "json"],
             "bc28c03b6e58f865692c528a041c09fc5b4eabde840229b83718df3b4437be93"),
            (["model", "--lattice", "sat2", "--interp-corpus", "300", "--format", "json"],
             "2c14537882ab452d42c156aeb624a00e841a84d9fd73f490d8b74597e63ef2d9"),
            # diamond has no unique atom, so its deltas are given: one atom, a
            (["model", "--lattice-file", "DATA/diamond.lat", "--delta-app", "a", "--delta-if", "a",
              "--delta-unbox", "a", "--delta-proj", "a", "--format", "json"],
             "51a858978da663002851e67b553e62ab89e0c5c3ac80bf6da06dfcfce5725173"),
            (["model", "--lattice", "sat5", "--format", "json"],
             "caa0dbaef347f2f6b32d9c7bb6ea7fdf9efaf00c35131a424b9c83adce4e5bea"),
            (["model", "--lattice-file", "DATA/chain3.lat", "--format", "json"],
             "d9cfa95a5de662338e05cf50e0d50b358121a19c551729598623b88a81644b15"),
            (["laws", "--lattice", "triple", "--sample", "0..6", "--format", "json"],
             "fa8927672f8ebafee500abd9a4b6f27fbb474713d7c4bba901981e7db7c6d12e"),
            (["laws", "--lattice-file", "DATA/diamond.lat", "--format", "json"],
             "c752bb3f3b421e45c07b5cfd80486bb16c8bfaa7e9f4df677233213ef4ef3026"),
        ],
        ids=["fuzz-triple", "hunt-paper", "model-sat2", "model-diamond", "model-sat5", "model-chain3", "laws-triple",
             "laws-diamond"],
    )
    def test_report_digest(self, capsys, data_dir, argv, digest):
        main([a.replace("DATA", str(data_dir)) for a in argv])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLaws:
    def test_nat_range(self, capsys):
        code = main(["laws", "--lattice", "nat", "--sample", "0..20"])
        assert code == 0
        assert "laws for nat" in capsys.readouterr().out

    def test_triple_sample(self, capsys):
        assert main(["laws", "--lattice", "triple", "--sample", "0..6"]) == 0

    @pytest.mark.parametrize("spec, size", [("2..2", 1), ("2..3", 8)])
    def test_triple_sample_stays_in_range(self, capsys, spec, size):
        # coordinates come from {lo, lo + 1, midpoint, hi}, none above hi
        assert main(["laws", "--lattice", "triple", "--sample", spec, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == size

    def test_finite_defaults_to_all(self, data_dir, capsys):
        assert main(["laws", "--lattice-file", str(data_dir / "diamond.lat")]) == 0

    def test_finite_rejects_a_sample_range(self, data_dir, capsys):
        # a table lattice has no numeric range: the flag is refused, not ignored
        code = main(["laws", "--lattice-file", str(data_dir / "diamond.lat"), "--sample", "0..1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_saturating_sample_clamps_to_the_cap(self, capsys):
        assert main(["laws", "--lattice", "sat3", "--sample", "0..10", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == 4

    def test_json(self, capsys):
        code = main(["laws", "--lattice", "sat5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["passed"] is True

    def test_bad_range(self, capsys):
        assert main(["laws", "--lattice", "nat", "--sample", "oops"]) == 2

    @pytest.mark.parametrize("spec", ["0..1_0", "0..٣", "0..+3", " 0..3", "0..3 ", "-1..3", "0..", "0x1..3",
                                      pytest.param("0.." + "7" * 5000, id="0..5000 digits")])
    def test_range_bounds_are_ascii_digits(self, capsys, spec):
        # int() reads "1_0" as 10 and takes signs, blanks and other scripts'
        # digits; a bound is ASCII digits only, and no more than int() converts
        assert main(["laws", "--lattice", "nat", f"--sample={spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad sample range {spec!r}; expected LO..HI\n"
        assert captured.out == ""

    def test_reversed_range(self, capsys):
        assert main(["laws", "--lattice", "nat", "--sample", "5..3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad sample range '5..3'\n" and captured.out == ""

    @pytest.mark.parametrize("spec", ["4..4", "5..9"])
    def test_range_wholly_above_a_saturating_cap(self, capsys, spec):
        assert main(["laws", "--lattice", "sat3", "--sample", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad sample range {spec!r}; sat3 holds 0..3\n" and captured.out == ""

    def test_infinite_without_sample(self, capsys):
        assert main(["laws", "--lattice", "nat"]) == 2

    @pytest.mark.parametrize("argv, what", [
        (["laws", "--lattice", "nat", "--sample", "0..64"], "sample '0..64'"),
        (["laws", "--lattice", "gas", "--sample", "10..74"], "sample '10..74'"),
        (["laws", "--lattice", "sat70", "--sample", "6..90"], "sample '6..90'"),
        (["laws", "--lattice", "sat64"], "lattice 'sat64'"),
        (["model", "--lattice", "sat64"], "lattice 'sat64'"),
    ])
    def test_one_element_past_the_limit_is_an_input_error(self, monkeypatch, capsys, argv, what):
        # the elements are counted before any is built, so no lattice is enumerated
        monkeypatch.setattr(SaturatingNatLattice, "enumerate", lambda self: pytest.fail("enumerated"))
        assert MAX_CHECKED_ELEMENTS == 64
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {what} has 65 elements; law and model checks take at most 64\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lattice, spec, size", [("nat", "0..50", 51), ("triple", "0..9", 64)])
    def test_limit_admits_the_readme_range_and_every_triple_sample(self, capsys, lattice, spec, size):
        # README's example, and a triple sample of four coordinates: 64 elements, at the limit
        assert main(["laws", "--lattice", lattice, "--sample", spec, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == size


class TestConfigFile:
    def test_config_supplies_session(self, program, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("lattice = nat\nbudget = 100\nmode = paper\n# comment\ndelta.if = 2\n")
        code = main(["check", program(IF_EXAMPLE), "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound: 2" in out  # delta.if raised to 2 by the config

    def test_flags_override_config(self, program, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("budget = 0\n")
        code = main(["check", program(IF_EXAMPLE), "--config", str(cfg), "--budget", "100"])
        assert code == 0

    def test_malformed_config(self, program, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("latticenat\n")
        assert main(["check", program(IF_EXAMPLE), "--config", str(cfg)]) == 2

    def test_unknown_key_is_an_input_error(self, program, tmp_path, capsys):
        # a misspelled budget must not check against the default budget
        cfg = tmp_path / "session.cfg"
        cfg.write_text("budgett = 0\n")
        code = main(["check", program(IF_EXAMPLE), "--lattice", "nat", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: unknown key 'budgett'") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, flags, name",
        [
            ("lattice_file = DATA/chain2.lat", ["--lattice", "sat2"], "sat2"),
            ("lattice = sat2", ["--lattice-file", "DATA/chain2.lat"], "chain2"),
            ("lattice = sat2", [], "sat2"),
            ("lattice_file = DATA/chain2.lat", [], "chain2"),
            ("lattice = sat2\nlattice_file = DATA/chain2.lat", [], "chain2"),
            ("lattice_file = DATA/chain2.lat", ["--lattice", "sat3", "--lattice-file", "DATA/diamond.lat"], "diamond"),
        ],
        ids=["flag name over file table", "flag table over file name", "file name", "file table",
             "file table over file name", "flag table over flag name"],
    )
    def test_lattice_flag_beats_config_lattice(self, tmp_path, data_dir, capsys, line, flags, name):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(line.replace("DATA", str(data_dir)) + "\n")
        flags = [f.replace("DATA", str(data_dir)) for f in flags]
        assert main(["laws", "--config", str(cfg)] + flags) == 0
        assert capsys.readouterr().out.startswith(f"laws for {name} ")

    def test_readme_lists_the_config_keys(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        [listed] = re.findall(r"lines \(keys: ([^)]*)\)", readme.replace("\n", " "))
        keys = [k.strip(" `") for k in listed.split(",")]
        assert sorted(keys) == sorted(cli.CONFIG_KEYS) and len(set(keys)) == len(keys)


class TestSettingsTable:
    def test_mode_and_format_flags_offer_what_the_config_accepts(self):
        sub = argparse.ArgumentParser()
        cli._session_flags(sub, *(flag for flag, _, _, _ in cli.SETTINGS))
        flags = {action.dest: action for action in sub._actions}
        assert tuple(flags["mode"].choices) == cli.MODES == ("paper", "sound")
        assert tuple(flags["format"].choices) == cli.FORMATS == ("text", "json")
        assert all(flags[flag].help for flag, _, _, _ in cli.SETTINGS)


# The session flags each command reads: every command the lattice and the
# format, a command that charges costs the deltas, the commands that type a
# program with chosen rules the mode, check the budget and eval the fuel.
EVERY = {"lattice_file", "lattice", "format"}
COSTS = EVERY | {"delta_app", "delta_if", "delta_unbox", "delta_proj"}
SESSION_FLAGS = {
    "check": COSTS | {"mode", "budget"},
    "eval": COSTS | {"mode", "fuel"},
    "fuzz": COSTS | {"mode"},
    "model": COSTS,
    "laws": EVERY,
}
UNREAD = [
    ("check", "fuel"), ("eval", "budget"), ("fuzz", "budget"), ("fuzz", "fuel"),
    ("model", "budget"), ("model", "fuel"), ("model", "mode"),
    ("laws", "delta-app"), ("laws", "delta-if"), ("laws", "delta-unbox"), ("laws", "delta-proj"),
    ("laws", "budget"), ("laws", "mode"), ("laws", "fuel"),
]


class TestSessionFlags:
    """Each command takes only the session flags it reads; a config file is
    shared by every command, so it may hold any session key."""

    def test_each_command_offers_the_session_flags_it_reads(self):
        [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        settings = {flag for flag, _, _, _ in cli.SETTINGS}
        offered = {name: {a.dest for a in sub._actions} & settings for name, sub in commands.choices.items()}
        assert offered == SESSION_FLAGS and sum(map(len, offered.values())) == 36
        assert all("config" in {a.dest for a in sub._actions} for sub in commands.choices.values())
        unread = {(name, flag.replace("_", "-")) for name in offered for flag in settings - offered[name]}
        assert unread == set(UNREAD) and len(UNREAD) == 14

    @pytest.mark.parametrize("command, flag", UNREAD, ids=lambda x: x)
    def test_an_unread_flag_is_a_usage_error(self, program, capsys, command, flag):
        value = {"fuel": "3", "budget": "1", "mode": "paper"}.get(flag, "1")
        argv = [command] + {"check": [program(IF_EXAMPLE)], "eval": [program(IF_EXAMPLE)],
                            "model": ["--lattice", "sat2"], "laws": ["--lattice", "sat3"]}.get(command, [])
        code = main(argv + [f"--{flag}", value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"unrecognized arguments: --{flag} {value}" in captured.err and "Traceback" not in captured.err
        # the usage shown is the command's, which lists the flags it does take
        assert captured.err.startswith(f"usage: rblam {command} [-h]")

    @pytest.mark.parametrize("argv", [[], ["nosuch", "--fuel", "3"]], ids=["missing", "unknown"])
    def test_a_missing_or_unknown_command_prints_the_top_level_usage(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: rblam [-h] {check,eval,fuzz,model,laws}")

    @pytest.mark.parametrize("lattice, budget", [("nat", "1000000"), ("sat2", "2")])
    def test_a_config_of_every_key_changes_nothing_it_restates(self, program, tmp_path, data_dir, capsys,
                                                               lattice, budget):
        # every key at the value the command would use anyway; the lattice
        # flag drops both lattice keys, so the table file is not loaded
        cfg = tmp_path / "session.cfg"
        cfg.write_text(f"lattice = {lattice}\nlattice_file = {data_dir / 'chain3.lat'}\n"
                       "delta.app = 1\ndelta.if = 1\ndelta.unbox = 1\ndelta.proj = 1\n"
                       f"budget = {budget}\nmode = sound\nfuel = 1000000\nformat = text\n")
        assert sorted(line.split(" = ")[0] for line in cfg.read_text().splitlines()) == sorted(cli.CONFIG_KEYS)
        for argv in (["check", program(APP_EXAMPLE)], ["eval", program(APP_EXAMPLE)],
                     ["fuzz", "--count", "5"], ["model"], ["laws", "--sample", "0..5"]):
            argv += ["--lattice", lattice]
            runs = [(main(argv + extra), capsys.readouterr()) for extra in ([], ["--config", str(cfg)])]
            assert runs[0] == runs[1], argv
            assert runs[0][0] == (2 if argv[0] == "model" and lattice == "nat" else 0), argv

    def test_laws_still_checks_a_config_key_it_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("fuel = lots\n")
        assert main(["laws", "--sample", "0..5", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: fuel: bad fuel 'lots'; expected a non-negative integer\n"

    def test_readme_cli_examples_parse(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        examples = [shlex.split(line[2:], comments=True) for line in readme.splitlines()
                    if line.startswith("$ rblam ")]
        assert len(examples) >= 9
        for argv in examples:
            cli.build_parser().parse_args(argv[1:])  # argparse exits on a flag the command does not take


class TestClosedStdout:
    class ClosedPipe(io.StringIO):
        """A stdout whose reader has gone: writing, or flushing what was
        written, raises as a closed pipe does."""

        def __init__(self, on):
            super().__init__()
            self.on = on

        def write(self, text):
            if self.on == "write":
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

        def flush(self):
            if self.on == "flush":
                raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("on", ["write", "flush"])
    def test_closed_stdout_is_not_a_violation(self, program, monkeypatch, capsys, on):
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe(on))
        code = main(["eval", program(APP_EXAMPLE), "--lattice", "nat", "--trace"])
        assert code == cli.CLOSED_STDOUT == 141
        assert capsys.readouterr().err == ""


class TestInputErrors:
    @pytest.mark.parametrize(
        "line",
        ["mode = bogus", "fuel = lots", "fuel = -4", "format = xml", "fuel = " + "7" * 5000],
        ids=lambda line: line if len(line) < 20 else "fuel = 5000 digits",
    )
    def test_bad_config_value(self, program, tmp_path, capsys, line):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(line + "\n")
        code = main(["eval", program(IF_EXAMPLE), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "PROG", "--fuel", "-1"],
            ["eval", "PROG", "--fuel", "lots"],
            ["eval", "PROG", "--mode", "bogus"],
            ["eval", "PROG", "--format", "xml"],
            ["fuzz", "--count", "-5"],
            ["fuzz", "--count", "0"],
            ["fuzz", "--depth", "0"],
            ["fuzz", "--depth", "33"],
            ["fuzz", "--depth", "600"],
            ["fuzz", "--workers", "0"],
            ["fuzz", "--hunt", "--props", "determinism"],
            ["fuzz", "--hunt", "--props", "cost_soundness,determinism"],
            ["model", "--lattice", "sat2", "--max-nat", "-1"],
            ["model", "--lattice", "sat2", "--max-term-size", "-1"],
            ["model", "--lattice", "sat2", "--interp-corpus", "-1"],
            ["check", "PROG", "--budget", "²"],
            ["laws", "--lattice", "sat1_0"],
            ["laws", "--lattice", "sat 2"],
            ["laws", "--lattice", "sat+2"],
            ["laws", "--lattice", "sat٣"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_value(self, program, capsys, argv):
        argv = [program(IF_EXAMPLE) if a == "PROG" else a for a in argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source",
        ["box[²] tt", "(lam x : Bool . x) ²", "7" * 5000],
        ids=["grade", "argument", "5000 digits"],
    )
    def test_bad_numeral_in_program(self, program, capsys, source):
        code = main(["check", program(source), "--lattice", "nat"])
        err = capsys.readouterr().err
        assert code == 2
        assert "natural literal" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source, flags, head",
        [
            ("if tt then", [], "error: PROG:1:11: expected a term"),
            ("tt ff", [], "error: type error: "),
            ("fst tt", ["--unsafe-eval"], "error: stuck: "),
            ("tt tt", ["--unsafe-eval"], "error: stuck: application of non-function value tt"),
            ("unbox tt", ["--unsafe-eval"], "error: stuck: unbox of non-box value tt"),
            (APP_EXAMPLE, ["--fuel", "1"], "error: evaluation error: "),
        ],
        ids=["parse", "type", "stuck", "stuck application", "stuck unbox", "fuel"],
    )
    def test_program_errors_are_one_error_line(self, program, capsys, source, flags, head):
        path = program(source)
        code = main(["eval", path, "--lattice", "nat"] + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(head.replace("PROG", path)) and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "lattice, literal, message",
        [
            ("nat", "foo", "nat: expected a natural, got 'foo'"),
            ("nat", "(1,2)", "nat: expected a natural, got (1, 2)"),
            ("triple", "3", "triple: expected a triple of naturals, got 3"),
            ("triple", "(1,a,2)", "triple: expected a triple of naturals, got (1, 'a', 2)"),
            ("sat3", "x", "sat3: expected 0..3, got 'x'"),
            ("diamond.lat", "(a,b)", "diamond: unknown element ('a', 'b')"),
            ("diamond.lat", "3", "diamond: unknown element 3"),
        ],
    )
    def test_budget_literal_is_validated_by_its_element(self, program, data_dir, capsys, lattice, literal, message):
        # a literal is the payload, so the lattice's element check words the error
        argv = ["check", program(IF_EXAMPLE), "--budget", literal]
        if lattice.endswith(".lat"):
            argv += ["--lattice-file", str(data_dir / lattice), "--delta-app", "a"]
        else:
            argv += ["--lattice", lattice]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --budget: 1:1: {message}\n"

    @pytest.mark.parametrize(
        "command, line, flags, origin, message",
        [
            ("check", "budget = foo", [], "CFG: budget", "1:1: nat: expected a natural, got 'foo'"),
            ("check", "delta.if = (1,", [], "CFG: delta.if", "1:4: expected a lattice literal, found 'end of input'"),
            ("check", "budget = 100", ["--delta-if", "x"], "--delta-if", "1:1: nat: expected a natural, got 'x'"),
            ("check", "fuel = lots", [], "CFG: fuel", "bad fuel 'lots'; expected a non-negative integer"),
            ("check", "mode = fast", [], "CFG: mode", "bad mode 'fast'; expected paper or sound"),
            ("check", "format = xml", [], "CFG: format", "bad format 'xml'; expected text or json"),
            ("eval", "fuel = 5", ["--fuel", "-1"], "--fuel", "bad fuel '-1'; expected a non-negative integer"),
        ],
        ids=["config budget", "config delta", "flag over config", "config fuel", "config mode", "config format",
             "flag fuel"],
    )
    def test_literal_setting_error_names_its_origin(self, program, tmp_path, capsys, command, line, flags, origin,
                                                    message):
        # a literal's line:col that follows is inside the setting's text, not the program
        cfg = tmp_path / "session.cfg"
        cfg.write_text(line + "\n")
        code = main([command, program(IF_EXAMPLE), "--lattice", "nat", "--config", str(cfg)] + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {origin.replace('CFG', str(cfg))}: {message}\n"

    @pytest.mark.parametrize(
        "case",
        ["missing lattice file", "directory as lattice file", "non-UTF-8 program", "non-UTF-8 config",
         "non-UTF-8 lattice file"],
    )
    def test_unreadable_input_is_one_error_line(self, program, tmp_path, capsys, case):
        latin = tmp_path / "latin1.txt"
        latin.write_bytes("tt # caf\xe9\n".encode("latin-1"))
        argv = {
            "missing lattice file": ["laws", "--lattice-file", str(tmp_path / "absent.lat")],
            "directory as lattice file": ["laws", "--lattice-file", str(tmp_path)],
            "non-UTF-8 program": ["check", str(latin), "--lattice", "nat"],
            "non-UTF-8 config": ["check", program(IF_EXAMPLE), "--config", str(latin)],
            "non-UTF-8 lattice file": ["model", "--lattice-file", str(latin)],
        }[case]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", ["program", "config", "lattice table"])
    def test_a_byte_order_mark_reads_as_no_mark(self, program, data_dir, capsys, kind):
        text = {"program": IF_EXAMPLE, "config": "lattice = triple\nbudget = (1,0,0)\n",
                "lattice table": (data_dir / "chain3.lat").read_text()}[kind]
        outputs = []
        for mark in ("", "\ufeff"):
            path = program(mark + text, "chain3.lat" if kind == "lattice table" else "input")
            argv = {"program": ["check", path], "config": ["check", program(IF_EXAMPLE), "--config", path],
                    "lattice table": ["laws", "--lattice-file", path]}[kind]
            outputs.append((main(argv), *capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][2] == ""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("elements: low mid high", "elements: low mid low", "bad: duplicate element names"),
            ("leq:\n", "leq:\nmid top\n", "bad: leq pair (mid, top) mentions unknown element"),
            ("combine:\nlow low -> low", "combine:\nlow low -> top", "bad: combine entry low low -> top mentions "
             "unknown element"),
            ("# three", "low\n#", "line 1: entry before any section header"),
            ("bottom: low\n", "bottom: low\nmid\n", "line 4: bottom declared twice"),
            ("leq:\n", "leq:\nlow mid high\n", "line 5: leq entries are 'a b', got 'low mid high'"),
            ("combine:\n", "combine:\nlow low\n", "line 12: table entries are 'a b -> c', got 'low low'"),
            ("combine:\n", "combine:\nlow -> low\n", "line 12: table entries are 'a b -> c', got 'low -> low'"),
            ("join:\n", "join:\nlow mid -> mid\n", "line 24: duplicate join entry for low mid"),
            ("elements: low mid high\n", "", "table declares no elements"),
            ("bottom: low\n", "", "table declares no bottom"),
            # names a program cannot write as a literal: a natural, a keyword
            ("elements: low mid high", "elements: 0 1", "line 2: element name '0' is not an identifier"),
            ("elements: low mid high", "elements: lo tt", "line 2: element name 'tt' is not an identifier"),
        ],
        ids=["duplicate element", "unknown in leq", "unknown in combine", "entry before header", "bottom twice",
             "bad leq entry", "entry without arrow", "malformed entry", "duplicate entry", "no elements",
             "no bottom", "numeral element", "keyword element"],
    )
    def test_malformed_lattice_file_is_one_error_line(self, data_dir, tmp_path, capsys, old, new, message):
        text = (data_dir / "chain3.lat").read_text()
        assert text.count(old) == 1
        path = tmp_path / "bad.lat"
        path.write_text(text.replace(old, new))
        code = main(["laws", "--lattice-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_arabic_indic_digit_still_parses(self, program, capsys):
        assert main(["eval", program("(lam x : Nat . x) ٣"), "--lattice", "nat"]) == 0
        assert "value: 3" in capsys.readouterr().out


def test_readme_library_example_runs():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    examples = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(examples) == 2
    for example in examples:
        exec(compile(example, "README.md", "exec"), {})
