import argparse
import hashlib
import io
import json
import pathlib
import re
import sys

import pytest

from rblam import cli
from rblam.cli import main

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

    def test_triple_lattice_budget_literal(self, program, capsys):
        code = main(
            ["check", program(IF_EXAMPLE), "--lattice", "triple", "--budget", "(2,2,2)"]
        )
        assert code == 0
        assert "bound: (1,0,0)" in capsys.readouterr().out


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

    def test_refuses_ill_typed(self, program, capsys):
        assert main(["eval", program("fst tt"), "--lattice", "nat"]) == 2

    def test_unsafe_eval_reports_stuck_as_input_error(self, program, capsys):
        code = main(["eval", program("fst tt"), "--lattice", "nat", "--unsafe-eval"])
        captured = capsys.readouterr()
        assert code == 2
        assert "stuck" in captured.err

    def test_eval_trace(self, program, capsys):
        code = main(["eval", program(APP_EXAMPLE), "--lattice", "nat", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "App +1" in out and "IfT +1" in out


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

    def test_hunt_finds_violations(self, capsys):
        code = main([
            "fuzz", "--count", "400", "--seed", "6", "--mode", "paper",
            "--fn-var-reuse", "--hunt",
        ])
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

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

    def test_interp_corpus_uses_session_lattice_and_deltas(self, monkeypatch, capsys):
        seen = []
        real = cli.check_cost_preservation

        def spy(corpus, m, mode):
            seen.append((corpus, m))
            return real(corpus, m, mode)

        monkeypatch.setattr(cli, "check_cost_preservation", spy)
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
        # mode whatever the flag says, so the flag is refused, not ignored
        code = main(["model", "--lattice", "sat2", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: model takes no --mode") and captured.err.count("\n") == 1


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
             "88e644dd7e286f623f5ea49704cd199ad5d0fb63db9dcf7d629fbc15d84ccf1f"),
            # diamond has no unique atom, so its deltas are given: one atom, a
            (["model", "--lattice-file", "DATA/diamond.lat", "--delta-app", "a", "--delta-if", "a",
              "--delta-unbox", "a", "--delta-proj", "a", "--format", "json"],
             "015f93aee94c7d22cb7e39b1392cd52f5b3c05e98b8b065cebc153de6ae0599f"),
            (["laws", "--lattice", "triple", "--sample", "0..6", "--format", "json"],
             "3532086b65e6e76ab4a923d399290eaa3bef99f32927d1de37c41b934c23c092"),
            (["laws", "--lattice-file", "DATA/diamond.lat", "--format", "json"],
             "fb19a56b790c2783c6ef894ef0773fea925c0e7aec07ad8ce3fa26ff537f6e56"),
        ],
        ids=["fuzz-triple", "hunt-paper", "model-sat2", "model-diamond", "laws-triple", "laws-diamond"],
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

    @pytest.mark.parametrize("spec", ["0..1_0", "0..٣", "0..+3", " 0..3", "0..3 ", "-1..3", "0..", "0x1..3"])
    def test_range_bounds_are_ascii_digits(self, capsys, spec):
        # int() reads "1_0" as 10 and takes signs, blanks and other scripts'
        # digits; a bound is ASCII digits only
        assert main(["laws", "--lattice", "nat", f"--sample={spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad sample range {spec!r}; expected LO..HI\n"
        assert captured.out == ""

    def test_infinite_without_sample(self, capsys):
        assert main(["laws", "--lattice", "nat"]) == 2


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
        cli._session_flags(sub)
        flags = {action.dest: action for action in sub._actions}
        assert tuple(flags["mode"].choices) == cli.MODES == ("paper", "sound")
        assert tuple(flags["format"].choices) == cli.FORMATS == ("text", "json")
        assert all(flags[flag].help for flag, _, _, _ in cli.SETTINGS)


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
            ["fuzz", "--workers", "0"],
            ["fuzz", "--hunt", "--props", "determinism"],
            ["fuzz", "--hunt", "--props", "cost_soundness,determinism"],
            ["model", "--lattice", "sat2", "--max-nat", "-1"],
            ["model", "--lattice", "sat2", "--max-term-size", "-1"],
            ["model", "--lattice", "sat2", "--interp-corpus", "-1"],
            ["eval", "PROG", "--budget", "²"],
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
            (APP_EXAMPLE, ["--fuel", "1"], "error: evaluation error: "),
        ],
        ids=["parse", "type", "stuck", "fuel"],
    )
    def test_program_errors_are_one_error_line(self, program, capsys, source, flags, head):
        path = program(source)
        code = main(["eval", path, "--lattice", "nat"] + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(head.replace("PROG", path)) and captured.err.count("\n") == 1

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

    def test_arabic_indic_digit_still_parses(self, program, capsys):
        assert main(["eval", program("(lam x : Nat . x) ٣"), "--lattice", "nat"]) == 0
        assert "value: 3" in capsys.readouterr().out
