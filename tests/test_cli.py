import hashlib
import json

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
             "6594c36adcec4f50a41b65a148520d9d949bcadea5da044ef7d4db244e394eb7"),
            (["model", "--lattice-file", "DATA/diamond.lat", "--format", "json"],
             "eec3b4d3aa001eeba639017fcb18b6d84839a1a1cd6d0f3c712199514eb01257"),
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

    def test_finite_defaults_to_all(self, data_dir, capsys):
        assert main(["laws", "--lattice-file", str(data_dir / "diamond.lat")]) == 0

    def test_json(self, capsys):
        code = main(["laws", "--lattice", "sat5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["passed"] is True

    def test_bad_range(self, capsys):
        assert main(["laws", "--lattice", "nat", "--sample", "oops"]) == 2

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

    def test_arabic_indic_digit_still_parses(self, program, capsys):
        assert main(["eval", program("(lam x : Nat . x) ٣"), "--lattice", "nat"]) == 0
        assert "value: 3" in capsys.readouterr().out
