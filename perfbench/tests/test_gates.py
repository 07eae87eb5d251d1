"""Each gate must fail when the program gives a wrong verdict."""

import json

import pytest

from workloads import (
    FAILED,
    FAMILIES,
    CheckCorpus,
    FuzzSound,
    HuntPaper,
    ModelFinite,
    let_chain,
    nested_if,
    parse_fields,
)


def known_answer_cases(bench):
    cases = CheckCorpus().prepare(bench, seed=1)
    return [c for c in cases if not c.label.startswith("gen")]


def run_cases(bench, cases):
    bounds = {}
    for case in cases:
        got = bench.op(case.label, bench.cli, case.argv)
        if got is not FAILED:
            code, out, _ = got
            CheckCorpus.check(bench, case, code, parse_fields(out), bounds, 1)


def test_family_sources_have_the_stated_shape():
    assert let_chain(2) == "(lam v1 : Bool . (lam v2 : Bool . v2) v1) tt"
    assert nested_if(2) == "if ff then ff else if tt then ff else tt"
    assert set(FAMILIES) == {"let", "if"}


def test_known_answers_pass_on_the_current_program(bench):
    cases = [c for c in known_answer_cases(bench) if not any(s in c.label for s in ("400", "800"))]
    run_cases(bench, cases)
    assert bench.wrong == [] and bench.failed == 0


def test_deep_family_members_are_kept(bench):
    labels = {c.label for c in known_answer_cases(bench)}
    for fam in FAMILIES:
        for n in (400, 800):
            assert f"{fam}{n} eval" in labels and f"{fam}{n} check" in labels


def test_wrong_cost_arithmetic_fails_the_closed_form_gates(bench, rb, monkeypatch):
    # an off-by-one in nat composition: every cost and bound grows
    monkeypatch.setattr(rb.lattice.NatLattice, "_combine", lambda self, a, b: a + b + 1)
    cases = [c for c in known_answer_cases(bench) if c.label in ("let25 eval", "if50 check", "witness eval paper")]
    run_cases(bench, cases)
    assert any("let25 eval: cost" in w for w in bench.wrong)
    assert any("witness eval paper" in w for w in bench.wrong)


def test_wrong_exit_code_fails_the_malformed_gate(bench, rb, monkeypatch):
    monkeypatch.setattr(rb.cli, "main", lambda argv: 0)
    cases = [c for c in known_answer_cases(bench) if c.label.startswith("malformed")]
    run_cases(bench, cases)
    assert len(bench.wrong) == len(cases)


def test_a_raising_operation_is_failed_not_wrong(bench):
    def crash():
        raise RecursionError("deep")

    assert bench.op("deep", crash) is FAILED
    assert bench.failed == 1 and bench.attempted == 1 and bench.wrong == []


METATHEORY = FuzzSound.runs[1][0]


def fuzz_doc(failures):
    props = [{"property": p, "trials": FuzzSound.count, "failure_count": failures if p == "determinism" else 0,
              "failures": []} for p in METATHEORY]
    return json.dumps({"properties": props})


def test_fuzz_gate_fails_on_a_property_failure(bench):
    w = FuzzSound()
    w.check_report(bench, 0, fuzz_doc(0), METATHEORY, "fuzz nat")
    assert bench.wrong == []
    w.check_report(bench, 1, fuzz_doc(2), METATHEORY, "fuzz nat")
    assert any("determinism has 2 failures" in m for m in bench.wrong)


def test_fuzz_gate_fails_when_a_suite_is_missing(bench):
    FuzzSound().check_report(bench, 0, fuzz_doc(0), ("cost_soundness",) + METATHEORY, "fuzz nat")
    assert any("suites" in m for m in bench.wrong)


def test_fuzz_identity_gate_fails_when_reports_differ(bench, monkeypatch):
    w = FuzzSound()
    w.first = {("nat", ("cost_soundness",), 6): "one report"}
    monkeypatch.setattr(bench, "cli", lambda argv: (0, "another report", ""))
    w.finish(bench, 1)
    assert any("differs at --workers 2" in m for m in bench.wrong)


def hunt_output(k, b):
    failure = {"trial": 3, "relation": "cost <= bound <= budget",
               "minimized_observed": {"cost": str(k), "bound": str(b)}}
    return json.dumps({"properties": [{"failure_count": 1, "failures": [failure]}]})


@pytest.mark.parametrize("k, b, wrong", [(5, 4, False), (4, 4, True), (3, 4, True)])
def test_hunt_gate_requires_minimized_witnesses_to_violate(bench, monkeypatch, k, b, wrong):
    monkeypatch.setattr(bench, "cli", lambda argv: (0, hunt_output(k, b), ""))
    w = HuntPaper()
    w.run(bench, None, 1, 0)
    w.finish(bench, 1)
    assert bool(bench.wrong) == wrong


def test_hunt_gate_requires_the_canonical_witness(bench, monkeypatch):
    monkeypatch.setattr(bench, "cli", lambda argv: (0, hunt_output(7, 5), ""))
    w = HuntPaper()
    w.run(bench, None, 1, 0)
    assert bench.wrong == []
    w.finish(bench, 1)
    assert bench.wrong == ["hunt: no minimized witness with (k, b) = (5, 4)"]


def test_model_gate_fails_when_a_broken_table_is_accepted(bench, monkeypatch):
    real = bench.cli

    def lenient(argv):
        if "broken.lat" in " ".join(argv):
            return 0, json.dumps({"passed": True, "laws": []}), ""
        return real(argv)

    monkeypatch.setattr(bench, "cli", lenient)
    w = ModelFinite()
    monkeypatch.setattr(w, "sat", ())
    w.run(bench, [], 1, 0)
    assert any("model broken table: exit 0, expected 2" in m for m in bench.wrong)
