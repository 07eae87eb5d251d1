"""Acceptance suite: the exit criteria for the toolchain, run at their
stated sizes and time budgets. Each test prints one verdict line."""

import json
import time

from rblam.cli import main
from rblam.harness import GenConfig, gen_typed_term, run_properties, run_property
from rblam.interp import evaluate
from rblam.lattice import (
    NAT,
    TRIPLE,
    FiniteLattice,
    ProductLattice,
    SaturatingNatLattice,
    check_laws,
    load_lattice,
)
from rblam.model import DenModel, EnumBudget, check_cost_preservation, run_model_checks
from rblam.syntax import alpha_eq, parse, pretty, pretty_type
from rblam.typecheck import (
    Context,
    DeltaProfile,
    GradeExceeded,
    Mode,
    synthesize,
)

D = DeltaProfile.default(NAT)
BIG = NAT.element(10**6)

CANONICAL_WITNESS = parse(
    "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT
)


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_lattice_laws(data_dir):
    start = time.time()
    chain2 = load_lattice(str(data_dir / "chain2.lat"))
    assert check_laws(chain2).passed

    for cap in range(2, 13):
        assert check_laws(SaturatingNatLattice(cap)).passed, f"cap {cap}"

    corners = [TRIPLE.element((a, b, c)) for a in (0, 6) for b in (0, 6) for c in (0, 6)]
    assert check_laws(TRIPLE, corners).passed

    prod = ProductLattice([NAT, NAT])
    sample = [
        prod.element((NAT.element(i), NAT.element(j)))
        for i in (0, 1, 2, 5)
        for j in (0, 1, 2, 5)
    ]
    assert check_laws(prod, sample).passed

    names = ["0", "1", "2"]
    leq = [(a, b) for a in names for b in names if int(a) <= int(b)]
    combine = {(a, b): str(min(int(a) + int(b), 2)) for a in names for b in names}
    combine[("1", "1")] = "0"  # deliberately corrupt
    join = {(a, b): str(max(int(a), int(b))) for a in names for b in names}
    corrupted = check_laws(FiniteLattice("corrupt", names, leq, combine, join, "0"))
    assert not corrupted.passed
    assert any(f.witness for f in corrupted.failures())

    elapsed = time.time() - start
    verdict(1, "lattice laws", elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_2_cost_soundness_sound_mode():
    start = time.time()
    cfg = GenConfig(lattice=NAT, seed=42, count=10_000, max_depth=6, mode=Mode.SOUND)
    nat_report = run_property(cfg, "cost_soundness")

    triple_deltas = DeltaProfile.uniform(TRIPLE.element((1, 0, 0)))
    cfg_triple = GenConfig(
        lattice=TRIPLE, seed=42, count=10_000, max_depth=6, mode=Mode.SOUND,
        deltas=triple_deltas,
    )
    triple_report = run_property(cfg_triple, "cost_soundness")

    elapsed = time.time() - start
    verdict(
        2,
        "cost soundness",
        nat_report.passed and triple_report.passed and elapsed < 60,
        f"nat failures {nat_report.failure_count}, triple failures {triple_report.failure_count}, {elapsed:.1f}s",
    )


def test_criterion_3_paper_mode_boundary():
    single_use = GenConfig(
        lattice=NAT, seed=42, count=10_000, max_depth=6, mode=Mode.PAPER,
        allow_fn_var_reuse=False,
    )
    clean = run_property(single_use, "cost_soundness")

    reuse = GenConfig(
        lattice=NAT, seed=42, count=10_000, max_depth=6, mode=Mode.PAPER,
        allow_fn_var_reuse=True,
    )
    hunt = run_property(reuse, "cost_soundness")
    canonical_hits = [
        f
        for f in hunt.failures
        if alpha_eq(parse(f.minimized, NAT), CANONICAL_WITNESS)
        and f.minimized_observed == {"bound": "4", "cost": "5"}
    ]
    verdict(
        3,
        "paper-mode boundary",
        clean.passed and hunt.failure_count > 0 and len(canonical_hits) > 0,
        f"single-use failures {clean.failure_count}, reuse failures {hunt.failure_count}, "
        f"canonical witnesses {len(canonical_hits)}",
    )


def test_criterion_4_metatheory_suites():
    start = time.time()
    cfg = GenConfig(lattice=NAT, seed=42, count=10_000, max_depth=5, mode=Mode.SOUND)
    names = ["determinism", "preservation", "budget_weakening", "box_laws", "substitution"]
    reports = run_properties(cfg, names)
    elapsed = time.time() - start
    failures = {r.name: r.failure_count for r in reports if not r.passed}
    verdict(
        4,
        "determinism/preservation/weakening/box/substitution",
        not failures and elapsed < 120,
        f"failures {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_5_model_checks(data_dir):
    start = time.time()
    corpus = [
        load_lattice(str(data_dir / "chain2.lat")),
        load_lattice(str(data_dir / "diamond.lat")),
        SaturatingNatLattice(2),
        SaturatingNatLattice(3),
        SaturatingNatLattice(4),
    ]
    assert all(len(inst.enumerate()) <= 8 for inst in corpus)
    bad = []
    for inst in corpus:
        # diamond has no unique atom, so its default deltas are all bottom:
        # charge one of its atoms for every operation instead
        enum = EnumBudget(DeltaProfile.uniform(inst.element("a"))) if inst.name == "diamond" else None
        report = run_model_checks(inst, enum=enum)
        if not report.passed:
            bad.append((inst.name, [str(c) for c in report.checks if not c.ok]))
        if not report.universe["exhaustive"]:
            bad.append((inst.name, "non-exhaustive"))
    elapsed = time.time() - start
    verdict(5, "finite model checks", not bad and elapsed < 120, f"{bad or 'all exhaustive'}, {elapsed:.1f}s")


def test_criterion_6_interpretation_functor():
    start = time.time()
    cfg = GenConfig(lattice=NAT, seed=42, count=500, max_depth=5, mode=Mode.SOUND)
    corpus = [gen_typed_term(cfg, trial=i) for i in range(500)]
    model = DenModel(NAT, D)
    report = check_cost_preservation(corpus, model, Mode.SOUND)
    elapsed = time.time() - start
    verdict(
        6,
        "interpretation functor cost preservation",
        report.ok and elapsed < 30,
        f"corpus 500, counterexamples {len(report.counterexamples)}, {elapsed:.1f}s",
    )


def test_criterion_7_worked_goldens():
    checks = []

    # evaluation examples: (source, value, cost)
    for src, value, cost in [
        ("tt", "tt", 0),
        ("if tt then ff else tt", "ff", 1),
        ("(lam x : Bool . if x then ff else tt) tt", "ff", 2),
        ("unbox (box[5] tt)", "tt", 1),
        ("fst (tt, ff)", "tt", 1),
    ]:
        result = evaluate(parse(src, NAT), D)
        checks.append(pretty(result.value) == value and result.cost == NAT.element(cost))

    # typing examples: (source, mode, type, bound)
    for src, mode, ty, bound in [
        ("if tt then ff else tt", Mode.PAPER, "Bool", 1),
        ("lam x : Bool . x", Mode.PAPER, "Bool -> Bool", 0),
        (
            "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)",
            Mode.PAPER,
            "Bool * Bool",
            4,
        ),
        (
            "(lam f : Bool -[1]-> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)",
            Mode.SOUND,
            "Bool * Bool",
            5,
        ),
    ]:
        j = synthesize(Context(), parse(src, NAT), NAT.element(100), mode, D)
        checks.append(pretty_type(j.type) == ty and j.bound == NAT.element(bound))

    # the box side-condition example is an error golden
    try:
        synthesize(Context(), parse("box[0] (if tt then ff else tt)", NAT), NAT.element(100), Mode.PAPER, D)
        checks.append(False)
    except GradeExceeded as exc:
        checks.append(exc.bound == NAT.element(1) and exc.grade == NAT.element(0))

    verdict(7, "worked-arithmetic goldens", all(checks), f"{sum(checks)}/{len(checks)} goldens")


def test_criterion_8_reproducibility(capsys):
    argv = ["fuzz", "--seed", "42", "--count", "600", "--mode", "sound", "--format", "json"]
    outputs = []
    for workers in ("1", "1", "2", "3"):
        code = main(argv + ["--workers", workers])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    identical = len(set(outputs)) == 1
    json.loads(outputs[0])  # machine-readable
    with capsys.disabled():
        verdict(8, "seeded reproducibility", identical, f"{len(outputs)} runs byte-identical")
