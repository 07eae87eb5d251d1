"""The four benchmark workloads and their verdict gates.

A run builds its inputs from the seed once (`prepare`, untimed and
untraced), then makes passes over them (`run`). A pass is one complete
verdict at the workload's stated size, for example one `rblam fuzz` per
lattice, and every pass repeats the same operations in the same order.
Operations are timed one by one: a fuzz trial, one CLI check/eval of one
program, or one model/laws check. `finish` applies the gates that span
passes, outside the timed region.

Every gate records a wrong verdict through `Bench.expect`. An operation that
raises is a failed operation, counted apart from wrong verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import time

from speed import Speed

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BIG_BUDGET = {"nat": "1000000", "triple": "(1000000,1000000,1000000)"}


class Bench:
    """Times operations and collects wrong verdicts. For every operation it
    keeps the label, the start, the raw duration and whether it completed,
    and it probes the machine's speed (speed.py) between operations. `busy`
    is the raw time spent inside timed regions, probes excluded, and
    `errors` the first error of each failed operation."""

    def __init__(self, rb, workdir: str, tracer=None):
        self.rb = rb
        self.workdir = workdir
        self.tracer = tracer
        self.speed = Speed()
        self.busy = 0.0
        self.durations: list[float] = []
        self.starts: list[float] = []
        self.labels: list[str] = []
        self.completed: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.wrong: list[str] = []
        self.counts: dict[str, int] = {}
        self._depth = 0
        self._probed = 0.0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def expect(self, ok: bool, message: str) -> bool:
        if not ok and len(self.wrong) < 50:
            self.wrong.append(message)
        elif not ok:
            self.count("wrong_verdicts_not_listed")
        return ok

    def _timed(self, fn, args, label: str | None, reraise: bool):
        if self._depth == 0:
            self._probed = 0.0
        if label is not None:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op_id = self.attempted
            spent = self.speed.maybe_probe()
            if self._depth > 0:
                self._probed += spent
        self._depth += 1
        completed = False
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            completed = True
        except Exception as exc:
            if label is not None:
                self.failed += 1
                self.errors.setdefault(label, f"{type(exc).__name__}: {str(exc)[:120]}")
            if reraise:
                raise
            result = FAILED
        finally:
            dt = time.perf_counter() - t0
            self._depth -= 1
            if self._depth == 0:
                self.busy += dt - self._probed
            if label is not None:
                self.durations.append(dt)
                self.starts.append(t0)
                self.labels.append(label)
                self.completed.append(completed)
        return result

    def op(self, label: str, fn, *args):
        """One operation; returns FAILED when it raised."""
        return self._timed(fn, args, label, reraise=False)

    def timed(self, fn, *args):
        """A timed region that is not itself an operation (a fuzz run whose
        trials are the operations). Returns FAILED when it raised."""
        return self._timed(fn, args, None, reraise=False)

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rb.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @contextlib.contextmanager
    def trial_ops(self):
        """Time every fuzz trial as one operation by wrapping each entry of
        harness.PROPERTIES. A trial that raises still raises."""
        props = self.rb.harness.PROPERTIES
        saved = dict(props)

        def timed_trial(name, fn):
            return lambda cfg, trial: self._timed(fn, (cfg, trial), f"{name}#{trial}", reraise=True)

        for name, fn in saved.items():
            props[name] = timed_trial(name, fn)
        try:
            yield
        finally:
            props.update(saved)


FAILED = object()


def parse_fields(text: str) -> dict[str, str]:
    """The `key: value` head of a text-format check/eval report."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        m = re.match(r"(type|value|cost|bound|budget|verdict|cost_within_bound): (.*)$", line)
        if m and m.group(1) not in out:
            out[m.group(1)] = m.group(2)
    return out


def cost_tuple(text: str) -> tuple[int, ...]:
    """A nat or triple literal as a tuple of naturals."""
    return tuple(int(x) for x in text.strip("()").split(","))


def leq(a: str, b: str) -> bool:
    return all(x <= y for x, y in zip(cost_tuple(a), cost_tuple(b), strict=True))


def load_json(b: Bench, out: str, what: str):
    try:
        return json.loads(out)
    except ValueError:
        b.expect(False, f"{what}: output is not JSON")
        return None


# ---------------------------------------------------------------------------
# fuzz-sound


class FuzzSound:
    """The acceptance suite's fuzz shape at a smaller trial count:
    cost_soundness at depth 6 (criterion 2) and the five metatheory suites
    at depth 5 (criterion 4), each on nat and triple with the default
    deltas, which on triple are the uniform (1,0,0) of criterion 2."""

    name = "fuzz-sound"
    count = 150
    lattices = ("nat", "triple")
    runs = ((("cost_soundness",), 6),
            (("determinism", "preservation", "budget_weakening", "box_laws", "substitution"), 5))

    def __init__(self):
        self.first: dict[tuple[str, tuple[str, ...], int], str] = {}

    def setup(self, rb):
        return [rb.lattice.builtin_lattice(name) for name in self.lattices]

    def argv(self, lattice: str, suites: tuple[str, ...], depth: int, seed: int, workers: int = 1) -> list[str]:
        return ["fuzz", "--count", str(self.count), "--depth", str(depth), "--props", ",".join(suites),
                "--seed", str(seed), "--mode", "sound", "--lattice", lattice, "--format", "json",
                "--workers", str(workers)]

    def prepare(self, b: Bench, seed: int) -> None:
        return None

    def run(self, b: Bench, plan, seed: int, index: int) -> None:
        with b.trial_ops():
            for lattice in self.lattices:
                for suites, depth in self.runs:
                    what = f"fuzz {lattice} depth {depth} seed {seed}"
                    got = b.timed(b.cli, self.argv(lattice, suites, depth, seed))
                    if not b.expect(got is not FAILED, f"{what} raised"):
                        continue
                    code, out, _ = got
                    if index == 0:
                        self.check_report(b, code, out, suites, what)
                        self.first[lattice, suites, depth] = out
                    else:
                        b.expect(out == self.first.get((lattice, suites, depth)),
                                 f"{what}: pass {index} printed other bytes")

    def check_report(self, b: Bench, code: int, out: str, suites: tuple[str, ...], what: str) -> None:
        b.expect(code == 0, f"{what}: exit {code}, expected 0")
        doc = load_json(b, out, what)
        if doc is None:
            return
        props = {p["property"]: p for p in doc["properties"]}
        b.expect(sorted(props) == sorted(suites), f"{what}: suites {sorted(props)}")
        for name, p in props.items():
            b.expect(p["trials"] == self.count, f"{what}: {name} ran {p['trials']} trials")
            b.expect(p["failure_count"] == 0, f"{what}: {name} has {p['failure_count']} failures")
            b.count("harness.violations", p["failure_count"])

    def finish(self, b: Bench, seed: int) -> None:
        # Outside the timed region: the same fuzz at --workers 2 must print
        # the same bytes.
        for (lattice, suites, depth), out in self.first.items():
            code, again, _ = b.cli(self.argv(lattice, suites, depth, seed, workers=2))
            b.expect(code == 0 and again == out,
                     f"fuzz {lattice} depth {depth} seed {seed}: report differs at --workers 2")


# ---------------------------------------------------------------------------
# hunt-paper


class HuntPaper:
    """Acceptance criterion 3's hunt (function-variable reuse) at a smaller
    trial count and at depth 5, not 6: at depth 6 the heavier tail of
    minimization costs spreads op_tail_ms across seeds close to its bound."""

    name = "hunt-paper"
    count = 999

    def __init__(self):
        self.canonical = 0
        self.first = ""

    def setup(self, rb):
        return [rb.lattice.builtin_lattice("nat")]

    def prepare(self, b: Bench, seed: int) -> None:
        return None

    def run(self, b: Bench, plan, seed: int, index: int) -> None:
        argv = ["fuzz", "--hunt", "--mode", "paper", "--fn-var-reuse", "--lattice", "nat",
                "--count", str(self.count), "--depth", "5", "--seed", str(seed), "--format", "json", "--workers", "1"]
        what = f"hunt seed {seed}"
        with b.trial_ops():
            got = b.timed(b.cli, argv)
        if not b.expect(got is not FAILED, f"{what} raised"):
            return
        code, out, _ = got
        if index > 0:
            b.expect(out == self.first, f"{what}: pass {index} printed other bytes")
            return
        self.first = out
        b.expect(code == 0, f"{what}: exit {code}, expected 0 (violations found)")
        doc = load_json(b, out, what)
        if doc is None:
            return
        report = doc["properties"][0]
        b.expect(report["failure_count"] > 0, f"{what}: no violations found")
        b.count("harness.violations", report["failure_count"])
        b.count("harness.failures_reported", len(report["failures"]))
        for f in report["failures"]:
            obs = f["minimized_observed"]
            if not b.expect(f["relation"] == "cost <= bound <= budget" and "cost" in obs and "bound" in obs,
                            f"{what}: trial {f['trial']} is not a cost violation: {f['relation']} {obs}"):
                continue
            k, bound = int(obs["cost"]), int(obs["bound"])
            b.expect(k > bound, f"{what}: trial {f['trial']} minimized to k={k} <= b={bound}")
            if (k, bound) == (5, 4):
                self.canonical += 1

    def finish(self, b: Bench, seed: int) -> None:
        b.expect(self.canonical > 0, "hunt: no minimized witness with (k, b) = (5, 4)")
        b.count("hunt.canonical_witnesses", self.canonical)


# ---------------------------------------------------------------------------
# check-corpus


# Six sizes from 100 to 225, the largest that completes today, so that about
# fifteen family runs, and no generated program, sit around the p99 that
# op_tail_ms reports.
FAMILY_SIZES = (25, 50, 100, 125, 150, 175, 200, 225, 400, 800)

README_WITNESS = "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)"
SOUND_WITNESS = "(lam f : Bool -[1]-> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)"

# Inputs that must be refused with exit 2 (input error).
MALFORMED = (
    ("check", "lam x : Bool"),
    ("check", "(tt, ff"),
    ("eval", "if tt then ff"),
    ("check", "fst"),
    ("eval", "tt tt"),
    ("check", "lam x : Bool . y"),
    ("eval", "unbox tt"),
    ("check", "box[0] (if tt then ff else tt)"),
)


def let_chain(n: int) -> str:
    """(lam v1 : Bool . (lam v2 : Bool . ... (lam vn : Bool . vn) v{n-1} ...) v1) tt:
    n applications, value tt, k = b = n * delta_app in both rule modes."""
    body = f"v{n}"
    for i in range(n, 0, -1):
        body = f"(lam v{i} : Bool . {body}) {'tt' if i == 1 else f'v{i - 1}'}"
    return body


def nested_if(n: int) -> str:
    """n conditionals, each taking the nested branch; value ff and
    k = b = n * delta_if (the other branch is a literal of bound 0)."""
    body = "ff"
    for i in range(n):
        body = f"if tt then {body} else tt" if i % 2 == 0 else f"if ff then ff else {body}"
    return body


FAMILIES = {"let": (let_chain, "tt"), "if": (nested_if, "ff")}


class Case:
    """One CLI run over one program file with its expected verdict."""

    def __init__(self, label: str, argv: list[str], code: int, fields: dict[str, str] | None = None,
                 within: bool = False):
        self.label = label
        self.argv = argv
        self.code = code
        self.fields = fields or {}
        self.within = within  # also check cost <= bound <= budget on the parsed numbers


class CheckCorpus:
    name = "check-corpus"
    generated = 500
    lattices = ("nat", "triple")

    def setup(self, rb):
        return [rb.lattice.builtin_lattice(name) for name in self.lattices]

    def prepare(self, b: Bench, seed: int) -> list[Case]:
        """Write the programs and return their cases."""
        rb = b.rb
        folder = b.workdir

        def write(stem: str, source: str) -> str:
            path = os.path.join(folder, stem + ".rb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source + "\n")
            return path

        out: list[Case] = []
        cfgs = {
            name: rb.harness.GenConfig(lattice=rb.lattice.builtin_lattice(name), seed=seed,
                                       count=self.generated, max_depth=5, mode=rb.typecheck.Mode.SOUND)
            for name in self.lattices
        }
        for i in range(self.generated):
            lattice = self.lattices[i % 2]
            cfg = cfgs[lattice]
            term = rb.harness.gen_typed_term(cfg, trial=i)
            path = write(f"gen{i}", rb.syntax.pretty(term))
            value = rb.syntax.pretty_value(rb.interp.evaluate(term, cfg.resolved_deltas()).value)
            check = ["check", path, "--lattice", lattice, "--budget", BIG_BUDGET[lattice]]
            run = ["eval", path, "--lattice", lattice]
            out.append(Case(f"gen{i} check", check + (["--trace"] if i % 4 == 1 else []), 0,
                            {"verdict": "OK"}, within=True))
            out.append(Case(f"gen{i} eval", run + (["--trace"] if i % 4 == 3 else []), 0,
                            {"value": value, "cost_within_bound": "yes"}, within=True))

        for fam, (build, value) in FAMILIES.items():
            for i, n in enumerate(FAMILY_SIZES):
                path = write(f"{fam}{n}", build(n))
                out.append(Case(f"{fam}{n} eval", ["eval", path, "--lattice", "nat"] + (["--trace"] if i % 2 else []),
                                0, {"value": value, "cost": str(n), "bound": str(n), "cost_within_bound": "yes"}))
                over = i % 2  # odd sizes get a budget one step below the bound
                budget = f"({n - over},0,0)"
                out.append(Case(f"{fam}{n} check", ["check", path, "--lattice", "triple", "--budget", budget]
                                + ([] if i % 2 else ["--trace"]), over,
                                {"type": "Bool", "bound": f"({n},0,0)", "budget": budget,
                                 "verdict": "BUDGET-EXCEEDED" if over else "OK"}))

        witness, sound = write("witness", README_WITNESS), write("witness_sound", SOUND_WITNESS)
        out += [
            Case("witness eval paper", ["eval", witness, "--lattice", "nat", "--mode", "paper"], 1,
                 {"value": "(ff, ff)", "cost": "5", "bound": "4", "cost_within_bound": "SOUNDNESS-VIOLATION"}),
            Case("witness check paper", ["check", witness, "--lattice", "nat", "--mode", "paper", "--budget", "4"], 0,
                 {"bound": "4", "verdict": "OK"}),
            Case("witness eval sound", ["eval", witness, "--lattice", "nat", "--mode", "sound"], 2),
            Case("annotated witness eval sound", ["eval", sound, "--lattice", "nat", "--mode", "sound"], 0,
                 {"value": "(ff, ff)", "cost": "5", "bound": "5", "cost_within_bound": "yes"}),
        ]
        for j, (cmd, source) in enumerate(MALFORMED):
            out.append(Case(f"malformed{j} {cmd}", [cmd, write(f"bad{j}", source), "--lattice", "nat"], 2))
        out.append(Case("missing file", ["check", os.path.join(folder, "absent.rb")], 2))
        return out

    def run(self, b: Bench, plan: list[Case], seed: int, index: int) -> None:
        bounds: dict[str, str] = {}
        for case in plan:
            got = b.op(case.label, b.cli, case.argv)
            if got is FAILED:
                continue
            code, out, _ = got
            self.check(b, case, code, parse_fields(out), bounds, seed)

    @staticmethod
    def check(b: Bench, case: Case, code: int, fields: dict[str, str], bounds: dict[str, str], seed: int) -> None:
        what = f"seed {seed} {case.label}"
        b.expect(code == case.code, f"{what}: exit {code}, expected {case.code}")
        for key, want in case.fields.items():
            b.expect(fields.get(key) == want, f"{what}: {key} {fields.get(key)!r}, expected {want!r}")
        if case.within and code == 0:
            bound = fields.get("bound")
            upper = fields.get("budget") if case.argv[0] == "check" else fields.get("cost")
            if not b.expect(bound is not None and upper is not None, f"{what}: report lacks bound or cost/budget"):
                return
            if case.argv[0] == "check":
                b.expect(leq(bound, upper), f"{what}: bound {bound} above budget {upper}")
            else:
                b.expect(leq(upper, bound), f"{what}: cost {upper} above bound {bound}")
            # check and eval of one program must report the same bound
            seen = bounds.setdefault(case.argv[1], bound)
            b.expect(seen == bound, f"{what}: bound {bound} differs from {seen}")

    def finish(self, b: Bench, seed: int) -> None:
        return None


# ---------------------------------------------------------------------------
# model-finite


class ModelFinite:
    name = "model-finite"
    # Four times criterion 6's 500 terms: at 500 the check's time varies by
    # 0.13 (interquartile over median) between seeds from its terms alone, and
    # as the median of the nine operations it set op_p50_ms.
    corpus = 2000
    sat = (2, 3, 4)

    def setup(self, rb):
        table = rb.lattice.load_lattice(os.path.join(DATA, "chain3.lat"))
        return [rb.lattice.builtin_lattice(f"sat{c}") for c in self.sat] + [table]

    def prepare(self, b: Bench, seed: int) -> list:
        """The cost-preservation corpus, built as acceptance criterion 6 builds it."""
        rb = b.rb
        cfg = rb.harness.GenConfig(lattice=rb.lattice.NAT, seed=seed, count=self.corpus, max_depth=5,
                                   mode=rb.typecheck.Mode.SOUND)
        return [rb.harness.gen_typed_term(cfg, trial=i) for i in range(self.corpus)]

    def run(self, b: Bench, terms: list, seed: int, index: int) -> None:
        rb = b.rb
        chain3, broken = os.path.join(DATA, "chain3.lat"), os.path.join(DATA, "broken.lat")
        for label, argv, elements in [(f"model sat{c}", ["model", "--lattice", f"sat{c}"], c + 1) for c in self.sat] + [
            ("model chain3", ["model", "--lattice-file", chain3], 3),
        ]:
            got = b.op(label, b.cli, argv + ["--format", "json"])
            if got is FAILED:
                continue
            code, out, _ = got
            b.expect(code == 0, f"{label}: exit {code}, expected 0")
            docs = load_json(b, out, label)
            if docs:
                report = docs[0]
                b.expect(report["passed"] and all(c["ok"] for c in report["checks"]), f"{label}: a check failed")
                b.expect(report["universe"]["exhaustive"], f"{label}: not exhaustive")
                b.expect(report["universe"]["elements"] == elements,
                         f"{label}: {report['universe']['elements']} elements, expected {elements}")

        for label, argv, code_want in (
            ("laws chain3", ["laws", "--lattice-file", chain3], 0),
            ("laws nat", ["laws", "--lattice", "nat", "--sample", "0..20"], 0),
            ("model broken table", ["model", "--lattice-file", broken], 2),
            ("model infinite lattice", ["model", "--lattice", "nat"], 2),
        ):
            got = b.op(label, b.cli, argv + ["--format", "json"])
            if got is FAILED:
                continue
            code, out, _ = got
            b.expect(code == code_want, f"{label}: exit {code}, expected {code_want}")
            if code_want == 0 and code == 0:
                doc = load_json(b, out, label)
                b.expect(bool(doc) and doc["passed"] and all(law["ok"] for law in doc["laws"]),
                         f"{label}: a law failed")

        # The DenModel corpus through the library call, as criterion 6 makes it.
        nat = rb.lattice.NAT
        den = rb.model.DenModel(nat, rb.typecheck.DeltaProfile.default(nat))
        report = b.op("cost preservation", rb.model.check_cost_preservation, terms, den, rb.typecheck.Mode.SOUND)
        if report is not FAILED:
            b.expect(report.ok and report.checked == 3 * self.corpus,
                     f"cost preservation seed {seed}: ok={report.ok} checked={report.checked} "
                     f"{report.counterexamples[:1]}")

    def finish(self, b: Bench, seed: int) -> None:
        return None


WORKLOADS = {w.name: w for w in (FuzzSound, HuntPaper, CheckCorpus, ModelFinite)}
