"""Span tracer that measures rblam's layers from outside.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in every rblam module that binds it (``from x import f``
copies the binding, so each copy is patched). Lattice operations
(``LatticeInstance.leq/combine/join/bottom``) are far too frequent to keep
as spans: they are counted and timed in aggregate, and their time is
charged to the enclosing span so that its self time excludes them.

Each span records name, start, end, parent span and operation id. Direct
recursion through a module global (``pretty`` -> ``pretty``) is folded into
the outer span; the call is still counted. Self time is derived after the
run by `self_times`: span duration minus the durations of its child spans
minus the time charged to it (lattice operations and the tracer's own
bookkeeping).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LATTICE_OPS = ("leq", "combine", "join", "bottom")
GEN_ROOTS = ("harness.gen_typed_term", "harness.gen_value")


class Spans:
    """Closed spans in parallel arrays; index i is one span."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.charged = array("d")

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name_id: int, start: float, parent: int, op: int) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        self.op.append(op)
        self.charged.append(0.0)
        return len(self.name) - 1


def self_times(spans: Spans, n_names: int) -> list[float]:
    """Total self time per name id: each span's duration minus its children's
    durations minus the time charged to it."""
    child = [0.0] * len(spans)
    for i in range(len(spans)):
        p = spans.parent[i]
        if p >= 0:
            child[p] += spans.end[i] - spans.start[i]
    out = [0.0] * n_names
    for i in range(len(spans)):
        dur = spans.end[i] - spans.start[i]
        out[spans.name[i]] += dur - child[i] - spans.charged[i]
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = Spans()
        self.stack: list[int] = []
        self.active: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.leaf_time: Counter[str] = Counter()
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return i

    def enter(self, name_id: int) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = self.spans.open(name_id, self.clock(), parent, self.op_id)
        self.stack.append(idx)
        self.active[name_id] += 1
        return idx

    def exit(self, idx: int) -> None:
        self.spans.end[idx] = self.clock()
        self.stack.pop()
        self.active[self.spans.name[idx]] -= 1

    def charge(self, seconds: float) -> None:
        """Exclude time spent inside the innermost open span from its self time."""
        if self.stack:
            self.spans.charged[self.stack[-1]] += seconds

    def in_generation(self) -> bool:
        return any(self.active[self._ids[n]] for n in GEN_ROOTS if n in self._ids)

    def self_time(self) -> dict[str, float]:
        totals = self_times(self.spans, len(self.names))
        return {name: totals[i] for i, name in enumerate(self.names)}

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        calls = self.calls
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and spans.name[stack[-1]] == nid:
                return fn(*args, **kwargs)  # direct recursion: one span
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            idx = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(idx)
                if hook is not None:
                    self._after(after, None, exc)
                raise
            self.exit(idx)
            if hook is not None:
                self._after(after, result, None)
            return result

        return traced

    def _after(self, after, result, exc) -> None:
        t0 = self.clock()
        after(result, exc)
        self.charge(self.clock() - t0)

    def wrap_leaf(self, name: str, fn):
        calls = self.calls
        leaf_time = self.leaf_time
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                leaf_time[name] += dt
                self.charge(dt)

        return traced

    # -- installation ----------------------------------------------------

    def install(self, rb) -> None:
        """Wrap the public functions of every layer module in `rb` (a
        namespace of layer name -> module), wherever an rblam module binds
        them."""
        modules = vars(rb)
        package = next(iter(modules.values())).__name__.split(".")[0]
        hooks = _hooks(modules)
        replacements: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        base = modules["lattice"].LatticeInstance
        for op in LATTICE_OPS:
            self._patch(base, op, self.wrap_leaf(f"lattice.{op}", vars(base)[op]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


def _hooks(modules) -> dict:
    """Per-function counters recorded at the layer boundary. A hook runs
    before the call, may replace the arguments, and returns a callback run
    after the call; the callback's time is charged to the caller's span."""
    term_size = _node_counter(modules["syntax"].Term)
    typing_error = modules["typecheck"].TypingError

    def synthesize(tr: Tracer, args, kwargs):
        under_gen = tr.in_generation()
        term = args[1] if len(args) > 1 else kwargs["term"]

        def after(result, exc):
            tr.counts["typecheck.synthesize.nodes"] += term_size(term)
            if under_gen:
                tr.counts["harness.gen.synth_calls"] += 1
                if isinstance(exc, typing_error):
                    tr.counts["harness.gen.synth_errors"] += 1

        return args, kwargs, after

    def minimal_inhabitant(tr: Tracer, args, kwargs):
        if tr.in_generation():
            tr.counts["harness.gen.fallback_calls"] += 1
        return args, kwargs, _noop

    def minimize(tr: Tracer, args, kwargs):
        args = list(args)
        prop = args[1] if len(args) > 1 else kwargs.pop("failing_property")

        def counted(term):
            tr.counts["harness.minimize.candidates"] += 1
            failed = prop(term)
            if failed:
                tr.counts["harness.minimize.accepted"] += 1
            return failed

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs["failing_property"] = counted
        return tuple(args), kwargs, _noop

    def parse(tr: Tracer, args, kwargs):
        def after(result, exc):
            if exc is None:
                tr.counts["syntax.parse.nodes"] += term_size(result)

        return args, kwargs, after

    def interpret_types(tr: Tracer, args, kwargs):
        def after(result, exc):
            if exc is None:
                tr.counts["model.sections"] += sum(rep.section_count() for rep in result.values())

        return args, kwargs, after

    return {
        "typecheck.synthesize": synthesize,
        "harness.minimal_inhabitant": minimal_inhabitant,
        "harness.minimize": minimize,
        "syntax.parse": parse,
        "model.interpret_types": interpret_types,
    }


def _noop(result, exc) -> None:
    return None


def _node_counter(term_cls):
    """Iterative term size, so that counting never hits the recursion limit."""
    fields: dict[type, tuple[str, ...]] = {}

    def size(t) -> int:
        n, todo = 0, [t]
        while todo:
            t = todo.pop()
            n += 1
            names = fields.get(type(t))
            if names is None:
                names = fields[type(t)] = tuple(f.name for f in dataclasses.fields(t))
            todo.extend(c for c in (getattr(t, f) for f in names) if isinstance(c, term_cls))
        return n

    return size
