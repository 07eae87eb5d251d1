"""Resource lattices: partially ordered cost domains with sequential
composition (combine), worst-case branching (join), and a least element.

Shipped instances: naturals, saturating naturals, gas, (time, memory, depth)
triples (the product of three naturals), table lattices, and products.
`check_laws` executes every axiom over a sample and reports witnesses
for failures instead of assuming lawfulness.

Elements are owned by the instance that made them. Every `leq`,
`combine` and `join` tests each operand once for ownership (exact class
and owning instance) and refuses a foreign element or a non-element with
a `LatticeError`. An element is immutable, compares and hashes by its
instance's identity and its payload, and pickles together with its
instance, so that it can cross a process pool. A builtin instance, one
that `builtin_lattice` returns, pickles as its name and unpickles as the
same shared instance, so its elements come back equal; any other instance
pickles by value. Each instance shares one element per payload for its
bottom and the first `SHARED_ELEMENTS` payloads it yields, so `sat<N>` and
table lattices build each element once and `nat` each small cost. A later
payload or a pickled element is a copy, `==` to the shared one: callers
compare elements with `==`. An instance states its bottom, unit step,
large budget and top once, as payloads; `bottom` returns the element that
it shares at construction, and the others are interned when asked for.

A lattice class declares each payload operation once, as its `_leq`,
`_combine` or `_join`: a `str.format` template of one expression over
`{a}`, `{b}` and `{self}`, such as `nat`'s `{a} + {b}`. Defining the class
generates its hooks from its templates in one `exec`, as `record` does a
record's methods, so a patch on the class reaches them. A product formats
each component's templates over its own coordinate and generates its hooks
once per instance, so a nested product inlines every leaf's expression.

Every payload is plain data (a natural, an element name, or a product's
tuple of component payloads), and is its literal: `format` prints it, and
`element`, which validates a parsed one, is the one constructor from data.

Elements are `record`s, the frozen slot classes that the term, type and
derivation classes of the other modules are built from too. A record class
is declared `class C(B, metaclass=record)` with annotations only: they are
its fields and its slots, and a value written after one is its default.
`record` makes the class once and generates its methods in one `exec`,
keeping any that the body defines; a record has one constructor, its class
call, and a slot that a base declares is a cache that it sets to None.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import Any, Iterable, Sequence


class LatticeError(Exception):
    """Malformed lattice, foreign element, or unparseable literal."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(name: str, bases: tuple[type, ...], ns: dict[str, Any]) -> type:
    """The metaclass of a frozen record with slots, `class C(B, metaclass=record)`:
    the body's annotations are the fields, in order, and a value written
    after one is its default. It is a function that calls `type`, since the
    slots must exist when the class is made, and a class of exactly `type`
    keeps `isinstance` on the interpreter's fast path."""
    names = tuple(ns.get("__annotations__", ()))
    defaults = {n: ns[n] for n in names if n in ns}
    if any(n not in defaults for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    cls = type(name, bases, {**{k: v for k, v in ns.items() if k not in defaults}, "__slots__": names})
    caches = [n for base in cls.__mro__[1:] for n in base.__dict__.get("__slots__", ())]
    env = {f"_set_{n}": getattr(cls, n).__set__ for n in names + tuple(caches)}
    env.update({f"_default_{n}": v for n, v in defaults.items()})
    params = ", ".join(["self"] + [f"{n}=_default_{n}" if n in defaults else n for n in names])
    sets = [f"_set_{n}(self, {n})" for n in names] + [f"_set_{n}(self, None)" for n in caches]
    values = f"({', '.join(f'self.{n}' for n in names)}{',' if len(names) == 1 else ''})"
    same = " and ".join(f"(self.{n} is other.{n} or self.{n} == other.{n})" for n in names)
    text = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    kept_hash = ["h = self._hash", "if h is None:", f"    h = hash({values})", "    _set__hash(self, h)", "return h"]
    methods = {
        "__init__": (params, sets or ["pass"]),
        "__eq__": ("self, other", ["if other.__class__ is not self.__class__:", "    return NotImplemented",
                                   f"return {same or True}"]),
        "__hash__": ("self", kept_hash if "_hash" in caches else [f"return hash({values})"]),
        "__repr__": ("self", [f'return f"{{self.__class__.__qualname__}}({text})"']),
        "__reduce__": ("self", [f"return self.__class__, {values}"]),
    }
    exec("\n".join(f"def {method}({args}):\n    " + "\n    ".join(body)
                   for method, (args, body) in methods.items()), env)
    for method in methods:
        env[method].__qualname__ = f"{cls.__qualname__}.{method}"
    env["__init__"].__annotations__ = dict(ns.get("__annotations__", {}))
    env.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for method in [*methods, "__setattr__", "__delattr__"]:
        if cls.__dict__.get(method) is None:  # a body's `__eq__` alone leaves `__hash__` None
            setattr(cls, method, env[method])
    # after __init__: the dataclass docstring is read off its signature
    dataclass(init=False, repr=False, eq=False)(cls)
    for f in fields(cls):
        if f.name in defaults:
            f.default = defaults[f.name]
    return cls


class LatticeElement(metaclass=record):
    """An immutable cost value owned by a specific lattice instance. Only
    its instance builds one (`element`, `leq`/`combine`/`join`, `bottom`)."""

    instance: "LatticeInstance"
    payload: Any

    def __repr__(self) -> str:
        return f"<{self.instance.name}:{self.instance.format(self)}>"


SHARED_ELEMENTS = 256  # shared payloads per instance; a bound keeps construction O(1) in a sat cap


def _literal(payload: Any) -> str:
    """A payload's literal, the inverse of the parser's: a natural's digits, an
    element name itself, a tuple's parts joined by commas in parentheses."""
    if payload.__class__ is not tuple:
        return str(payload)
    return f"({','.join([_literal(p) if p.__class__ is tuple else str(p) for p in payload])})"


def _generate(templates: dict[str, str], params: str, env: dict) -> dict[str, Any]:
    """The functions of hook templates over `{a}`, `{b}` and `{self}`, from one
    `exec` in env, each named by its hook."""
    exec("\n".join(f"def {hook}({params}):\n    return {t.format(a='a', b='b', self='self')}"
                   for hook, t in templates.items()), env)
    return {hook: env[hook] for hook in templates}


class LatticeInstance:
    """Base class for concrete lattices. Instances compare by identity;
    elements are only usable with the instance that created them.

    `leq`, `combine` and `join` test each operand once: an element of
    exactly `LatticeElement` whose `instance` is this one. Any other operand
    goes to `_own`, which raises the error. The four operations are defined
    here alone. Each call of the first three runs the `_leq`, `_combine` or
    `_join` hook generated from the subclass's template (module docstring)
    on payloads. Results are shared elements up to `SHARED_ELEMENTS` payloads
    and copies past them, so callers compare elements with `==`. A subclass
    sets its fields, then calls `LatticeInstance.__init__` with its bottom,
    unit-step, large-budget and top payloads (top None if there is no unique
    one), and defines `_draw(rng)`, a random payload; a finite one also
    defines `size` and `_payloads`, its payloads in order. Elements are made
    here alone, bottom's at construction and the others when asked for; no
    payload of the instance's own goes through `_check_payload`.
    """

    name: str
    _templates: dict[str, str] = {}

    def __init_subclass__(cls):
        declared = {h: t for h in ("_leq", "_combine", "_join") if isinstance(t := cls.__dict__.get(h), str)}
        if declared:  # a class that declares none, such as the triple, gets no attribute
            cls._templates = {**cls._templates, **declared}
            for hook, fn in _generate(declared, "self, a, b", {}).items():
                setattr(cls, hook, fn)

    def __init__(self, bottom: Any, unit: Any, large: Any, top: Any = None):
        self._shared: dict[Any, LatticeElement] = {}
        self._bot = self._new(bottom)
        self._unit, self._large, self._top = unit, large, top

    def _new(self, payload: Any) -> LatticeElement:
        """A new element of a valid payload, shared while the table has room."""
        el = LatticeElement(self, payload)
        if len(self._shared) < SHARED_ELEMENTS:
            self._shared[payload] = el
        return el

    def _intern(self, payload: Any) -> LatticeElement:
        """The element of a valid payload: the shared one, or else a new one."""
        return self._shared.get(payload) or self._new(payload)

    def _own(self, el: LatticeElement) -> Any:
        if el.__class__ is not LatticeElement or el.instance is not self:
            if el.__class__ is not LatticeElement:
                other = repr(type(el).__name__)
            elif el.instance.name == self.name:
                other = f"another instance of {self.name!r}"
            else:
                other = repr(el.instance.name)
            raise LatticeError(f"element of {other} used with lattice {self.name!r}")
        return el.payload

    def element(self, payload: Any) -> LatticeElement:
        """The element of a payload, which `_check_payload` validates: the one
        constructor from data, surface literals included."""
        return self._intern(self._check_payload(payload))

    def _check_payload(self, payload: Any) -> Any:
        raise NotImplementedError

    def leq(self, a: LatticeElement, b: LatticeElement) -> bool:
        pa = a.payload if a.__class__ is LatticeElement and a.instance is self else self._own(a)
        pb = b.payload if b.__class__ is LatticeElement and b.instance is self else self._own(b)
        return self._leq(pa, pb)

    def combine(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        pa = a.payload if a.__class__ is LatticeElement and a.instance is self else self._own(a)
        pb = b.payload if b.__class__ is LatticeElement and b.instance is self else self._own(b)
        p = self._combine(pa, pb)
        return self._shared.get(p) or self._new(p)

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        pa = a.payload if a.__class__ is LatticeElement and a.instance is self else self._own(a)
        pb = b.payload if b.__class__ is LatticeElement and b.instance is self else self._own(b)
        p = self._join(pa, pb)
        return self._shared.get(p) or self._new(p)

    def bottom(self) -> LatticeElement:
        return self._bot

    @property
    def is_finite(self) -> bool:
        return self.size() is not None

    def size(self) -> int | None:
        """The number of elements, counted without building them; None when
        the lattice is infinite."""
        return None

    def enumerate(self) -> list[LatticeElement]:
        return [self._intern(p) for p in self._payloads()]

    def _payloads(self) -> Iterable[Any]:
        """Every payload, in order; a finite subclass defines it."""
        raise LatticeError(f"lattice {self.name!r} is not finite")

    def top(self) -> LatticeElement | None:
        """Greatest element, if the instance has a unique one."""
        return None if self._top is None else self._intern(self._top)

    def format(self, el: LatticeElement) -> str:
        """Render an element as a surface literal, printed from its payload."""
        return _literal(self._own(el))

    def unit_step(self) -> LatticeElement:
        """Smallest nonzero step where one exists; bottom otherwise.
        Used as the default per-operation cost."""
        return self._intern(self._unit)

    def random_element(self, rng) -> LatticeElement:
        """A small random element, for fuzzing grades and budgets: the
        element of the subclass's `_draw(rng)`."""
        return self._intern(self._draw(rng))

    def large_budget(self) -> LatticeElement:
        """A budget comfortably above any bound the fuzzer can synthesize."""
        return self._intern(self._large)

    def __reduce_ex__(self, protocol):
        if _BUILTINS.get(self.name) is self:
            return builtin_lattice, (self.name,)
        return super().__reduce_ex__(protocol)

    def __repr__(self) -> str:
        return f"<lattice {self.name}>"


class NatLattice(LatticeInstance):
    """Naturals under <= with + and max. Also used for gas."""

    def __init__(self, name: str = "nat"):
        self.name = name
        super().__init__(0, 1, 10**6)

    def _check_payload(self, payload):
        if type(payload) is not int or payload < 0:  # not a bool, which would share 0 and 1
            raise LatticeError(f"{self.name}: expected a natural, got {payload!r}")
        return payload

    _leq = "{a} <= {b}"
    _combine = "{a} + {b}"
    _join = "{a} if {a} >= {b} else {b}"  # max(a, b), without the builtin's call

    def _draw(self, rng):
        return rng.randint(0, 6)


class SaturatingNatLattice(NatLattice):
    """Naturals 0..cap with cap-clamped addition. Finite, so usable by the
    exhaustive model checker while keeping combine distinct from join."""

    def __init__(self, cap: int):
        if cap < 0:
            raise LatticeError("saturating cap must be a natural")
        self.cap = cap
        self.name = f"sat{cap}"
        LatticeInstance.__init__(self, 0, min(1, cap), cap, cap)

    def _check_payload(self, payload):
        if type(payload) is not int or not (0 <= payload <= self.cap):
            raise LatticeError(f"{self.name}: expected 0..{self.cap}, got {payload!r}")
        return payload

    _combine = "c if (c := {a} + {b}) <= {self}.cap else {self}.cap"  # min(a + b, cap), without the builtin's call

    def size(self):
        return self.cap + 1

    def _payloads(self):
        return range(self.cap + 1)

    def _draw(self, rng):
        return rng.randint(0, self.cap)


class FiniteLattice(LatticeInstance):
    """Lattice given by explicit tables over named elements.

    The constructor validates structure only (totality, known names);
    lawfulness is `check_laws`'s job so deliberately broken tables can be
    built for checker self-tests.
    """

    def __init__(
        self,
        name: str,
        elements: Sequence[str],
        leq_pairs: Iterable[tuple[str, str]],
        combine_table: dict[tuple[str, str], str],
        join_table: dict[tuple[str, str], str],
        bottom_name: str,
    ):
        self.name = name
        self.names = list(elements)
        known = set(self.names)
        if len(known) != len(self.names):
            raise LatticeError(f"{name}: duplicate element names")
        if bottom_name not in known:
            raise LatticeError(f"{name}: bottom {bottom_name!r} is not an element")
        for a, b in leq_pairs:
            if a not in known or b not in known:
                raise LatticeError(f"{name}: leq pair ({a}, {b}) mentions unknown element")
        for label, table in (("combine", combine_table), ("join", join_table)):
            for (a, b), c in table.items():
                if a not in known or b not in known or c not in known:
                    raise LatticeError(f"{name}: {label} entry {a} {b} -> {c} mentions unknown element")
            missing = [
                (a, b) for a in self.names for b in self.names if (a, b) not in table
            ]
            if missing:
                detail = "not a join-semilattice: " if label == "join" else ""
                raise LatticeError(
                    f"{name}: {detail}{label} table missing entry for {missing[0][0]} {missing[0][1]}"
                )
        # rows: leq_rows[a][b] is a <= b; combine_rows and join_rows name a (+) b and a join b
        pairs = set(leq_pairs)
        names = self.names
        leq = self.leq_rows = {a: {b: (a, b) in pairs for b in names} for a in names}
        self.combine_rows = {a: {b: combine_table[a, b] for b in names} for a in names}
        self.join_rows = {a: {b: join_table[a, b] for b in names} for a in names}
        # the unique top or None; the unique atom or bottom; the top or the first maximal element
        tops = [n for n in names if all(leq[m][n] for m in names)]
        top = tops[0] if len(tops) == 1 else None
        above = [n for n in names if n != bottom_name and leq[bottom_name][n]]
        atoms = [n for n in above if not any(m != n and leq[m][n] for m in above)]
        maximal = (n for n in names if not any(m != n and leq[n][m] for m in names))
        large = top if top is not None else next(maximal, names[-1])
        super().__init__(bottom_name, atoms[0] if len(atoms) == 1 else bottom_name, large, top)

    def _check_payload(self, payload):
        if not isinstance(payload, str) or payload not in self.leq_rows:
            raise LatticeError(f"{self.name}: unknown element {payload!r}")
        return payload

    _leq = "{self}.leq_rows[{a}][{b}]"
    _combine = "{self}.combine_rows[{a}][{b}]"
    _join = "{self}.join_rows[{a}][{b}]"

    def size(self):
        return len(self.names)

    def _payloads(self):
        return self.names

    def _draw(self, rng):
        return rng.choice(self.names)


class ProductLattice(LatticeInstance):
    """Componentwise product of lattices. A payload is the tuple of its
    components' payloads. Its templates join the components' ones, the i-th
    over `{a}[i]`, `{b}[i]` and `{self}.components[i]`, into an `and` chain
    (`_leq`) or a tuple (`_combine`, `_join`). Its bottom, large budget, top
    and draw are the tuples of its components' (no top if one has none),
    its unit step is the first one's over the others' bottoms, as the
    triple's time tick, and its payloads are the product of theirs. Its
    generated hooks do not pickle, so a product that is not a builtin
    pickles as its class applied to its components and name."""

    def __init__(self, components: Sequence[LatticeInstance], name: str | None = None):
        if not components:
            raise LatticeError("product lattice needs at least one component")
        self.components = list(components)
        self.name = name or "product({})".format(",".join(c.name for c in components))
        coords = [{h: t.format(a=f"{{a}}[{i}]", b=f"{{b}}[{i}]", self=f"{{self}}.components[{i}]")
                   for h, t in c._templates.items()} for i, c in enumerate(self.components)]
        self._templates = {"_leq": " and ".join(f"({t['_leq']})" for t in coords),
                           "_combine": f"({', '.join(t['_combine'] for t in coords)},)",
                           "_join": f"({', '.join(t['_join'] for t in coords)},)"}
        self._leq, self._combine, self._join = _generate(self._templates, "a, b", {"self": self}).values()
        bottoms = tuple([c._bot.payload for c in self.components])
        tops = tuple([c._top for c in self.components])
        super().__init__(bottoms, (self.components[0]._unit, *bottoms[1:]),
                         tuple([c._large for c in self.components]), None if None in tops else tops)

    def __reduce__(self):
        return self.__class__, (self.components, self.name)

    def _check_payload(self, payload):
        if not isinstance(payload, tuple) or len(payload) != len(self.components):
            raise LatticeError(f"{self.name}: expected a {len(self.components)}-tuple, got {payload!r}")
        return tuple([c._check_payload(x) for c, x in zip(self.components, payload)])

    def size(self):
        sizes = [c.size() for c in self.components]
        return None if None in sizes else math.prod(sizes)

    def _payloads(self):
        if not self.is_finite:  # named by the product, not by its infinite component
            return super()._payloads()
        return itertools.product(*[c._payloads() for c in self.components])

    def _draw(self, rng):
        return tuple([c._draw(rng) for c in self.components])


NAT = NatLattice("nat")


class TripleLattice(ProductLattice):
    """(time, memory, depth): the product of three `nat`s, with the product's
    hooks and payloads; it keeps only its error text and its 0..3 `_draw`."""

    def __init__(self):
        super().__init__([NAT, NAT, NAT], "triple")

    def _check_payload(self, payload):
        try:
            return super()._check_payload(payload)
        except LatticeError:
            raise LatticeError(f"{self.name}: expected a triple of naturals, got {payload!r}") from None

    def _draw(self, rng):  # 0..3 in each coordinate, not nat's 0..6
        return (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))


GAS = NatLattice("gas")
TRIPLE = TripleLattice()
_BUILTINS: dict[str, LatticeInstance] = {inst.name: inst for inst in (NAT, GAS, TRIPLE)}


def builtin_lattice(spec: str) -> LatticeInstance:
    """Resolve a builtin lattice name: nat, gas, triple, sat<cap>. Each name
    has one shared instance."""
    inst = _BUILTINS.get(spec)
    cap = spec[3:]
    if inst is None and spec.startswith("sat") and cap.isascii() and cap.isdigit():
        try:  # sat03 is sat3
            inst = _BUILTINS.setdefault(f"sat{int(cap)}", SaturatingNatLattice(int(cap)))
        except ValueError:  # more digits than int() converts
            pass
    if inst is None:
        raise LatticeError(f"unknown lattice {spec!r} (expected nat, gas, triple, or sat<cap>)")
    return inst


# ---------------------------------------------------------------------------
# Law checking


# The most elements a law or model check takes. No law checks more than
# n**3 cases: 64 elements take under a second.
MAX_CHECKED_ELEMENTS = 64


def check_element_count(what: str, count: int) -> None:
    """Refuse a law or model check over more than MAX_CHECKED_ELEMENTS
    elements; callers count the elements before they build any."""
    if count > MAX_CHECKED_ELEMENTS:
        raise LatticeError(f"{what} has {count} elements; law and model checks take at most {MAX_CHECKED_ELEMENTS}")


@dataclass
class LawResult:
    law: str
    ok: bool
    witness: tuple | None
    checked: int

    def describe(self) -> str:
        if self.ok:
            return f"{self.law}: pass ({self.checked} cases)"
        parts = ", ".join(repr(w) for w in self.witness)
        return f"{self.law}: FAIL at ({parts})"


@dataclass
class LawReport:
    lattice: str
    sample_size: int
    results: list[LawResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.ok]

    def __str__(self) -> str:
        head = f"laws for {self.lattice} over {self.sample_size} elements"
        return "\n".join([head] + ["  " + r.describe() for r in self.results])

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "sample_size": self.sample_size,
            "passed": self.passed,
            "laws": [
                {
                    "law": r.law,
                    "ok": r.ok,
                    "checked": r.checked,
                    "witness": None if r.witness is None else [repr(w) for w in r.witness],
                }
                for r in self.results
            ],
        }


def check_laws(inst: LatticeInstance, sample: Sequence[LatticeElement] | None = None) -> LawReport:
    """Execute every lattice axiom over the sample; failures carry witnesses.

    Finite instances default to their full element list. The sample, of at
    most MAX_CHECKED_ELEMENTS distinct elements, need not be closed under the
    operations: each law only compares computed results. combine-monotone
    checks `a ≤ a'` ⇒ `a ⊕ b ≤ a' ⊕ b`; with commutativity and transitivity
    that gives `a ⊕ b ≤ a' ⊕ b'` exactly on a full finite enumeration, while
    a sampled nat or triple relies on `≤` being transitive outside it.
    """
    if sample is None:
        if not inst.is_finite:
            raise LatticeError(f"lattice {inst.name!r} is infinite; a sample is required")
        check_element_count(f"lattice {inst.name!r}", inst.size())
        sample = inst.enumerate()
    els = list(dict.fromkeys(sample))
    if not els:
        raise LatticeError("law check needs a nonempty sample")
    check_element_count("the law sample", len(els))
    for el in els:
        inst._own(el)

    report = LawReport(lattice=inst.name, sample_size=len(els))
    bot = inst.bottom()
    leq, combine, join = inst.leq, inst.combine, inst.join

    def run(law: str, cases: Iterable[tuple[tuple, bool]]):
        """Count (witness, holds) cases up to the first that fails."""
        checked = 0
        for witness, holds in cases:
            checked += 1
            if not holds:
                report.results.append(LawResult(law, False, witness, checked))
                return
        report.results.append(LawResult(law, True, None, checked))

    # order axioms; above[i] holds the positions of the elements at or above els[i]
    pos = range(len(els))
    run("leq-reflexive", (((a,), leq(a, a)) for a in els))
    above = [[j for j in pos if leq(a, els[j])] for a in els]
    leq_idx = [(i, j) for i in pos for j in above[i]]
    run("leq-transitive", (((els[i], els[j], els[k]), leq(els[i], els[k])) for i, j in leq_idx for k in above[j]))
    run("leq-antisymmetric", (((els[i], els[j]), i == j or not leq(els[j], els[i])) for i, j in leq_idx))

    # combine axioms; each pair's combine and join is computed once, into a
    # table indexed by the pair's positions in the sample
    comb = [[combine(a, b) for b in els] for a in els]
    run("combine-commutative", (
        ((els[i], els[j]), comb[i][j] == comb[j][i]) for i in pos for j in pos
    ))
    run("combine-associative", (
        ((a, els[j], c), combine(ab, c) == combine(a, comb[j][k]))
        for i, a in enumerate(els) for j, ab in enumerate(comb[i]) for k, c in enumerate(els)
    ))
    run("combine-bottom-identity", (((a,), combine(a, bot) == a) for a in els))
    run("combine-monotone", (
        ((els[i], els[i2], b), leq(comb[i][j], comb[i2][j]))
        for i, i2 in leq_idx for j, b in enumerate(els)
    ))

    # join axioms: least upper bound
    jn = [[join(a, b) for b in els] for a in els]
    run("join-upper-bound", (
        ((a, b), leq(a, jn[i][j]) and leq(b, jn[i][j]))
        for i, a in enumerate(els) for j, b in enumerate(els)
    ))
    run("join-least", (
        ((a, b, c), not (leq(a, c) and leq(b, c)) or leq(jn[i][j], c))
        for i, a in enumerate(els) for j, b in enumerate(els) for c in els
    ))
    run("bottom-least", (((a,), leq(bot, a)) for a in els))
    return report


# ---------------------------------------------------------------------------
# Table file format


def parse_lattice_table(text: str, name: str = "finite") -> FiniteLattice:
    """Parse the plain-text table format:

        elements: a b c
        bottom: a
        leq:
        a a
        a b
        combine:
        a b -> c
        join:
        a b -> c

    Entries may follow the header on the same line or on subsequent lines;
    `#` starts a comment. An element name must lex as one identifier, so
    that a program can name it as a literal. The constructor validates
    totality.
    """
    from rblam.syntax import _TOKEN, RESERVED  # syntax imports this module

    elements: list[str] = []
    bottom: str | None = None
    leq_pairs: list[tuple[str, str]] = []
    combine: dict[tuple[str, str], str] = {}
    join: dict[tuple[str, str], str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        matched_header = False
        for header in ("elements:", "bottom:", "leq:", "combine:", "join:"):
            if lowered.startswith(header):
                section = header[:-1]
                line = line[len(header):].strip()
                matched_header = True
                break
        if matched_header and not line:
            continue
        if section is None:
            raise LatticeError(f"line {lineno}: entry before any section header")
        if section == "elements":
            for word in line.split():
                if _TOKEN.findall(word) != [word] or not (word[0].isalpha() or word[0] == "_") or word in RESERVED:
                    raise LatticeError(f"line {lineno}: element name {word!r} is not an identifier")
                elements.append(word)
        elif section == "bottom":
            if bottom is not None:
                raise LatticeError(f"line {lineno}: bottom declared twice")
            bottom = line
        elif section == "leq":
            parts = line.split()
            if len(parts) != 2:
                raise LatticeError(f"line {lineno}: leq entries are 'a b', got {line!r}")
            leq_pairs.append((parts[0], parts[1]))
        else:
            if "->" not in line:
                raise LatticeError(f"line {lineno}: table entries are 'a b -> c', got {line!r}")
            lhs, rhs = line.split("->", 1)
            parts = lhs.split()
            if len(parts) != 2 or not rhs.split():
                raise LatticeError(f"line {lineno}: table entries are 'a b -> c', got {line!r}")
            target = combine if section == "combine" else join
            key = (parts[0], parts[1])
            if key in target:
                raise LatticeError(f"line {lineno}: duplicate {section} entry for {key[0]} {key[1]}")
            target[key] = rhs.strip()
    if not elements:
        raise LatticeError("table declares no elements")
    if bottom is None:
        raise LatticeError("table declares no bottom")
    return FiniteLattice(name, elements, leq_pairs, combine, join, bottom)


def load_lattice(path: str) -> FiniteLattice:
    """Load a finite lattice from a table file, run the law checker and
    refuse an unlawful table. `parse_lattice_table` reads one unchecked."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not part of the table
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LatticeError(f"cannot read {path}: {exc}") from exc
    inst = parse_lattice_table(text, name=os.path.splitext(os.path.basename(path))[0])
    report = check_laws(inst)
    if not report.passed:
        bad = report.failures()[0]
        raise LatticeError(f"{inst.name}: law {bad.law} fails at {bad.witness!r}")
    return inst
