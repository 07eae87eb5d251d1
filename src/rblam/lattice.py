"""Resource lattices: partially ordered cost domains with sequential
composition (combine), worst-case branching (join), and a least element.

Shipped instances: naturals, saturating naturals, (time, memory, depth)
triples, gas, finite table-driven lattices, and products of instances.
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
compare elements with `==`. Every operation runs its payload hook (`_leq`,
`_combine`, `_join`, `_bottom`), the one definition of the lattice.

Every payload is plain data (a natural, a tuple of naturals, an element
name, or a product's tuple of component payloads), and a parsed literal is
its payload: `element`, which validates it, is the one constructor from data.

Elements are `record`s, the frozen slot classes that the term, type and
derivation classes of the other modules are built from too; a record has
one constructor, its class call.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence


class LatticeError(Exception):
    """Malformed lattice, foreign element, or unparseable literal."""


def _getter(names: Sequence[str]) -> Callable[[object], tuple]:
    if not names:
        return lambda t: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names)


def record(cls: type | None = None, /, **defaults):
    """Make cls a frozen record with slots: `@record`, or `@record(f=v)` to
    give trailing fields defaults. The class body declares `__slots__` as
    its annotated fields, in order. The class keeps the frozen-dataclass
    contract and gains an `__init__` that writes each slot through its
    descriptor, past the refusing `__setattr__`; the class call is a
    record's one constructor. Slots that a base class declares are caches,
    which `__init__` sets to None; a class that inherits a `_hash` slot
    computes its hash once and keeps it there."""
    if cls is None:
        return lambda cls: record(cls, **defaults)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if cls.__dict__.get("__slots__") != names:
        raise TypeError(f"{cls.__name__}.__slots__ must be its fields {names}")
    if set(defaults) - set(names) or any(
        n not in defaults for n in names[len(names) - len(defaults):]
    ):
        raise TypeError(f"{cls.__name__}: defaults must name trailing fields")
    caches = [n for base in cls.__mro__[1:] for n in base.__dict__.get("__slots__", ())]
    env = {f"_set_{n}": getattr(cls, n).__set__ for n in names + tuple(caches)}
    env.update({f"_default_{n}": v for n, v in defaults.items()})
    params = ", ".join(["self"] + [f"{n}=_default_{n}" if n in defaults else n for n in names])
    body = [f"    _set_{n}(self, {n})" for n in names] + [f"    _set_{n}(self, None)" for n in caches]
    exec("\n".join([f"def __init__({params}):"] + (body or ["    pass"])), env)
    init = cls.__init__ = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__dict__.get("__annotations__", {}))
    # after __init__: the dataclass docstring is read off its signature
    dataclass(init=False, frozen=True)(cls)
    for f in fields(cls):
        if f.name in defaults:
            f.default = defaults[f.name]
    key = _getter(names)
    cls.__reduce__ = lambda self: (self.__class__, key(self))
    if "_hash" in caches:
        set_hash = env["_set__hash"]

        def __hash__(self):  # the dataclass hash of the fields, kept
            h = self._hash
            if h is None:
                h = hash(key(self))
                set_hash(self, h)
            return h

        cls.__hash__ = __hash__
    return cls


@record
class LatticeElement:
    """An immutable cost value owned by a specific lattice instance. Only
    its instance builds one (`element`, `leq`/`combine`/`join`, `bottom`)."""

    __slots__ = ("instance", "payload")
    instance: "LatticeInstance"
    payload: Any

    def __eq__(self, other):
        if other.__class__ is not LatticeElement:
            return NotImplemented
        return self.instance is other.instance and self.payload == other.payload

    def __hash__(self):
        return hash((self.instance, self.payload))

    def __repr__(self) -> str:
        return f"<{self.instance.name}:{self.instance.format(self)}>"


SHARED_ELEMENTS = 256  # shared payloads per instance; a bound keeps construction O(1) in a sat cap


class LatticeInstance:
    """Base class for concrete lattices. Instances compare by identity;
    elements are only usable with the instance that created them.

    `leq`, `combine` and `join` test each operand once: an element of
    exactly `LatticeElement` whose `instance` is this one. Any other operand
    goes to `_own`, which raises the error. The four operations are defined
    here alone, and each call runs the subclass's `_leq`, `_combine`, `_join`
    or `_bottom` hook, the one definition of the lattice, on payloads. Results
    are shared elements up to `SHARED_ELEMENTS` payloads and copies past
    them, so callers compare elements with `==`. A subclass sets its fields,
    then calls `LatticeInstance.__init__`, which shares the bottom first.
    """

    name: str

    def __init__(self):
        self._shared: dict[Any, LatticeElement] = {}
        self._new(self._bottom())

    def _new(self, payload: Any) -> LatticeElement:
        """A new element of a valid payload, shared while the table has room."""
        el = LatticeElement(self, payload)
        if len(self._shared) < SHARED_ELEMENTS:
            self._shared[payload] = el
        return el

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
        p = self._check_payload(payload)
        return self._shared.get(p) or self._new(p)

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
        p = self._bottom()
        return self._shared.get(p) or self._new(p)

    def _leq(self, a: Any, b: Any) -> bool:
        raise NotImplementedError

    def _combine(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _bottom(self) -> Any:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    def enumerate(self) -> list[LatticeElement]:
        raise LatticeError(f"lattice {self.name!r} is not finite")

    def top(self) -> LatticeElement | None:
        """Greatest element, if the instance has a unique one."""
        return None

    def format(self, el: LatticeElement) -> str:
        """Render an element as a surface literal."""
        raise NotImplementedError

    def unit_step(self) -> LatticeElement:
        """Smallest nonzero step where one exists; bottom otherwise.
        Used as the default per-operation cost."""
        return self.bottom()

    def random_element(self, rng) -> LatticeElement:
        """A small random element, for fuzzing grades and budgets."""
        raise NotImplementedError

    def large_budget(self) -> LatticeElement:
        """A budget comfortably above any bound the fuzzer can synthesize."""
        raise NotImplementedError

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
        super().__init__()

    def _check_payload(self, payload):
        if type(payload) is not int or payload < 0:  # not a bool, which would share 0 and 1
            raise LatticeError(f"{self.name}: expected a natural, got {payload!r}")
        return payload

    def _leq(self, a, b):
        return a <= b

    def _combine(self, a, b):
        return a + b

    def _join(self, a, b):
        return a if a >= b else b  # max(a, b), without the builtin's call

    def _bottom(self):
        return 0

    def format(self, el):
        return str(self._own(el))

    def unit_step(self):
        return self.element(1)

    def random_element(self, rng):
        return self.element(rng.randint(0, 6))

    def large_budget(self):
        return self.element(10**6)


class SaturatingNatLattice(NatLattice):
    """Naturals 0..cap with cap-clamped addition. Finite, so usable by the
    exhaustive model checker while keeping combine distinct from join."""

    def __init__(self, cap: int):
        if cap < 0:
            raise LatticeError("saturating cap must be a natural")
        self.cap = cap
        super().__init__(f"sat{cap}")

    def _check_payload(self, payload):
        if type(payload) is not int or not (0 <= payload <= self.cap):
            raise LatticeError(f"{self.name}: expected 0..{self.cap}, got {payload!r}")
        return payload

    def _combine(self, a, b):
        c = a + b
        return c if c <= self.cap else self.cap  # min(a + b, cap), without the builtin's call

    @property
    def is_finite(self):
        return True

    def enumerate(self):
        return [self.element(i) for i in range(self.cap + 1)]

    def top(self):
        return self.element(self.cap)

    def unit_step(self):
        return self.element(min(1, self.cap))

    def random_element(self, rng):
        return self.element(rng.randint(0, self.cap))

    def large_budget(self):
        return self.element(self.cap)


class TripleLattice(LatticeInstance):
    """(time, memory, depth) triples with pointwise order, + and max."""

    name = "triple"

    def _check_payload(self, payload):
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or not all(type(c) is int and c >= 0 for c in payload)
        ):
            raise LatticeError(f"{self.name}: expected a triple of naturals, got {payload!r}")
        return payload

    def _leq(self, a, b):
        return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]

    def _combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def _join(self, a, b):
        return (
            a[0] if a[0] >= b[0] else b[0],
            a[1] if a[1] >= b[1] else b[1],
            a[2] if a[2] >= b[2] else b[2],
        )

    def _bottom(self):
        return (0, 0, 0)

    def format(self, el):
        return "({},{},{})".format(*self._own(el))

    def unit_step(self):
        # one time tick, no memory or depth
        return self.element((1, 0, 0))

    def random_element(self, rng):
        return self.element((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)))

    def large_budget(self):
        return self.element((10**6, 10**6, 10**6))


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
        self.bottom_name = bottom_name
        # the unique top or None; the unique atom or bottom; the top or the first maximal element
        tops = [n for n in names if all(leq[m][n] for m in names)]
        self._top = tops[0] if len(tops) == 1 else None
        above = [n for n in names if n != bottom_name and leq[bottom_name][n]]
        atoms = [n for n in above if not any(m != n and leq[m][n] for m in above)]
        self._unit = atoms[0] if len(atoms) == 1 else bottom_name
        maximal = (n for n in names if not any(m != n and leq[n][m] for m in names))
        self._large = self._top if self._top is not None else next(maximal, names[-1])
        super().__init__()

    def _check_payload(self, payload):
        if not isinstance(payload, str) or payload not in self.leq_rows:
            raise LatticeError(f"{self.name}: unknown element {payload!r}")
        return payload

    def _leq(self, a, b):
        return self.leq_rows[a][b]

    def _combine(self, a, b):
        return self.combine_rows[a][b]

    def _join(self, a, b):
        return self.join_rows[a][b]

    def _bottom(self):
        return self.bottom_name

    @property
    def is_finite(self):
        return True

    def enumerate(self):
        return [self.element(n) for n in self.names]

    def top(self):
        return None if self._top is None else self.element(self._top)

    def format(self, el):
        return self._own(el)

    def unit_step(self):
        return self.element(self._unit)

    def random_element(self, rng):
        return self.element(rng.choice(self.names))

    def large_budget(self):
        return self.element(self._large)


class ProductLattice(LatticeInstance):
    """Componentwise product of lattices. A payload is the tuple of its
    components' payloads, and each operation applies the components' payload
    hooks coordinate by coordinate."""

    def __init__(self, components: Sequence[LatticeInstance], name: str | None = None):
        if not components:
            raise LatticeError("product lattice needs at least one component")
        self.components = list(components)
        self.name = name or "product({})".format(",".join(c.name for c in components))
        super().__init__()

    def _check_payload(self, payload):
        if not isinstance(payload, tuple) or len(payload) != len(self.components):
            raise LatticeError(f"{self.name}: expected a {len(self.components)}-tuple, got {payload!r}")
        return tuple([c._check_payload(x) for c, x in zip(self.components, payload)])

    def _leq(self, a, b):
        for c, x, y in zip(self.components, a, b):
            if not c._leq(x, y):
                return False
        return True

    def _combine(self, a, b):
        return tuple([c._combine(x, y) for c, x, y in zip(self.components, a, b)])

    def _join(self, a, b):
        return tuple([c._join(x, y) for c, x, y in zip(self.components, a, b)])

    def _bottom(self):
        return tuple([c._bottom() for c in self.components])

    @property
    def is_finite(self):
        return all(c.is_finite for c in self.components)

    def enumerate(self):
        if not self.is_finite:
            raise LatticeError(f"lattice {self.name!r} is not finite")
        parts = [[el.payload for el in c.enumerate()] for c in self.components]
        return [self.element(combo) for combo in itertools.product(*parts)]

    def top(self):
        tops = [c.top() for c in self.components]
        if any(t is None for t in tops):
            return None
        return self.element(tuple([t.payload for t in tops]))

    def format(self, el):
        parts = (c.format(c.element(x)) for c, x in zip(self.components, self._own(el)))
        return "({})".format(",".join(parts))

    def unit_step(self):
        # one step in the first component, like the triple's time tick
        first = self.components[0].unit_step().payload
        return self.element((first,) + tuple([c._bottom() for c in self.components[1:]]))

    def random_element(self, rng):
        return self.element(tuple([c.random_element(rng).payload for c in self.components]))

    def large_budget(self):
        return self.element(tuple([c.large_budget().payload for c in self.components]))


NAT = NatLattice("nat")
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

    Finite instances default to their full element list. The sample need not
    be closed under the operations: each law only compares computed results.
    """
    if sample is None:
        if inst.is_finite:
            sample = inst.enumerate()
        else:
            raise LatticeError(f"lattice {inst.name!r} is infinite; a sample is required")
    els = list(dict.fromkeys(sample))
    if not els:
        raise LatticeError("law check needs a nonempty sample")
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

    # order axioms
    run("leq-reflexive", (((a,), leq(a, a)) for a in els))
    leq_idx = [(i, j) for i, a in enumerate(els) for j, b in enumerate(els) if leq(a, b)]
    leq_pairs = [(els[i], els[j]) for i, j in leq_idx]
    succs: dict[LatticeElement, list[LatticeElement]] = {}
    for a, b in leq_pairs:
        succs.setdefault(a, []).append(b)
    run("leq-transitive", (((a, b, c), leq(a, c)) for a, b in leq_pairs for c in succs.get(b, ())))
    run("leq-antisymmetric", (((a, b), a == b or not leq(b, a)) for a, b in leq_pairs))

    # combine axioms; each pair's combine and join is computed once, into a
    # table indexed by the pair's positions in the sample
    pos = range(len(els))
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
        ((els[i], els[i2], els[j], els[j2]), leq(comb[i][j], comb[i2][j2]))
        for i, i2 in leq_idx for j, j2 in leq_idx
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
    `#` starts a comment. The constructor validates totality.
    """
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
            elements.extend(line.split())
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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LatticeError(f"cannot read {path}: {exc}") from exc
    inst = parse_lattice_table(text, name=os.path.splitext(os.path.basename(path))[0])
    report = check_laws(inst)
    if not report.passed:
        bad = report.failures()[0]
        raise LatticeError(f"{inst.name}: law {bad.law} fails at {bad.witness!r}")
    return inst
