import ast
import itertools
import pathlib
import pickle
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rblam import lattice
from rblam.lattice import (
    GAS,
    MAX_CHECKED_ELEMENTS,
    NAT,
    SHARED_ELEMENTS,
    TRIPLE,
    FiniteLattice,
    LatticeError,
    NatLattice,
    ProductLattice,
    SaturatingNatLattice,
    TripleLattice,
    builtin_lattice,
    check_laws,
    load_lattice,
    parse_lattice_table,
)
from rblam.model import run_model_checks
from rblam.syntax import ParseError, parse, parse_literal_text, pretty


DATA = pathlib.Path(__file__).parent / "data"
NATURALS = st.integers(min_value=0, max_value=10**30)
TRIPLES = st.tuples(NATURALS, NATURALS, NATURALS)
NAT_TRIPLE = ProductLattice([NAT, TRIPLE])


def nat_el(n):
    return NAT.element(n)


def trip(t, m, d):
    return TRIPLE.element((t, m, d))


class TestOrder:
    def test_nat_leq(self):
        assert NAT.leq(nat_el(2), nat_el(5))

    def test_triple_reflexive(self):
        assert TRIPLE.leq(trip(1, 2, 0), trip(1, 2, 0))

    def test_triple_pointwise_failure(self):
        # first coordinate fails even though the others pass
        assert not TRIPLE.leq(trip(2, 0, 0), trip(1, 5, 5))


class TestCombine:
    def test_triple_coordinatewise_addition(self):
        assert TRIPLE.combine(trip(1, 2, 0), trip(3, 0, 4)) == trip(4, 2, 4)

    def test_bottom_identity(self):
        assert NAT.combine(nat_el(7), NAT.bottom()) == nat_el(7)

    def test_saturating_clamps_at_cap(self):
        sat = SaturatingNatLattice(10)
        assert sat.combine(sat.element(7), sat.element(6)) == sat.element(10)


class TestJoin:
    def test_triple_coordinatewise_max(self):
        assert TRIPLE.join(trip(1, 2, 0), trip(3, 0, 4)) == trip(3, 2, 4)

    def test_idempotent(self):
        assert NAT.join(nat_el(5), nat_el(5)) == nat_el(5)

    def test_nat_max(self):
        assert NAT.join(nat_el(2), nat_el(9)) == nat_el(9)


class TestBottom:
    def test_nat(self):
        assert NAT.bottom() == nat_el(0)

    def test_triple(self):
        assert TRIPLE.bottom() == trip(0, 0, 0)

    def test_product_componentwise(self):
        prod = ProductLattice([NAT, TRIPLE])
        assert prod.bottom() == prod.element((0, (0, 0, 0)))


def operands(own, foreign, position):
    return (own, foreign) if position == "second" else (foreign, own)


@pytest.mark.parametrize("position", ["first", "second"])
@pytest.mark.parametrize("op", ["leq", "combine", "join"])
def test_instance_mismatch_names_both_lattices(op, position):
    with pytest.raises(LatticeError) as exc:
        getattr(NAT, op)(*operands(nat_el(1), GAS.element(1), position))
    assert "gas" in str(exc.value) and "nat" in str(exc.value)


@pytest.mark.parametrize("position", ["first", "second"])
@pytest.mark.parametrize("op", ["leq", "combine", "join"])
def test_instance_mismatch_with_the_same_name_says_another_instance(op, position):
    a, b = SaturatingNatLattice(2), SaturatingNatLattice(2)
    with pytest.raises(LatticeError) as exc:
        getattr(a, op)(*operands(a.element(1), b.element(1), position))
    assert str(exc.value) == "element of another instance of 'sat2' used with lattice 'sat2'"


@pytest.mark.parametrize("position", ["first", "second"])
@pytest.mark.parametrize("op", ["leq", "combine", "join"])
def test_non_element_operand_names_its_type(op, position):
    with pytest.raises(LatticeError) as exc:
        getattr(NAT, op)(*operands(nat_el(1), 1, position))
    assert str(exc.value) == "element of 'int' used with lattice 'nat'"


def some_instances(data_dir):
    return {
        "nat": NAT,
        "triple": TRIPLE,
        "sat3": SaturatingNatLattice(3),
        "product": ProductLattice([NAT, TRIPLE]),
        "diamond": load_lattice(str(data_dir / "diamond.lat")),
    }


class TestElementContract:
    def test_elements_are_immutable(self):
        el = nat_el(1)
        with pytest.raises(AttributeError):
            el.payload = 2
        with pytest.raises(AttributeError):
            el.instance = GAS
        with pytest.raises(AttributeError):
            del el.payload
        assert el == nat_el(1)

    def test_equality_is_by_instance_and_payload(self):
        a, b = SaturatingNatLattice(2), SaturatingNatLattice(2)
        assert a.element(1) != b.element(1)
        assert NAT.element(1) != GAS.element(1)
        combined = a.combine(a.element(1), a.bottom())
        assert combined == a.element(1) and hash(combined) == hash(a.element(1))
        assert len({a.element(1), combined, b.element(1)}) == 2

    @pytest.mark.parametrize("name", ["nat", "triple", "sat3", "product", "diamond"])
    def test_bottom_is_one_shared_element(self, data_dir, name):
        inst = some_instances(data_dir)[name]
        assert inst.bottom() is inst.bottom()
        assert inst.combine(inst.bottom(), inst.bottom()) == inst.bottom()

    @pytest.mark.parametrize("name", ["nat", "triple", "sat3", "product", "diamond"])
    def test_pickle_keeps_equality_and_ownership(self, data_dir, name):
        # a builtin instance unpickles as itself; sat3 here is built directly,
        # not by builtin_lattice, so it unpickles as a copy, as the others do
        inst = some_instances(data_dir)[name]
        els = inst.enumerate() if inst.is_finite else [inst.bottom(), inst.unit_step(), inst.large_budget()]
        inst2, els2 = pickle.loads(pickle.dumps((inst, els)))
        builtin = name in ("nat", "triple")
        assert (inst2 is inst) == builtin and repr(els2) == repr(els)
        assert (els2 == els) == builtin
        assert all(el.instance is inst2 for el in els2)
        assert els2 == [inst2.element(el.payload) for el in els2]
        assert [repr(inst2.combine(x, y)) for x in els2 for y in els2] == [
            repr(inst.combine(x, y)) for x in els for y in els
        ]
        assert inst2.bottom() is inst2.bottom() and inst2.bottom().instance is inst2
        if not builtin:
            with pytest.raises(LatticeError):
                inst2.leq(els[0], els2[0])

    def test_product_element_pickles_alone(self, data_dir):
        # the instance is pickled as its class applied to its components and
        # name, its builtin components by name and a table component by value
        prod = ProductLattice([NAT, TRIPLE])
        el = pickle.loads(pickle.dumps(parse_literal_text("(1,(0,2,0))", prod)))
        inst = el.instance
        assert inst is not prod and inst.components == [NAT, TRIPLE]
        assert repr(el) == "<product(nat,triple):(1,(0,2,0))>"
        assert inst.combine(el, el) == parse_literal_text("(2,(0,4,0))", inst)
        assert inst.join(el, inst.unit_step()) == el and inst.leq(inst.bottom(), el)
        chain3 = load_lattice(str(data_dir / "chain3.lat"))
        for prod, text in [
            (ProductLattice([builtin_lattice("sat3"), ProductLattice([NAT, TRIPLE])]), "(2,(1,(0,2,0)))"),
            (ProductLattice([chain3, NAT], "chain3*nat"), "(mid,3)"),
        ]:
            orig = parse_literal_text(text, prod)
            el = pickle.loads(pickle.dumps(orig))
            inst = el.instance
            assert inst is not prod and type(inst) is ProductLattice and repr(el) == f"<{prod.name}:{text}>"
            assert [c.name for c in inst.components] == [c.name for c in prod.components]
            assert [c is d for c, d in zip(inst.components, prod.components)] == \
                [d in (NAT, builtin_lattice("sat3")) for d in prod.components]
            assert inst.combine(el, el) == inst.element(prod.combine(orig, orig).payload) != el
            assert inst.join(el, inst.top() or el) == inst.element(prod.join(orig, prod.top() or orig).payload)
            assert inst.leq(inst.bottom(), el) and not inst.leq(inst.combine(el, el), el)

    @pytest.mark.parametrize("name", ["nat", "gas", "triple", "sat3"])
    def test_builtin_elements_unpickle_equal(self, name):
        inst = builtin_lattice(name)
        el = inst.large_budget()
        assert builtin_lattice(name) is inst
        assert pickle.loads(pickle.dumps(el)) == el
        assert pickle.loads(pickle.dumps(inst)) is inst


@pytest.mark.parametrize("spec", ["sat1_0", "sat 2", "sat+2", "sat٣", "sat", "sat-1"])
def test_sat_cap_is_ascii_digits_only(spec):
    with pytest.raises(LatticeError) as exc:
        builtin_lattice(spec)
    assert str(exc.value) == f"unknown lattice {spec!r} (expected nat, gas, triple, or sat<cap>)"


def test_builtin_lattices_resolve():
    assert builtin_lattice("nat") is NAT and builtin_lattice("triple") is TRIPLE
    assert [builtin_lattice(s).cap for s in ("sat0", "sat3", "sat12")] == [0, 3, 12]
    assert builtin_lattice("sat3") is builtin_lattice("sat03") and builtin_lattice("sat3").name == "sat3"


def test_element_payload_validation():
    with pytest.raises(LatticeError):
        NAT.element(-1)
    with pytest.raises(LatticeError):
        TRIPLE.element((1, 2))
    with pytest.raises(LatticeError):
        SaturatingNatLattice(3).element(4)
    # a bool equals and hashes as 0 or 1, so it would take their shared element
    for inst, payload in [(NatLattice(), True), (SaturatingNatLattice(3), False), (TRIPLE, (True, 0, 0))]:
        with pytest.raises(LatticeError):
            inst.element(payload)


class TestLiterals:
    def test_nat(self):
        assert parse_literal_text("3", NAT) == nat_el(3)

    def test_triple(self):
        assert parse_literal_text("(1,2,0)", TRIPLE) == trip(1, 2, 0)

    def test_product(self):
        prod = ProductLattice([NAT, NAT])
        assert parse_literal_text("(1,2)", prod) == prod.element((1, 2))

    def test_wrong_shape(self):
        with pytest.raises(ParseError):
            parse_literal_text("3", TRIPLE)
        with pytest.raises(ParseError):
            parse_literal_text("x", NAT)

    def test_format_round_trip(self):
        assert TRIPLE.format(trip(1, 2, 0)) == "(1,2,0)"

    def test_product_literal_nests_component_literals(self):
        prod = ProductLattice([NAT, TRIPLE])
        el = parse_literal_text("(1,(0,2,0))", prod)
        assert prod.format(el) == "(1,(0,2,0))"
        assert prod.leq(prod.unit_step(), el) and not prod.leq(el, prod.unit_step())
        term = parse("box[(1,(0,2,0))] tt", prod)
        assert term.grade == el and pretty(term) == "box[(1,(0,2,0))] tt"

    def test_bad_component_literal_names_the_component(self):
        with pytest.raises(ParseError) as exc:
            parse_literal_text("(1,(0,x,0))", ProductLattice([NAT, TRIPLE]))
        assert str(exc.value) == "1:1: triple: expected a triple of naturals, got (0, 'x', 0)"

    @pytest.mark.parametrize("spec", ["sat3", "chain3.lat", "diamond.lat", "sat1*diamond.lat"])
    def test_every_element_of_a_finite_lattice_round_trips(self, data_dir, spec):
        insts = [builtin_lattice(s) if s.startswith("sat") else load_lattice(str(data_dir / s))
                 for s in spec.split("*")]
        inst = insts[0] if len(insts) == 1 else ProductLattice(insts)
        for el in inst.enumerate():
            assert parse_literal_text(inst.format(el), inst) == el

    @given(data=st.data())
    @pytest.mark.parametrize("inst, payloads", [
        (NAT, NATURALS), (GAS, NATURALS), (TRIPLE, TRIPLES), (NAT_TRIPLE, st.tuples(NATURALS, TRIPLES)),
    ], ids=["nat", "gas", "triple", "nat*triple"])
    def test_sampled_elements_of_an_infinite_lattice_round_trip(self, inst, payloads, data):
        el = inst.element(data.draw(payloads))
        assert parse_literal_text(inst.format(el), inst) == el

    @pytest.mark.parametrize("inst, el", [
        (NAT, GAS.element(1)), (TRIPLE, nat_el(1)), (NAT_TRIPLE, trip(0, 0, 0)),
        (ProductLattice([NAT, NAT, NAT]), trip(0, 0, 0)), (NAT, 1),
    ], ids=["gas-in-nat", "nat-in-triple", "triple-in-product", "triple-in-nat3", "int-in-nat"])
    def test_format_refuses_a_foreign_element(self, inst, el):
        with pytest.raises(LatticeError, match="used with lattice"):
            inst.format(el)


class TestTripleIsTheProductOfThreeNats:
    """The triple inherits what the product of three `nat`s derives from its
    components and inlines only the three hooks. The generic product is the
    reference the inlined hooks are pinned to."""

    GENERIC = ProductLattice([NAT, NAT, NAT])
    PAYLOADS = list(itertools.product((0, 1, 2, 5), repeat=3))

    def test_components_and_derived_elements(self):
        assert isinstance(TRIPLE, ProductLattice) and TRIPLE.components == [NAT, NAT, NAT]
        g = self.GENERIC
        for name in ("bottom", "unit_step", "large_budget"):
            assert getattr(TRIPLE, name)().payload == getattr(g, name)().payload
        assert TRIPLE.size() is None and TRIPLE.top() is None and not TRIPLE.is_finite

    def test_hooks_agree_with_the_generic_product(self):
        g = self.GENERIC
        pairs = [(TRIPLE.element(a), TRIPLE.element(b), g.element(a), g.element(b))
                 for a in self.PAYLOADS for b in self.PAYLOADS]
        assert len(pairs) == 4096
        for a, b, ga, gb in pairs:
            assert TRIPLE.leq(a, b) == g.leq(ga, gb)
            assert TRIPLE.combine(a, b).payload == g.combine(ga, gb).payload
            assert TRIPLE.join(a, b).payload == g.join(ga, gb).payload

    def test_the_triple_defines_only_its_payload_check_and_draw(self):
        # besides the class's dunder metadata: the hooks come from the product
        own = {n for n, v in vars(TripleLattice).items() if callable(v) or not (n[:2] == n[-2:] == "__")}
        assert own == {"__init__", "_check_payload", "_draw"}

    def test_laws_count_the_same_cases(self):
        g = self.GENERIC
        reports = [check_laws(inst, [inst.element(p) for p in self.PAYLOADS]) for inst in (TRIPLE, g)]
        assert [(r.law, r.ok, r.checked) for r in reports[0].results] == \
            [(r.law, r.ok, r.checked) for r in reports[1].results]
        assert reports[0].passed

    @pytest.mark.parametrize("payload", [3, (1, "a", 2), (1, 2), (1, 2, 3, 4), (1, -1, 0), (True, 0, 0)])
    def test_a_bad_payload_is_not_a_triple_of_naturals(self, payload):
        with pytest.raises(LatticeError) as exc:
            TRIPLE.element(payload)
        assert str(exc.value) == f"triple: expected a triple of naturals, got {payload!r}"


def by_coordinates(inst, op, x, y):
    """op on payloads x and y, from the leaf lattices' public operations"""
    if not isinstance(inst, ProductLattice):
        r = getattr(inst, op)(inst.element(x), inst.element(y))
        return r if op == "leq" else r.payload
    rs = [by_coordinates(c, op, xi, yi) for c, xi, yi in zip(inst.components, x, y)]
    return all(rs) if op == "leq" else tuple(rs)


class TestProductsComposeTheirComponents:
    """A product's generated hooks agree, coordinate by coordinate, with its
    components' own operations, down to the leaves of a nested product."""

    def test_hooks_agree_coordinate_by_coordinate(self, data_dir):
        chain3, diamond = (load_lattice(str(data_dir / f)) for f in ("chain3.lat", "diamond.lat"))
        prod = ProductLattice([builtin_lattice("sat3"), chain3, ProductLattice([NAT, diamond])])
        sample = [(s, c, (n, d)) for s in (0, 2, 3) for c in chain3.names for n in (0, 5) for d in diamond.names]
        els = [prod.element(p) for p in sample]
        assert len(els) == 72
        for x, ex in zip(sample, els):
            for y, ey in zip(sample, els):
                assert prod.leq(ex, ey) == by_coordinates(prod, "leq", x, y)
                assert prod.combine(ex, ey).payload == by_coordinates(prod, "combine", x, y)
                assert prod.join(ex, ey).payload == by_coordinates(prod, "join", x, y)


class TestLawChecker:
    def test_two_chain_passes(self, data_dir):
        inst = load_lattice(str(data_dir / "chain2.lat"))
        assert check_laws(inst).passed

    def test_nat_sample_passes(self):
        report = check_laws(NAT, [nat_el(i) for i in range(21)])
        assert report.passed

    def test_saturating_passes_exhaustively(self):
        for cap in range(2, 13):
            assert check_laws(SaturatingNatLattice(cap)).passed

    def test_product_of_lawful_is_lawful(self):
        prod = ProductLattice([NAT, NAT])
        sample = [prod.element((i, j)) for i in (0, 1, 2, 5) for j in (0, 1, 2, 5)]
        assert check_laws(prod, sample).passed

    def test_broken_associativity_flagged_with_witness(self):
        # 0 (+) 0 jumps straight to 2, breaking associativity and monotonicity
        names = ["0", "1", "2"]
        leq = [(a, b) for a in names for b in names if int(a) <= int(b)]
        combine = {(a, b): str(min(int(a) + int(b), 2)) for a in names for b in names}
        combine[("0", "0")] = "2"
        join = {(a, b): str(max(int(a), int(b))) for a in names for b in names}
        broken = FiniteLattice("broken", names, leq, combine, join, "0")
        report = check_laws(broken)
        assert not report.passed
        failed = {r.law for r in report.failures()}
        assert "combine-associative" in failed or "combine-monotone" in failed
        witness = next(r for r in report.failures() if r.law == "combine-monotone")
        assert witness.witness is not None
        # every law's case count and witness: each law stops at its first failure
        laws = [
            ("leq-reflexive", 3, None),
            ("leq-transitive", 10, None),
            ("leq-antisymmetric", 6, None),
            ("combine-commutative", 9, None),
            ("combine-associative", 2, ["0", "0", "1"]),
            ("combine-bottom-identity", 1, ["0"]),
            ("combine-monotone", 4, ["0", "1", "0"]),
            ("join-upper-bound", 9, None),
            ("join-least", 27, None),
            ("bottom-least", 3, None),
        ]
        assert report.to_dict() == {
            "lattice": "broken",
            "sample_size": 3,
            "passed": False,
            "laws": [
                {"law": law, "ok": names is None, "checked": checked,
                 "witness": None if names is None else [f"<broken:{n}>" for n in names]}
                for law, checked, names in laws
            ],
        }
        # the text report prints one line per law, a failing one with its witness
        assert str(report).splitlines() == ["laws for broken over 3 elements"] + [
            f"  {law}: pass ({checked} cases)" if names is None
            else f"  {law}: FAIL at ({', '.join(f'<broken:{n}>' for n in names)})"
            for law, checked, names in laws
        ]

    def test_each_pair_is_combined_once(self, monkeypatch):
        # one table of combine(a, b) over the sample serves commutativity,
        # associativity and monotonicity; the 21-element sample of `laws nat`
        # used to make 135,849 calls. Monotonicity is checked in the first
        # argument: each of the 231 ordered pairs against each of the 21
        # elements
        calls = []
        real = type(NAT).combine

        def counted(self, a, b):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(type(NAT), "combine", counted)
        report = check_laws(NAT, [nat_el(i) for i in range(21)])
        assert report.passed
        assert len(calls) <= 20_000
        checked = {r.law: r.checked for r in report.results}
        assert checked["combine-commutative"] == 21 * 21
        assert checked["combine-associative"] == 21 ** 3
        assert checked["combine-monotone"] == 231 * 21

    def test_empty_sample_rejected(self):
        with pytest.raises(LatticeError):
            check_laws(NAT, [])

    def test_infinite_needs_sample(self):
        with pytest.raises(LatticeError):
            check_laws(NAT)


def as_table(inst, changed=None):
    """A finite lattice as a `FiniteLattice` over its formatted elements,
    with the combine entries in `changed` replaced."""
    els = inst.enumerate()
    names = [inst.format(e) for e in els]
    pairs = [(a, b) for a in els for b in els]
    leq = [(inst.format(a), inst.format(b)) for a, b in pairs if inst.leq(a, b)]
    combine = {(inst.format(a), inst.format(b)): inst.format(inst.combine(a, b)) for a, b in pairs}
    join = {(inst.format(a), inst.format(b)): inst.format(inst.join(a, b)) for a, b in pairs}
    return FiniteLattice(f"{inst.name}-table", names, leq, {**combine, **(changed or {})}, join,
                         inst.format(inst.bottom()))


class TestMonotoneInOneArgument:
    """combine-monotone checks `a <= a'` => `a + b <= a' + b`. Wherever
    combine-commutative and leq-transitive hold on a full enumeration, its
    verdict is that of the two-argument law `a <= a'` and `b <= b'` =>
    `a + b <= a' + b'`, which the reference below checks case by case."""

    @staticmethod
    def monotone_in_both(inst):
        els = inst.enumerate()
        pairs = [(a, a2) for a in els for a2 in els if inst.leq(a, a2)]
        return all(inst.leq(inst.combine(a, b), inst.combine(a2, b2)) for a, a2 in pairs for b, b2 in pairs)

    @classmethod
    def assert_same_verdict(cls, inst) -> bool:
        """Compare the verdicts where the premises hold; say whether they did."""
        verdicts = {r.law: r.ok for r in check_laws(inst).results}
        if not (verdicts["combine-commutative"] and verdicts["leq-transitive"]):
            return False
        assert verdicts["combine-monotone"] == cls.monotone_in_both(inst), inst.name
        return True

    @staticmethod
    def lawful():
        return [SaturatingNatLattice(cap) for cap in range(7)] + [
            load_lattice(str(DATA / f"{name}.lat")) for name in ("chain2", "chain3", "diamond")]

    def test_lawful_lattices(self):
        for inst in self.lawful():
            assert self.assert_same_verdict(inst) and check_laws(inst).passed

    @pytest.mark.parametrize("changed, monotone", [
        ({("0", "0"): "2"}, False),  # 0 + 0 jumps over everything
        ({("1", "1"): "0"}, False),  # 1 + 1 falls below 1 + 0
        ({("1", "2"): "0", ("2", "1"): "0"}, False),  # mid + high -> low, as perfbench's broken.lat
        ({("0", "1"): "2", ("1", "0"): "2"}, True),  # 0 + 1 jumps to the top and stays monotone
    ])
    def test_broken_tables(self, changed, monotone):
        inst = as_table(SaturatingNatLattice(2), changed)
        assert self.assert_same_verdict(inst) and self.monotone_in_both(inst) == monotone

    def test_products_of_two_small_lattices(self):
        small = [SaturatingNatLattice(1), SaturatingNatLattice(2)] + [
            load_lattice(str(DATA / f"{name}.lat")) for name in ("chain2", "diamond")]
        for left, right in itertools.product(small, repeat=2):
            assert self.assert_same_verdict(ProductLattice([left, right]))

    @given(st.data())
    def test_one_changed_combine_entry(self, data):
        base = data.draw(st.sampled_from(self.lawful()[1:]))
        names = [base.format(e) for e in base.enumerate()]
        a, b, c = (data.draw(st.sampled_from(names)) for _ in range(3))
        changed = {(a, b): c, (b, a): c} if data.draw(st.booleans()) else {(a, b): c}
        self.assert_same_verdict(as_table(base, changed))


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_nat_combine_associative_commutative(a, b, c):
    ea, eb, ec = nat_el(a), nat_el(b), nat_el(c)
    assert NAT.combine(NAT.combine(ea, eb), ec) == NAT.combine(ea, NAT.combine(eb, ec))
    assert NAT.combine(ea, eb) == NAT.combine(eb, ea)


@given(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
)
def test_triple_join_is_upper_bound(a, b):
    ea, eb = TRIPLE.element(a), TRIPLE.element(b)
    j = TRIPLE.join(ea, eb)
    assert TRIPLE.leq(ea, j) and TRIPLE.leq(eb, j)


@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)
)
def test_nat_combine_monotone(a, a2, b, b2):
    if a <= a2 and b <= b2:
        assert NAT.leq(NAT.combine(nat_el(a), nat_el(b)), NAT.combine(nat_el(a2), nat_el(b2)))


class TestTableFormat:
    def test_loads_diamond(self, data_dir):
        inst = load_lattice(str(data_dir / "diamond.lat"))
        assert len(inst.enumerate()) == 4
        assert inst.top() == inst.element("top")
        a, b = inst.element("a"), inst.element("b")
        assert inst.join(a, b) == inst.element("top")
        assert not inst.leq(a, b)

    def test_missing_join_entry_reports_semilattice(self):
        text = """
        elements: x y
        bottom: x
        leq:
        x x
        x y
        y y
        combine:
        x x -> x
        x y -> y
        y x -> y
        y y -> y
        join:
        x x -> x
        """
        with pytest.raises(LatticeError) as exc:
            parse_lattice_table(text)
        assert "not a join-semilattice" in str(exc.value)

    def test_unknown_element_rejected(self):
        with pytest.raises(LatticeError):
            parse_lattice_table("elements: x\nbottom: z\nleq:\nx x\ncombine:\nx x -> x\njoin:\nx x -> x\n")

    def test_unlawful_table_rejected_at_load(self, tmp_path):
        bad = tmp_path / "bad.lat"
        # leq is not reflexive at y
        bad.write_text(
            "elements: x y\nbottom: x\nleq:\nx x\nx y\ncombine:\n"
            "x x -> x\nx y -> y\ny x -> y\ny y -> y\n"
            "join:\nx x -> x\nx y -> y\ny x -> y\ny y -> y\n"
        )
        with pytest.raises(LatticeError):
            load_lattice(str(bad))

    def test_table_parser_allows_unlawful(self):
        # the parser checks no law; load_lattice does
        inst = parse_lattice_table(
            "elements: x y\nbottom: x\nleq:\nx x\nx y\ncombine:\n"
            "x x -> x\nx y -> y\ny x -> y\ny y -> y\n"
            "join:\nx x -> x\nx y -> y\ny x -> y\ny y -> y\n"
        )
        assert not check_laws(inst).passed


class TestDerivedStructure:
    def test_unit_steps(self):
        assert NAT.unit_step() == nat_el(1)
        assert TRIPLE.unit_step() == trip(1, 0, 0)
        sat0 = SaturatingNatLattice(0)
        assert sat0.unit_step() == sat0.bottom()

    def test_diamond_unit_step_is_bottom(self, data_dir):
        # two incomparable minimal elements above bottom: no canonical step
        inst = load_lattice(str(data_dir / "diamond.lat"))
        assert inst.unit_step() == inst.bottom()

    def test_tops(self, data_dir):
        assert NAT.top() is None
        sat5 = SaturatingNatLattice(5)
        assert sat5.top() == sat5.element(5)
        assert load_lattice(str(data_dir / "chain2.lat")).top() is not None

    def test_product_enumerate(self):
        prod = ProductLattice([SaturatingNatLattice(1), SaturatingNatLattice(2)])
        assert prod.is_finite and len(prod.enumerate()) == 6


class TestSharedElements:
    """Each instance hands out one element per payload, up to
    SHARED_ELEMENTS payloads; past that an element is a copy, equal to any
    other element of its payload."""

    @staticmethod
    def lattices(data_dir):
        return {
            "nat": (NatLattice("nat"), list(range(6))),
            "sat3": (builtin_lattice("sat3"), list(range(4))),
            "chain3": (load_lattice(str(data_dir / "chain3.lat")), ["low", "mid", "high"]),
            "diamond": (load_lattice(str(data_dir / "diamond.lat")), ["bot", "a", "b", "top"]),
        }

    @pytest.mark.parametrize("name", ["nat", "sat3", "chain3", "diamond"])
    def test_every_operation_returns_the_shared_elements(self, data_dir, name):
        inst, payloads = self.lattices(data_dir)[name]
        els = [inst.element(p) for p in payloads]
        assert all(inst.element(p) is el for p, el in zip(payloads, els))
        for a in els:
            for b in els:
                assert inst.combine(a, b) is inst.element(inst.combine(a, b).payload)
                assert inst.join(a, b) is inst.element(inst.join(a, b).payload)
        assert inst.bottom() is els[0]
        if inst.is_finite:
            assert all(x is y for x, y in zip(inst.enumerate(), els))
            assert inst.top() is els[-1]
        else:
            assert inst.top() is None

    @pytest.mark.parametrize("spec", ["direct", "builtin"])
    def test_a_huge_saturating_cap_builds_at_once(self, spec):
        start = time.perf_counter()
        inst = SaturatingNatLattice(10**9) if spec == "direct" else builtin_lattice("sat1000000000")
        assert time.perf_counter() - start < 0.5
        assert inst.top() == inst.large_budget() == inst.element(10**9)
        assert inst.combine(inst.top(), inst.unit_step()) == inst.top()

    def test_elements_past_the_cap_equal_the_payloads_they_carry(self):
        inst = NatLattice("nat")
        shared = [inst.element(n) for n in range(SHARED_ELEMENTS)]
        big, bigger = inst.element(10**6), inst.element(10**6 + 1)
        assert big is not inst.element(10**6)  # the table is full: a copy each time
        assert big == inst.element(10**6) and hash(big) == hash(inst.element(10**6))
        assert big != bigger and len({big, inst.element(10**6), bigger}) == 2
        assert inst.combine(big, bigger) == inst.element(2 * 10**6 + 1)
        assert inst.join(big, bigger) == bigger and inst.leq(big, bigger)
        assert inst.combine(big, inst.bottom()) == big
        # the shared ones are still shared
        assert inst.combine(shared[1], shared[2]) is shared[3] and inst.bottom() is shared[0]

    @pytest.mark.parametrize("hook", ["_leq", "_combine", "_join"])
    @pytest.mark.parametrize("cls", [SaturatingNatLattice, FiniteLattice])
    def test_a_hook_patched_on_the_class_reaches_every_instance(self, data_dir, monkeypatch, cls, hook):
        # the hooks are the one definition of each operation: a patch after
        # the instance was built, and its undoing, take effect at once
        inst = builtin_lattice("sat3") if cls is SaturatingNatLattice else load_lattice(str(data_dir / "chain3.lat"))
        bot, top = inst.bottom(), inst.top()

        def observe():
            return inst.leq(top, bot), inst.combine(bot, bot), inst.join(bot, bot)

        before = observe()
        assert before == (False, bot, bot)
        if hook == "_leq":
            monkeypatch.setattr(cls, hook, lambda self, a, b: True)
        else:
            monkeypatch.setattr(cls, hook, lambda self, a, b: top.payload)
        after = observe()
        assert after == {"_leq": (True, bot, bot), "_combine": (False, top, bot), "_join": (False, bot, top)}[hook]
        monkeypatch.undo()
        assert observe() == before

    def test_no_module_but_lattice_compares_elements_by_identity(self):
        # an element past the cap or out of a pickle is a copy, so only `==`
        # tells elements apart; an identity test elsewhere may be against
        # None, a bool, a class, an enum member or a lattice instance only
        def allowed(e):
            return (
                (isinstance(e, ast.Constant) and e.value is None)
                or isinstance(e, ast.Compare)
                or (isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id == "type")
                or (isinstance(e, ast.Attribute) and e.attr in ("__class__", "instance"))
                or (isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name) and e.value.id[0].isupper())
                or (isinstance(e, ast.Name) and e.id[0].isupper())
            )

        src = pathlib.Path(lattice.__file__).parent
        offending = []
        for path in sorted(src.glob("*.py")):
            if path.name == "lattice.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    for op, left, right in zip(node.ops, operands, operands[1:]):
                        if isinstance(op, (ast.Is, ast.IsNot)) and not (allowed(left) or allowed(right)):
                            offending.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert offending == []


class TestFiniteLatticeFacts:
    """top, unit_step and large_budget are computed once, at construction,
    and answer as a scan of the order would."""

    @staticmethod
    def no_unique_top():
        names = ["z", "a", "b"]
        leq = [("z", "z"), ("z", "a"), ("z", "b"), ("a", "a"), ("b", "b")]
        table = {(x, y): y if x == "z" else x for x in names for y in names}
        return FiniteLattice("fork", names, leq, table, table, "z")

    @pytest.mark.parametrize("name, top, unit, large", [
        ("chain2", "top", "top", "top"),
        ("chain3", "high", "mid", "high"),
        ("diamond", "top", "bot", "top"),
        ("fork", None, "z", "a"),
    ])
    def test_facts(self, data_dir, name, top, unit, large):
        inst = self.no_unique_top() if name == "fork" else load_lattice(str(data_dir / f"{name}.lat"))
        assert (inst.top() and inst.top().payload) == top
        assert inst.unit_step() is inst.element(unit)
        assert inst.large_budget() is inst.element(large)
        if top is not None:
            assert inst.top() is inst.element(top)
        # the scans the facts replace, over leq
        els = inst.enumerate()
        tops = [t for t in els if all(inst.leq(e, t) for e in els)]
        assert [inst.top()] == tops if top is not None else len(tops) != 1
        maximal = [m for m in els if not any(e != m and inst.leq(m, e) for e in els)]
        assert inst.large_budget() == (tops[0] if len(tops) == 1 else maximal[0])

    def test_model_checks_on_a_top_less_table_fail_only_on_the_laws(self):
        # the model relies on the laws it checks in the same report (every
        # need sits below the top); without a top they fail, and the section
        # families are still tabulated, arrows included, without raising
        report = run_model_checks(self.no_unique_top())
        assert report.passed is False
        laws, *families = report.checks
        assert laws.name == "lattice-laws" and not laws.ok
        assert all(c.ok for c in families)
        assert all(c.checked > 0 for c in families if "->" in c.name)


class TestEveryLatticeFacts:
    """One table of each lattice's distinguished elements: the payloads of
    bottom, unit_step, large_budget and top, and size; the payloads of
    enumerate, in order, where the lattice is finite; and the first 20
    payloads that random_element draws from random.Random(7)."""

    @staticmethod
    def lattices(data_dir):
        sat1, diamond = SaturatingNatLattice(1), load_lattice(str(data_dir / "diamond.lat"))
        return {
            "nat": NAT, "gas": GAS, "sat0": builtin_lattice("sat0"), "sat3": builtin_lattice("sat3"),
            "triple": TRIPLE, "chain3": load_lattice(str(data_dir / "chain3.lat")), "diamond": diamond,
            "fork": TestFiniteLatticeFacts.no_unique_top(),
            "sat1*diamond": ProductLattice([sat1, diamond]),
            "nat*triple": ProductLattice([NAT, TRIPLE]),
            "sat1*(sat1*diamond)": ProductLattice([sat1, ProductLattice([sat1, diamond])]),
        }

    # name: ((bottom, unit_step, large_budget, top, size), enumerate, draws)
    FACTS = {
        "nat": (
            (0, 1, 1000000, None, None),
            None,
            [2, 1, 3, 5, 0, 0, 6, 4, 0, 2, 4, 0, 4, 1, 0, 0, 3, 3, 0, 1],
        ),
        "gas": (
            (0, 1, 1000000, None, None),
            None,
            [2, 1, 3, 5, 0, 0, 6, 4, 0, 2, 4, 0, 4, 1, 0, 0, 3, 3, 0, 1],
        ),
        "sat0": (
            (0, 0, 0, 0, 1),
            [0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        "sat3": (
            (0, 1, 3, 3, 4),
            [0, 1, 2, 3],
            [2, 1, 3, 0, 0, 0, 2, 0, 1, 0, 0, 3, 3, 0, 1, 0, 3, 0, 0, 1],
        ),
        "triple": (
            ((0, 0, 0), (1, 0, 0), (1000000, 1000000, 1000000), None, None),
            None,
            [(2, 1, 3), (0, 0, 0), (2, 0, 1), (0, 0, 3), (3, 0, 1), (0, 3, 0), (0, 1, 0), (3, 0, 1), (0, 1, 2),
             (3, 1, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1), (3, 3, 2), (3, 3, 2), (2, 1, 1), (1, 0, 2), (3, 2, 3),
             (2, 0, 0), (3, 1, 2)],
        ),
        "chain3": (
            ("low", "mid", "high", "high", 3),
            ["low", "mid", "high"],
            ["mid", "low", "mid", "high", "low", "low", "high", "low", "mid", "high", "low", "high", "low", "low",
             "low", "mid", "mid", "low", "low", "low"],
        ),
        "diamond": (
            ("bot", "bot", "top", "top", 4),
            ["bot", "a", "b", "top"],
            ["b", "a", "top", "bot", "bot", "bot", "b", "bot", "a", "bot", "bot", "top", "top", "bot", "a", "bot",
             "top", "bot", "bot", "a"],
        ),
        "fork": (
            ("z", "z", "a", None, 3),
            ["z", "a", "b"],
            ["a", "z", "a", "b", "z", "z", "b", "z", "a", "b", "z", "b", "z", "z", "z", "a", "a", "z", "z", "z"],
        ),
        "sat1*diamond": (
            ((0, "bot"), (1, "bot"), (1, "top"), (1, "top"), 8),
            [(0, "bot"), (0, "a"), (0, "b"), (0, "top"), (1, "bot"), (1, "a"), (1, "b"), (1, "top")],
            [(1, "a"), (1, "bot"), (0, "bot"), (1, "bot"), (0, "bot"), (0, "top"), (1, "bot"), (0, "bot"),
             (1, "bot"), (0, "a"), (0, "top"), (0, "a"), (0, "a"), (1, "top"), (0, "bot"), (1, "a"), (0, "a"),
             (1, "bot"), (0, "bot"), (0, "top")],
        ),
        "nat*triple": (
            ((0, (0, 0, 0)), (1, (0, 0, 0)), (1000000, (1000000, 1000000, 1000000)), None, None),
            None,
            [(2, (1, 3, 0)), (0, (0, 2, 0)), (4, (1, 0, 0)), (3, (3, 0, 1)), (0, (3, 0, 0)), (1, (0, 3, 0)),
             (1, (0, 1, 2)), (3, (1, 0, 2)), (4, (1, 0, 1)), (2, (0, 0, 0)), (4, (1, 3, 3)), (6, (2, 3, 3)),
             (2, (2, 1, 1)), (5, (1, 0, 2)), (4, (3, 2, 3)), (2, (0, 0, 3)), (1, (2, 1, 3)), (3, (0, 0, 2)),
             (2, (2, 3, 3)), (0, (0, 2, 3))],
        ),
        "sat1*(sat1*diamond)": (
            ((0, (0, "bot")), (1, (0, "bot")), (1, (1, "top")), (1, (1, "top")), 16),
            [(0, (0, "bot")), (0, (0, "a")), (0, (0, "b")), (0, (0, "top")), (0, (1, "bot")), (0, (1, "a")),
             (0, (1, "b")), (0, (1, "top")), (1, (0, "bot")), (1, (0, "a")), (1, (0, "b")), (1, (0, "top")),
             (1, (1, "bot")), (1, (1, "a")), (1, (1, "b")), (1, (1, "top"))],
            [(1, (0, "top")), (0, (0, "bot")), (1, (0, "a")), (0, (0, "top")), (1, (0, "a")), (0, (1, "bot")),
             (0, (0, "bot")), (1, (0, "a")), (0, (0, "b")), (1, (0, "bot")), (1, (0, "bot")), (0, (1, "bot")),
             (0, (0, "a")), (1, (1, "b")), (1, (1, "b")), (1, (0, "a")), (0, (0, "b")), (1, (1, "top")),
             (1, (0, "bot")), (1, (0, "b"))],
        ),
    }

    @pytest.mark.parametrize("name", list(FACTS))
    def test_facts(self, data_dir, name):
        inst = self.lattices(data_dir)[name]
        facts, payloads, draws = self.FACTS[name]
        top = inst.top()
        assert (inst.bottom().payload, inst.unit_step().payload, inst.large_budget().payload,
                top and top.payload, inst.size()) == facts
        if payloads is None:
            assert not inst.is_finite
            with pytest.raises(LatticeError, match=f"^lattice {re.escape(repr(inst.name))} is not finite$"):
                inst.enumerate()
        else:
            assert [el.payload for el in inst.enumerate()] == payloads
        rng = random.Random(7)
        assert [inst.random_element(rng).payload for _ in range(20)] == draws


class TestCheckedElementLimit:
    """Law and model checks take at most MAX_CHECKED_ELEMENTS elements, and
    count a lattice's elements before building any."""

    def test_size_counts_without_building(self):
        assert SaturatingNatLattice(10**9).size() == 10**9 + 1
        assert NAT.size() is None and not NAT.is_finite
        assert ProductLattice([SaturatingNatLattice(2), SaturatingNatLattice(3)]).size() == 12
        assert ProductLattice([SaturatingNatLattice(2), NAT]).size() is None

    def test_file_lattice_size(self, data_dir):
        inst = load_lattice(str(data_dir / "diamond.lat"))
        assert inst.size() == len(inst.enumerate()) == 4

    def test_law_check_refuses_one_past_the_limit(self, monkeypatch):
        assert MAX_CHECKED_ELEMENTS == 64
        with pytest.raises(LatticeError, match="^the law sample has 65 elements; law and model checks take at most 64$"):
            check_laws(NAT, [nat_el(i) for i in range(65)])
        monkeypatch.setattr(SaturatingNatLattice, "enumerate", lambda self: pytest.fail("enumerated"))
        with pytest.raises(LatticeError, match="^lattice 'sat64' has 65 elements"):
            check_laws(SaturatingNatLattice(64))
        with pytest.raises(LatticeError, match="^lattice 'sat64' has 65 elements"):
            run_model_checks(SaturatingNatLattice(64))

    def test_law_check_takes_the_limit(self):
        # repeats count once: 64 distinct triples, each given twice
        sample = [TRIPLE.element((a, b, c)) for a in range(4) for b in range(4) for c in range(4)]
        report = check_laws(TRIPLE, sample + sample)
        assert report.passed and report.sample_size == MAX_CHECKED_ELEMENTS
