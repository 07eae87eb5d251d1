import pytest
from hypothesis import given
from hypothesis import strategies as st

from rblam.lattice import (
    GAS,
    NAT,
    TRIPLE,
    FiniteLattice,
    LatticeError,
    ProductLattice,
    SaturatingNatLattice,
    check_laws,
    load_lattice,
    parse_lattice_table,
)


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
        assert prod.bottom() == prod.element((NAT.element(0), TRIPLE.element((0, 0, 0))))


def test_instance_mismatch_names_both_lattices():
    with pytest.raises(LatticeError) as exc:
        NAT.combine(nat_el(1), GAS.element(1))
    assert "gas" in str(exc.value) and "nat" in str(exc.value)


def test_instance_mismatch_with_the_same_name_says_another_instance():
    a, b = SaturatingNatLattice(2), SaturatingNatLattice(2)
    with pytest.raises(LatticeError) as exc:
        a.combine(a.element(1), b.element(1))
    assert str(exc.value) == "element of another instance of 'sat2' used with lattice 'sat2'"


def test_element_payload_validation():
    with pytest.raises(LatticeError):
        NAT.element(-1)
    with pytest.raises(LatticeError):
        TRIPLE.element((1, 2))
    with pytest.raises(LatticeError):
        SaturatingNatLattice(3).element(4)


class TestLiterals:
    def test_nat(self):
        assert NAT.from_literal(3) == nat_el(3)

    def test_triple(self):
        assert TRIPLE.from_literal((1, 2, 0)) == trip(1, 2, 0)

    def test_product(self):
        prod = ProductLattice([NAT, NAT])
        assert prod.from_literal((1, 2)) == prod.element((nat_el(1), nat_el(2)))

    def test_wrong_shape(self):
        with pytest.raises(LatticeError):
            TRIPLE.from_literal(3)
        with pytest.raises(LatticeError):
            NAT.from_literal("x")

    def test_format_round_trip(self):
        assert TRIPLE.format(trip(1, 2, 0)) == "(1,2,0)"


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
        sample = [prod.element((nat_el(i), nat_el(j))) for i in (0, 1, 2, 5) for j in (0, 1, 2, 5)]
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
            ("combine-monotone", 2, ["0", "0", "0", "1"]),
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

    def test_empty_sample_rejected(self):
        with pytest.raises(LatticeError):
            check_laws(NAT, [])

    def test_infinite_needs_sample(self):
        with pytest.raises(LatticeError):
            check_laws(NAT)


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

    def test_load_without_check_allows_unlawful(self, tmp_path):
        bad = tmp_path / "bad.lat"
        bad.write_text(
            "elements: x y\nbottom: x\nleq:\nx x\nx y\ncombine:\n"
            "x x -> x\nx y -> y\ny x -> y\ny y -> y\n"
            "join:\nx x -> x\nx y -> y\ny x -> y\ny y -> y\n"
        )
        inst = load_lattice(str(bad), check=False)
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
