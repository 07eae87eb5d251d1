import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblam.harness import GenConfig, gen_typed_term
from rblam.lattice import NAT, TRIPLE
from rblam.syntax import (
    App,
    Arrow,
    Bool,
    Box,
    BoxT,
    FF,
    Fst,
    If,
    Lam,
    Nat,
    NatLit,
    Pair,
    ParseError,
    Prod,
    Snd,
    TT,
    Term,
    Unbox,
    Var,
    alpha_eq,
    children,
    free_vars,
    is_value,
    parse,
    parse_literal_text,
    parse_type,
    pretty,
    pretty_type,
    rebuild,
    rename_binders,
    substitute,
    term_size,
)


class TestParse:
    def test_if(self):
        assert parse("if tt then ff else tt", NAT) == If(TT(), FF(), TT())

    def test_box_literal(self):
        assert parse("box[3] tt", NAT) == BoxT(NAT.element(3), TT())

    def test_latent_arrow_annotation(self):
        got = parse("lam f : Bool -[1]-> Bool . f tt", NAT)
        expected = Lam(
            "f",
            Arrow(Bool(), Bool(), NAT.element(1)),
            App(Var("f"), TT()),
        )
        assert got == expected

    def test_application_left_associative(self):
        assert parse("f a b", NAT) == App(App(Var("f"), Var("a")), Var("b"))

    def test_pair_vs_parens(self):
        assert parse("(tt, ff)", NAT) == Pair(TT(), FF())
        assert parse("(tt)", NAT) == TT()

    def test_triple_literal(self):
        assert parse("box[(1,2,0)] tt", TRIPLE) == BoxT(TRIPLE.element((1, 2, 0)), TT())

    def test_comments_and_whitespace(self):
        src = "# leading comment\n  if tt # condition\n then ff else tt\n"
        assert parse(src, NAT) == If(TT(), FF(), TT())

    def test_nat_literal_atom(self):
        assert parse("fst (3, tt)", NAT) == Fst(Pair(NatLit(3), TT()))

    def test_type_grammar(self):
        assert parse_type("Bool * Nat -> Bool", NAT) == Arrow(Prod(Bool(), Nat()), Bool(), None)
        assert parse_type("Box[2] Bool * Bool", NAT) == Prod(Box(NAT.element(2), Bool()), Bool())
        assert parse_type("Bool -> Bool -> Bool", NAT) == Arrow(
            Bool(), Arrow(Bool(), Bool(), None), None
        )


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("if tt then\nff else", NAT)
        assert exc.value.line == 2

    def test_unknown_lattice_literal(self):
        with pytest.raises(ParseError):
            parse("box[(1,2)] tt", TRIPLE)

    def test_keyword_not_binder(self):
        with pytest.raises(ParseError):
            parse("lam if : Bool . tt", NAT)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("tt ) ", NAT)

    def test_literal_text(self):
        assert parse_literal_text("(1,2,0)", TRIPLE) == TRIPLE.element((1, 2, 0))
        with pytest.raises(ParseError):
            parse_literal_text("1 2", TRIPLE)


class TestPrint:
    def test_pair(self):
        assert pretty(Pair(TT(), FF())) == "(tt, ff)"

    def test_box_with_triple_grade(self):
        assert pretty(BoxT(TRIPLE.element((1, 2, 0)), TT())) == "box[(1,2,0)] tt"

    def test_lambda_embedding(self):
        assert pretty(Lam("x", Bool(), Var("x"))) == "lam x : Bool . x"

    def test_type_printing(self):
        assert pretty_type(Arrow(Prod(Bool(), Nat()), Bool(), None)) == "Bool * Nat -> Bool"
        assert pretty_type(Arrow(Bool(), Bool(), NAT.element(1))) == "Bool -[1]-> Bool"

    @pytest.mark.parametrize(
        "src",
        [
            "if tt then ff else tt",
            "lam f : Bool -> Bool . f tt",
            "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)",
            "fst (snd ((tt, ff), (3, unbox (box[2] tt))))",
            "lam p : Bool * (Nat -> Bool) . (snd p) (fst (0, fst p))",
            "box[0] (lam x : Bool . box[4] (x, 7))",
        ],
    )
    def test_round_trip(self, src):
        term = parse(src, NAT)
        assert alpha_eq(parse(pretty(term), NAT), term)


class TestSubstitution:
    def test_var_case(self):
        assert substitute(Var("x"), "x", TT()) == TT()

    def test_shadowing_blocks(self):
        t = Lam("x", Bool(), Var("x"))
        assert substitute(t, "x", TT()) == t

    def test_application(self):
        t = App(Var("f"), TT())
        v = Lam("y", Bool(), Var("y"))
        assert substitute(t, "f", v) == App(Lam("y", Bool(), Var("y")), TT())

    def test_preserves_closedness(self):
        t = parse("lam y : Bool . (x, y)", NAT)
        assert free_vars(t) == {"x"}
        closed = substitute(t, "x", TT())
        assert free_vars(closed) == frozenset()

    def test_capture_avoided_for_open_replacement(self):
        # replacement mentions free y; binder y must be renamed
        t = Lam("y", Bool(), App(Var("x"), Var("y")))
        v = Lam("z", Bool(), Var("y"))
        result = substitute(t, "x", v)
        assert "y" in free_vars(result)
        assert isinstance(result, Lam) and result.name != "y"

    def test_untouched_when_absent(self):
        t = parse("lam y : Bool . y", NAT)
        assert substitute(t, "x", TT()) == t

    def test_closed_value_shares_untouched_subterms(self):
        lam = Lam("y", Bool(), Var("y"))
        result = substitute(App(lam, Var("x")), "x", TT())
        assert result == App(lam, TT())
        assert result.fn is lam

    def test_open_value_renames_capturing_binders(self):
        t = Lam("y", Bool(), App(Var("x"), Var("y")))
        v = Lam("z", Bool(), Var("y"))
        assert substitute(t, "x", v) == Lam("y_1", Bool(), App(Lam("z", Bool(), Var("y")), Var("y_1")))

    def test_open_value_renames_binders_where_the_name_is_absent(self):
        v = Lam("z", Bool(), Var("y"))
        assert substitute(Lam("y", Bool(), Var("y")), "x", v) == Lam("y_1", Bool(), Var("y_1"))

    def test_cached_free_vars_match_a_fresh_computation(self):
        cfg = GenConfig(lattice=NAT, seed=3, count=200, max_depth=6)
        checked = 0
        for i in range(200):
            for lam in nodes(gen_typed_term(cfg, trial=i)):
                if not isinstance(lam, Lam):
                    continue
                for v in (TT(), Lam("z", Bool(), Var("w"))):
                    result = substitute(lam.body, lam.name, v)
                    for node in nodes(result):
                        assert free_vars(node) == fresh_free_vars(node), pretty(node)
                        checked += 1
        assert checked > 1000


def nodes(t):
    """Every node of t, the root first."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(v for v in vars(t).values() if isinstance(v, Term))


def fresh_free_vars(t):
    match t:
        case Var(name):
            return {name}
        case Lam(name, _, body):
            return fresh_free_vars(body) - {name}
    out = set()
    for v in vars(t).values():
        if isinstance(v, Term):
            out |= fresh_free_vars(v)
    return out


class TestAlphaEq:
    def test_binder_names_ignored(self):
        a = parse("lam x : Bool . x", NAT)
        b = parse("lam y : Bool . y", NAT)
        assert alpha_eq(a, b)

    def test_annotations_matter(self):
        a = parse("lam x : Bool . tt", NAT)
        b = parse("lam x : Nat . tt", NAT)
        assert not alpha_eq(a, b)

    def test_free_variables_by_name(self):
        assert alpha_eq(Var("x"), Var("x"))
        assert not alpha_eq(Var("x"), Var("y"))

    def test_bound_vs_free(self):
        a = Lam("x", Bool(), Var("x"))
        b = Lam("y", Bool(), Var("x"))
        assert not alpha_eq(a, b)

    def test_grades_matter(self):
        assert not alpha_eq(BoxT(NAT.element(1), TT()), BoxT(NAT.element(2), TT()))

    def test_rename_binders_is_alpha_preserving(self):
        t = parse("(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)", NAT)
        renamed = rename_binders(t)
        assert renamed != t
        assert alpha_eq(renamed, t)


class TestValues:
    def test_box_of_value_is_value(self):
        assert is_value(BoxT(NAT.element(2), TT()))

    def test_box_of_redex_is_not(self):
        assert not is_value(BoxT(NAT.element(2), App(Lam("x", Bool(), Var("x")), TT())))

    def test_application_is_not(self):
        assert not is_value(App(Lam("x", Bool(), Var("x")), TT()))

    def test_free_vars(self):
        t = Lam("x", Bool(), App(Var("x"), Var("y")))
        assert free_vars(t) == {"y"}


EVERY_NODE_CLASS = [
    Var("x"),
    Lam("x", Bool(), Var("x")),
    App(Var("f"), TT()),
    Pair(TT(), NatLit(4)),
    Fst(Var("p")),
    Snd(Var("p")),
    If(Var("c"), TT(), FF()),
    TT(),
    FF(),
    NatLit(7),
    BoxT(NAT.element(2), FF()),
    Unbox(Var("b")),
]


class TestTraversal:
    def test_every_node_class_is_listed(self):
        assert {type(t) for t in EVERY_NODE_CLASS} == set(Term.__subclasses__())

    @pytest.mark.parametrize("t", EVERY_NODE_CLASS, ids=lambda t: type(t).__name__)
    def test_rebuild_of_children_is_the_node(self, t):
        assert rebuild(t, children(t)) == t

    def test_children_in_field_order_and_rebuild_keeps_labels(self):
        t = If(Var("c"), TT(), FF())
        assert children(t) == (Var("c"), TT(), FF())
        assert rebuild(t, [FF(), NatLit(1), NatLit(2)]) == If(FF(), NatLit(1), NatLit(2))
        box = BoxT(NAT.element(2), FF())
        assert rebuild(box, [TT()]) == BoxT(NAT.element(2), TT())
        assert children(NatLit(7)) == () and rebuild(NatLit(7), ()) == NatLit(7)


nat_terms = st.recursive(
    st.sampled_from([TT(), FF(), NatLit(0), NatLit(2)]),
    lambda children: st.one_of(
        st.builds(Pair, children, children),
        st.builds(If, children, children, children),
        st.builds(Fst, children),
        st.builds(Snd, children),
        st.builds(Unbox, children),
        st.builds(BoxT, st.integers(0, 5).map(NAT.element), children),
        st.builds(Lam, st.sampled_from(["x", "y"]), st.just(Bool()), children),
        st.builds(App, children, children),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(nat_terms)
def test_print_parse_round_trip(term):
    assert alpha_eq(parse(pretty(term), NAT), term)


@settings(max_examples=100, deadline=None)
@given(nat_terms)
def test_term_size_positive_and_stable(term):
    assert term_size(term) >= 1
    assert term_size(term) == term_size(parse(pretty(term), NAT))
