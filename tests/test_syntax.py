import dataclasses
import pathlib
import pickle
import re

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
    KEYWORD_FORMS,
    Lam,
    Nat,
    NatLit,
    Pair,
    ParseError,
    Prod,
    RESERVED,
    Snd,
    TT,
    Term,
    Type,
    Unbox,
    Var,
    _position,
    _tokenize,
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
from rblam.typecheck import Context, DeltaProfile, Mode, derive


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

    @pytest.mark.parametrize(
        "src, line, col",
        [("lam x : Bool # trailing comment here", 1, 37), ("lam x : Bool # comment\n", 2, 1)],
        ids=["no final newline", "final newline"],
    )
    def test_end_of_input_after_comment(self, src, line, col):
        # the end of input sits after the comment, not at its '#'
        with pytest.raises(ParseError) as exc:
            parse(src, NAT)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert exc.value.message == "expected '.', found 'end of input'"

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("tt ) ", NAT)

    def test_literal_text(self):
        assert parse_literal_text("(1,2,0)", TRIPLE) == TRIPLE.element((1, 2, 0))
        with pytest.raises(ParseError):
            parse_literal_text("1 2", TRIPLE)


# Each program spans lines with `#` comments and `\r\n` endings; a `\r` is a
# blank, so it counts as a column. The texts are the ones the lexer gave when
# every token kept its own line and column.
LEXER_CASE = "# lexer case\r\n\r\n  "


class TestErrorPositions:
    @pytest.mark.parametrize(
        "source, lattice, error",
        [
            ("# a comment\r\nlam x : Bool . # why\r\n  if x then ) else tt\r\n", NAT,
             "3:13: expected a term, found ')'"),
            ("(tt, ff) # a pair\r\n\r\n  ) tt\r\n", NAT, "3:3: trailing input starting at ')'"),
            ("# c\r\nlam x : Bool # no body\r\n", NAT, "3:1: expected '.', found 'end of input'"),
            ("# c\r\nlam x : Box[(1,2)] Nat . x\r\n", NAT, "2:13: nat: expected a natural, got (1, 2)"),
            ("# c\r\nlam x : Box[(1,2)] Nat . x\r\n", TRIPLE,
             "2:13: triple: expected a triple of naturals, got (1, 2)"),
            ("# c\r\n(tt,\r\n " + "9" * 4301 + ")\r\n", NAT, "3:2: natural literal of 4301 digits is too long"),
            (LEXER_CASE + "box[²] tt", NAT, "3:7: bad natural literal '²'"),
            (LEXER_CASE + "①", NAT, "3:3: bad natural literal '①'"),
            (LEXER_CASE + "tt\n  ²x", NAT, "4:3: bad natural literal '²'"),
            (LEXER_CASE + "½", NAT, "3:3: unexpected character '½'"),
            (LEXER_CASE + "Ⅷ", NAT, "3:3: unexpected character 'Ⅷ'"),
            (LEXER_CASE + "tt - ff", NAT, "3:6: stray '-'"),
        ],
        ids=["unexpected token", "trailing input", "end of input", "grade on nat", "grade on triple",
             "long natural", "lexer ²", "lexer ①", "lexer ² on line 4", "lexer ½", "lexer Ⅷ", "lexer -"],
    )
    def test_multi_line_error_positions(self, source, lattice, error):
        with pytest.raises(ParseError) as exc:
            parse(source, lattice)
        assert str(exc.value) == error

    def test_a_natural_of_4300_digits_parses(self):
        assert parse("# c\r\n(tt,\r\n " + "9" * 4300 + ")\r\n", NAT) == Pair(TT(), NatLit(int("9" * 4300)))

    @pytest.mark.parametrize(
        "parse_it, source, error",
        [
            (parse, "box[", "1:5: expected a lattice literal, found 'end of input'"),
            (parse, "box[(1,", "1:8: expected a lattice literal, found 'end of input'"),
            (parse_literal_text, "(1,", "1:4: expected a lattice literal, found 'end of input'"),
            (parse_literal_text, "", "1:1: expected a lattice literal, found 'end of input'"),
        ],
        ids=["box[", "box[(1,", "(1,", "empty literal"],
    )
    def test_end_of_input_in_a_lattice_literal(self, parse_it, source, error):
        with pytest.raises(ParseError) as exc:
            parse_it(source, NAT)
        assert str(exc.value) == error


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


class TestKeywords:
    def test_readme_lists_the_reserved_words(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        [listed] = re.findall(r"the keywords \(`([^`]*)`\)", readme.replace("\n", " "))
        assert listed == "lam tt ff if then else fst snd box unbox Bool Nat Box"
        assert set(listed.split()) == RESERVED and len(listed.split()) == len(RESERVED)

    @pytest.mark.parametrize("word", sorted(KEYWORD_FORMS))
    def test_each_keyword_form_round_trips(self, word):
        cls = KEYWORD_FORMS[word]
        if issubclass(cls, Type):
            assert parse_type(word, NAT) == cls() and pretty_type(cls()) == word
        elif cls.__match_args__:  # a prefix form over an atom
            node = cls(Var("p"))
            assert parse(f"{word} p", NAT) == node and pretty(node) == f"{word} p"
            assert pretty(cls(Pair(TT(), FF()))) == f"{word} (tt, ff)"
        else:
            assert parse(word, NAT) == cls() and pretty(cls()) == word


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


def field_values(t):
    """The values of t's fields, read without `syntax.children`."""
    return [getattr(t, f.name) for f in dataclasses.fields(t)]


def nodes(t):
    """Every node of t, the root first."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(v for v in field_values(t) if isinstance(v, Term))


def fresh_free_vars(t):
    match t:
        case Var(name):
            return {name}
        case Lam(name, _, body):
            return fresh_free_vars(body) - {name}
    out = set()
    for v in field_values(t):
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


class TestRecords:
    """Terms, types and derivations are frozen records with slots: fields,
    match arguments, structural equality and repr, and no assignment."""

    def test_assignment_is_refused(self):
        deriv = derive(Context(), TT(), Mode.SOUND, DeltaProfile.default(NAT), NAT)
        for record, name in [(Lam("x", Bool(), Var("x")), "name"), (Arrow(Bool(), Nat()), "dom"),
                             (deriv, "bound"), (Context(), "bindings")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
            assert not hasattr(record, "__dict__")

    def test_dataclass_contract(self):
        assert [f.name for f in dataclasses.fields(Arrow)] == ["dom", "cod", "latent"]
        assert Arrow.__match_args__ == ("dom", "cod", "latent")
        assert Arrow(Bool(), Nat()) == Arrow(Bool(), Nat(), None) != Arrow(Nat(), Nat())
        assert repr(Lam("x", Bool(), Var("x"))) == "Lam(name='x', annot=Bool(), body=Var(name='x'))"
        assert dataclasses.replace(Var("x"), name="y") == Var("y")

    def test_equal_types_built_apart_hash_equal(self):
        src = "Box[2] (Bool -> Nat) * Nat -> Bool"
        a, b = parse_type(src, NAT), parse_type(src, NAT)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(a) == hash((a.dom, a.cod, a.latent))
        assert len({a, b, Prod(Nat(), Bool())}) == 2
        # a term keeps its hash the same way, and a pickle does not carry it
        program = "(lam f : Bool -> Bool . (f tt, f tt)) (lam x : Bool . if x then ff else tt)"
        s, t = parse(program, NAT), parse(program, NAT)
        assert s._hash is None
        assert s is not t and s == t and hash(s) == hash(t)
        assert s._hash == hash(s) == hash((s.fn, s.arg)) and s.fn._hash == hash(s.fn)
        t2 = pickle.loads(pickle.dumps(t))
        assert t2 == t and t2._hash is None and hash(t2) == hash(t)

    def test_grade_free_term_and_derivation_round_trip_through_pickle(self):
        t = parse("(lam f : Bool -> Bool . f (f tt)) (lam x : Bool . if x then ff else tt)", NAT)
        deriv = derive(Context(), t, Mode.PAPER, DeltaProfile.default(NAT), NAT)
        hash(deriv.type)  # a kept hash is not pickled: it is recomputed on load
        t2, deriv2 = pickle.loads(pickle.dumps((t, deriv)))
        assert t2 == t and deriv2.term == t and deriv2.type == deriv.type
        assert hash(deriv2.type) == hash(deriv.type)
        # a builtin lattice unpickles as itself, so its bounds compare equal
        assert deriv2.bound.instance is NAT and deriv2 == deriv
        assert deriv2 == derive(Context(), t2, Mode.PAPER, DeltaProfile.default(NAT), NAT)


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


# ---------------------------------------------------------------------------
# Lexer: the pattern scan against the character-at-a-time scanner it
# replaced, kept here as the reference.

_REFERENCE_KEYWORDS = {
    "lam", "tt", "ff", "if", "then", "else", "fst", "snd", "box", "unbox",
    "Bool", "Nat", "Box",
}


def _reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("NAT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in _REFERENCE_KEYWORDS else "IDENT"
            tokens.append((kind, text, line, start_col))
            col += j - i
            i = j
            continue
        if ch == "-":
            if i + 1 < n and source[i + 1] == "[":
                tokens.append(("-[", "-[", line, start_col))
                i += 2
                col += 2
                continue
            if i + 1 < n and source[i + 1] == ">":
                tokens.append(("->", "->", line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError("stray '-'", line, start_col)
        if ch == "]":
            if i + 2 < n and source[i + 1 : i + 3] == "->":
                tokens.append(("]->", "]->", line, start_col))
                i += 3
                col += 3
                continue
            tokens.append(("]", "]", line, start_col))
            i += 1
            col += 1
            continue
        if ch in "().,:*[":
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("EOF", "", line, col))
    return tokens


def _pattern_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    kinds, texts = _tokenize(source)
    return [(kind, text, *_position(source, i)) for i, (kind, text) in enumerate(zip(kinds, texts))]


def _tokens_or_error(tokenize, source):
    try:
        return tokenize(source)
    except ParseError as exc:
        return str(exc)


# No digit here is a digit without being decimal (`²`, `①`): the reference
# left those to the parser, and the pattern scan rejects them itself (below).
LEXER_PIECES = (
    "lam tt ff if then else fst snd box unbox Bool Nat Box".split()
    + ["x", "_", "0", "1", "9", " ", "\t", "\r", "\n", "#"]
    + ["-[", "->", "]->", "(", ")", ".", ",", ":", "*", "[", "]", "-"]
    + ["λ", "é", "٣", "½", "Ⅷ", "\x0b", "!"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=40).map("".join))
def test_tokens_match_the_character_scanner(source):
    assert _tokens_or_error(_pattern_tokenize, source) == _tokens_or_error(_reference_tokenize, source)


class TestLexer:
    @pytest.mark.parametrize(
        "source, error",
        [
            ("box[²] tt", "1:5: bad natural literal '²'"),
            ("①", "1:1: bad natural literal '①'"),
            ("tt\n  ²x", "2:3: bad natural literal '²'"),
            ("½", "1:1: unexpected character '½'"),
            ("Ⅷ", "1:1: unexpected character 'Ⅷ'"),
            ("tt - ff", "1:4: stray '-'"),
        ],
    )
    def test_rejected_characters(self, source, error):
        with pytest.raises(ParseError) as exc:
            parse(source, NAT)
        assert str(exc.value) == error

    def test_non_decimal_digits_inside_an_identifier(self):
        assert parse("lam x² : Bool . x²", NAT) == Lam("x²", Bool(), Var("x²"))

    def test_decimal_digits_of_any_script(self):
        assert parse("٣", NAT) == NatLit(3)
        assert parse("1٣", NAT) == NatLit(13)

    def test_a_decimal_run_ends_before_a_non_decimal_digit(self):
        # The reference read `0²` as one natural, which the parser then
        # refused at 1:1 as `bad natural literal '0²'`. The natural is now
        # `0` alone, and the error points at the `²`.
        assert _reference_tokenize("0²")[0] == ("NAT", "0²", 1, 1)
        with pytest.raises(ParseError) as exc:
            parse("0²", NAT)
        assert str(exc.value) == "1:2: bad natural literal '²'"
