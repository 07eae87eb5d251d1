import dataclasses
import pathlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblam import cli, harness, interp, lattice, model, syntax, typecheck
from rblam.harness import GenConfig, _generate, concretize, gen_typed_term, sample_type
from rblam.lattice import NAT, TRIPLE, SaturatingNatLattice
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
    _PREC,
    pretty,
    rebuild,
    rename_binders,
    substitute,
    term_size,
)
from rblam.typecheck import Context, DeltaProfile, Mode, derive

from reference_printers import reference_pretty, reference_pretty_type


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
        assert pretty(Arrow(Prod(Bool(), Nat()), Bool(), None)) == "Bool * Nat -> Bool"
        assert pretty(Arrow(Bool(), Bool(), NAT.element(1))) == "Bool -[1]-> Bool"

    def test_every_class_has_a_precedence(self):
        assert set(_PREC) == set(Term.__subclasses__()) | set(Type.__subclasses__())

    def test_output_matches_the_reference_printers_on_generated_terms_and_types(self):
        # the lattices' grades print as a natural, a capped natural and a
        # triple; paper mode has no latents, sound mode has them
        # 5,100 generated terms and as many sampled types, and every subterm
        # and subterm type of the terms' derivations
        for inst in (NAT, TRIPLE, SaturatingNatLattice(3)):
            for mode in Mode:
                cfg = GenConfig(lattice=inst, seed=37, max_depth=5, mode=mode, allow_fn_var_reuse=True)
                rng = random.Random(37)
                for trial in range(850):
                    memo = {}
                    for d in derivation_nodes(_generate(cfg, trial=trial)):
                        assert pretty(d.term, memo) == pretty(d.term) == reference_pretty(d.term)
                        if d.type is not None:
                            assert pretty(d.type) == reference_pretty_type(d.type)
                    ty = concretize(sample_type(rng, 4, inst), inst, rng, mode)
                    assert pretty(ty) == reference_pretty_type(ty)

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
            assert parse_type(word, NAT) == cls() and pretty(cls()) == word
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

    def test_untouched_when_absent(self):
        t = parse("lam y : Bool . y", NAT)
        assert substitute(t, "x", TT()) == t

    def test_closed_value_shares_untouched_subterms(self):
        lam = Lam("y", Bool(), Var("y"))
        result = substitute(App(lam, Var("x")), "x", TT())
        assert result == App(lam, TT())
        assert result.fn is lam

    def test_open_value_is_refused(self):
        # evaluation substitutes only closed values, so there is nothing to capture
        t = Lam("y", Bool(), App(Var("x"), Var("y")))
        with pytest.raises(ValueError, match="closed value"):
            substitute(t, "x", Lam("z", Bool(), Var("y")))

    def test_cached_free_vars_match_a_fresh_computation(self):
        cfg = GenConfig(lattice=NAT, seed=3, count=200, max_depth=6)
        checked = 0
        for i in range(200):
            for lam in nodes(gen_typed_term(cfg, trial=i)):
                if not isinstance(lam, Lam):
                    continue
                for v in (TT(), Lam("z", Bool(), Var("z"))):
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


def reference_alpha_eq(a, b, enva, envb, depth):
    """alpha_eq as it was when it walked both terms at once, kept as the
    reference for the comparison of canonical renamings: a bound variable is
    its binder's nesting depth, and a free one its name."""
    if type(a) is not type(b):
        return False
    match (a, b):
        case (Var(x), Var(y)):
            ia, ib = enva.get(x), envb.get(y)
            if ia is None and ib is None:
                return x == y
            return ia == ib
        case (Lam(x, ta, ba), Lam(y, tb, bb)):
            if ta != tb:
                return False
            return reference_alpha_eq(ba, bb, {**enva, x: depth}, {**envb, y: depth}, depth + 1)
    labels = [v for v in field_values(a) if not isinstance(v, Term)]
    if labels != [v for v in field_values(b) if not isinstance(v, Term)]:
        return False
    kids = [v for v in field_values(a) if isinstance(v, Term)]
    return all(reference_alpha_eq(ka, kb, enva, envb, depth)
               for ka, kb in zip(kids, [v for v in field_values(b) if isinstance(v, Term)]))


# free names and binder names, among them the names rename_binders gives
NAMES = ["x", "y", "v1", "v2"]


def random_open_term(rng, depth):
    """A term over NAMES, open and with shadowed binders more often than not."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var(rng.choice(NAMES)), Var(rng.choice(NAMES)), TT(), NatLit(rng.randrange(2))])
    def sub():
        return random_open_term(rng, depth - 1)

    return rng.choice([
        lambda: Lam(rng.choice(NAMES), rng.choice([Bool(), Nat()]), sub()),
        lambda: Lam(rng.choice(NAMES), rng.choice([Bool(), Nat()]), sub()),
        lambda: App(sub(), sub()),
        lambda: Pair(sub(), sub()),
        lambda: If(sub(), sub(), sub()),
        lambda: BoxT(NAT.element(rng.randrange(3)), sub()),
    ])()


def rebind(t, rng, env=None):
    """t with each binder renamed to a name drawn from NAMES, and each
    occurrence it binds with it. A drawn name may capture a free variable,
    so the result need not be alpha-equivalent to t."""
    env = env or {}
    match t:
        case Var(x):
            return Var(env.get(x, x))
        case Lam(x, annot, body):
            new = rng.choice(NAMES)
            return Lam(new, annot, rebind(body, rng, {**env, x: new}))
    return type(t)(*[rebind(v, rng, env) if isinstance(v, Term) else v for v in field_values(t)])


def relabel(t):
    """t with its first annotation or grade, in preorder, changed, and
    nothing else; t itself if it has neither."""
    match t:
        case Lam(x, annot, body):
            return Lam(x, Nat() if annot == Bool() else Bool(), body)
        case BoxT(grade, body):
            return BoxT(NAT.element(grade.payload + 1), body)
    values = field_values(t)
    for i, v in enumerate(values):
        if isinstance(v, Term) and (new := relabel(v)) is not v:
            return type(t)(*values[:i], new, *values[i + 1:])
    return t


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

    def test_a_binder_never_captures_a_free_name_renaming_produces(self):
        # rename_binders names binders v1, v2, ...; alpha_eq must not
        assert not alpha_eq(Lam("x", Bool(), Var("x")), Lam("y", Bool(), Var("v1")))
        assert not alpha_eq(Lam("v2", Bool(), Var("v1")), Lam("y", Bool(), Var("y")))

    def test_verdicts_match_the_reference_on_generated_pairs(self):
        rng = random.Random(36)
        verdicts = {True: 0, False: 0}
        for i in range(3000):
            a = random_open_term(rng, 4)
            b = [random_open_term(rng, 2), rebind(a, rng), relabel(rebind(a, rng))][i % 3]
            verdict = alpha_eq(a, b)
            assert verdict == reference_alpha_eq(a, b, {}, {}, 0), (a, b)
            assert alpha_eq(b, a) == verdict
            verdicts[verdict] += 1
        assert min(verdicts.values()) > 500, verdicts

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


EVERY_TYPE_CLASS = [
    Bool(),
    Nat(),
    Prod(Bool(), Nat()),
    Arrow(Nat(), Bool(), NAT.element(3)),
    Box(NAT.element(2), Nat()),
]

# Each class's child fields, stated here rather than read off the field
# annotations as `syntax` reads them; every other field is a label.
CHILD_FIELDS = {
    Var: (), Lam: ("body",), App: ("fn", "arg"), Pair: ("fst", "snd"), Fst: ("arg",), Snd: ("arg",),
    If: ("cond", "then", "other"), TT: (), FF: (), NatLit: (), BoxT: ("body",), Unbox: ("arg",),
    Bool: (), Nat: (), Prod: ("left", "right"), Arrow: ("dom", "cod"), Box: ("body",),
}


class TestTraversal:
    def test_every_node_class_is_listed(self):
        assert {type(t) for t in EVERY_NODE_CLASS} == set(Term.__subclasses__())
        assert {type(t) for t in EVERY_TYPE_CLASS} == set(Type.__subclasses__())
        assert set(CHILD_FIELDS) == set(Term.__subclasses__()) | set(Type.__subclasses__())

    @pytest.mark.parametrize("t", EVERY_NODE_CLASS + EVERY_TYPE_CLASS, ids=lambda t: type(t).__name__)
    def test_rebuild_puts_each_child_in_its_field_and_keeps_every_label(self, t):
        names = CHILD_FIELDS[type(t)]
        assert children(t) == tuple(getattr(t, name) for name in names)
        fresh = [NatLit(10 + i) if isinstance(t, Term) else Box(NAT.element(10 + i), Bool())
                 for i in range(len(names))]
        new = rebuild(t, fresh)
        assert type(new) is type(t) and (new is t) == (not names)
        for f in dataclasses.fields(t):
            want = fresh[names.index(f.name)] if f.name in names else getattr(t, f.name)
            assert getattr(new, f.name) is want, f.name

    @pytest.mark.parametrize("t", EVERY_NODE_CLASS + EVERY_TYPE_CLASS, ids=lambda t: type(t).__name__)
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
    match arguments, structural equality and repr, and no assignment. A
    record class is a plain class, declared once by its annotations."""

    def test_every_record_class_is_a_plain_class_whose_slots_are_its_fields(self):
        classes = {cls for module in (cli, harness, interp, lattice, model, syntax, typecheck)
                   for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__module__ == module.__name__
                   and cls.__dict__.get("__setattr__") is lattice._frozen_setattr}
        assert len(classes) == 23
        for cls in classes:
            assert type(cls) is type
            assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))

    def test_each_node_class_is_made_once(self):
        for base, names in [(Term, "Var Lam App Pair Fst Snd If TT FF NatLit BoxT Unbox"),
                            (Type, "Bool Nat Prod Arrow Box")]:
            assert base.__subclasses__() == [getattr(syntax, name) for name in names.split()]

    def test_a_default_in_the_class_body_is_the_fields_default(self):
        assert Arrow(Bool(), Nat()).latent is None
        assert Context().bindings == ()

        class Point(metaclass=lattice.record):
            x: int
            y: int = 0

        assert Point(1) == Point(1, 0) != Point(1, 2)
        assert Point.__slots__ == ("x", "y") and dataclasses.fields(Point)[1].default == 0

    def test_a_default_before_a_field_without_one_is_refused(self):
        with pytest.raises(TypeError, match="^Bad: a field without a default follows one with a default$"):
            class Bad(metaclass=lattice.record):
                x: int = 0
                y: int

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


def derivation_nodes(d):
    """Every node of a derivation, the root first."""
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.children)


def types_over(grades):
    """Types whose grades and latents are drawn from `grades`; an arrow's
    latent is absent about half the time."""
    return st.recursive(
        st.sampled_from([Bool(), Nat()]),
        lambda kids: st.one_of(
            st.builds(Prod, kids, kids),
            st.builds(Box, grades, kids),
            st.builds(Arrow, kids, kids, st.none() | grades),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just(NAT), types_over(st.integers(0, 5).map(NAT.element))),
    st.tuples(st.just(TRIPLE), types_over(st.tuples(*[st.integers(0, 3)] * 3).map(TRIPLE.element))),
))
def test_type_print_parse_round_trip(inst_and_type):
    inst, ty = inst_and_type
    assert parse_type(pretty(ty), inst) == ty


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
