"""Surface syntax for the resource-bounded lambda calculus: type and term
ASTs, a recursive-descent parser, a printer that round-trips through the
parser, substitution of closed values, and alpha-equivalence. Values are the
terms in normal form (`is_value`); there is no separate value AST.

One printer, `pretty`, prints terms and types, and one table, `_PREC`, sets
every parenthesis: a child prints in parentheses when its class's precedence
is below the one its position needs.

The structure-only walks visit children through one `children`/`rebuild`
pair, generated from each node class's dataclass fields at import. A node's
children are its fields of its own kind, so types are walked as terms are,
and a `Lam`'s name and annotation, a grade or a latent is a label that
`rebuild` keeps. Free variables, substitution, renaming and size keep only
their `Var` and `Lam` binder cases (substitution, of closed values only,
needs no `Lam` case); alpha-equivalence compares two canonical renamings;
the type walks (`typecheck`'s and `harness.concretize`) keep only their
`Arrow` case.

Terms, types and the typing and evaluation records built over them are
`record`s (`lattice.record`): frozen dataclasses with slots. Each keeps the
dataclass contract (`dataclasses.fields`, `__match_args__`, structural `==`
and hash, `repr`, `FrozenInstanceError` on assignment or deletion), has no
`__dict__`, and pickles as its class applied to its fields. `record`
generates `__init__`, `__eq__`, `__hash__`, `__repr__` and `__reduce__` in
one `exec` and sets the refusing `__setattr__` and `__delattr__`;
`dataclass` supplies only `fields`, `__match_args__` and `replace`. The
class call is a record's one constructor: its `__init__` writes each slot
through the slot's descriptor, which costs about half of a frozen
dataclass's `object.__setattr__` per field. `==` compares field by field,
each by identity first, and `repr` has no recursion guard, so both spend
one frame per nesting level. A node class names its fields once, as the
annotations of a `class C(Term, metaclass=record)` body, with a default
written after its field (`latent: LatticeElement | None = None`). `record`
is a function: it calls `type` once, with the fields as `__slots__`, since
slots must exist when the class is made, so no second class is left behind
(`dataclass(slots=True)` would leave one), and every node class is a plain
`type`, which keeps the `isinstance` tests of the rules' matches fast.

Terms are immutable and may share subterms. Each node keeps its free
variables once computed, in its `_fv` slot, and a term or a type keeps its
hash once computed, in its `_hash` slot; neither is a field, so a pickled
node carries neither. Substitution takes only closed values and shares
every subterm where the name is not free, so it rebuilds only the paths
down to the name's occurrences. A printer of many terms that share
subterms (the evaluation and derivation traces) passes one memo to
`pretty` and prints each node once.

Lexical rules: an identifier is a letter or `_`, then letters, digits or
`_`, in any script, and the keywords are reserved. A natural is decimal
digits of any script, so `٣` is 3, while `²` is an error. `#` starts a
comment that runs to the end of the line.

Grammar (whitespace-insensitive):

    term   := lam | app
    lam    := "lam" ident ":" type "." term
    app    := atom { atom }                  # left-associative
    atom   := "tt" | "ff" | natural | ident
            | "(" term "," term ")" | "(" term ")"
            | "fst" atom | "snd" atom
            | "if" term "then" term "else" term
            | "box" "[" lit "]" atom | "unbox" atom
    type   := btype { ("->" | "-[" lit "]->") type }   # right-associative
    btype  := factor { "*" factor }                    # right-associative
    factor := "Bool" | "Nat" | "Box" "[" lit "]" factor | "(" type ")"
    lit    := natural | element name | "(" lit { "," lit } ")"
"""

from __future__ import annotations

import re
from dataclasses import fields
from itertools import count, islice
from typing import Callable, Iterator, Sequence, TypeVar

from rblam.lattice import LatticeElement, LatticeError, LatticeInstance, record


# ---------------------------------------------------------------------------
# ASTs


class Type:
    __slots__ = ("_hash",)


class Bool(Type, metaclass=record):
    pass


class Nat(Type, metaclass=record):
    pass


class Prod(Type, metaclass=record):
    left: Type
    right: Type


class Arrow(Type, metaclass=record):
    dom: Type
    cod: Type
    latent: LatticeElement | None = None


class Box(Type, metaclass=record):
    grade: LatticeElement
    body: Type


class Term:
    __slots__ = ("_fv", "_hash")


class Var(Term, metaclass=record):
    name: str


class Lam(Term, metaclass=record):
    name: str
    annot: Type
    body: Term


class App(Term, metaclass=record):
    fn: Term
    arg: Term


class Pair(Term, metaclass=record):
    fst: Term
    snd: Term


class Fst(Term, metaclass=record):
    arg: Term


class Snd(Term, metaclass=record):
    arg: Term


class If(Term, metaclass=record):
    cond: Term
    then: Term
    other: Term


class TT(Term, metaclass=record):
    pass


class FF(Term, metaclass=record):
    pass


class NatLit(Term, metaclass=record):
    value: int


class BoxT(Term, metaclass=record):
    grade: LatticeElement
    body: Term


class Unbox(Term, metaclass=record):
    arg: Term


# Each one-keyword form by its keyword: the constants, the prefix forms over
# an atom and the base types. The lexer, the parser and the printer read
# this table; a rule's name in a derivation or trace is the class's name.
KEYWORD_FORMS: dict[str, type] = {
    "tt": TT, "ff": FF, "fst": Fst, "snd": Snd, "unbox": Unbox, "Bool": Bool, "Nat": Nat,
}
KEYWORD_OF = {cls: word for word, cls in KEYWORD_FORMS.items()}


# ---------------------------------------------------------------------------
# One traversal of terms and types: a node's children are its fields of its
# own kind, and its other fields (name, annotation, grade, literal, latent)
# are labels. Each class's children and its fields over new children are
# generated from its dataclass fields once, here. `rebuild` calls the class
# itself, so a walk through it spends no more frames than a constructor call.

_CHILDREN: dict[type, Callable] = {}  # class -> (node) -> its children
_FIELDS: dict[type, Callable] = {}  # class -> (node, new children) -> the new node's fields
for _kind in (Term, Type):
    for _cls in _kind.__subclasses__():
        _kids = [f.name for f in fields(_cls) if f.type in (_kind.__name__, _kind)]
        _args = [f"k[{_kids.index(f.name)}]" if f.name in _kids else f"t.{f.name}" for f in fields(_cls)]
        _env = {}
        exec(f"def children(t): return ({''.join(f't.{n}, ' for n in _kids)})\n"
             f"def fields_over(t, k): return ({''.join(f'{a}, ' for a in _args)})", _env)
        _CHILDREN[_cls], _FIELDS[_cls] = _env["children"], _env["fields_over"]


def children(t: Term | Type) -> tuple:
    """The children of t, in field order: a term's subterms, or a type's
    component types. A `Lam`'s annotation is a label of the term, not a
    child."""
    return _CHILDREN[t.__class__](t)


def rebuild(t: Term | Type, kids: Sequence) -> Term | Type:
    """t's node over new children, given in the order of children(t), with
    every label of t kept. Given no children, t is returned as it is."""
    return t.__class__(*_FIELDS[t.__class__](t, kids)) if kids else t


class RuleTable(dict):
    """A rule set's handler by node class; any other class gets `refuse`."""

    def __init__(self, rules: dict[type, Callable], refuse: Callable):
        super().__init__(rules)
        self.refuse = refuse

    def __missing__(self, cls: type) -> Callable:
        return self.refuse


_VALUE_LEAVES = (Lam, TT, FF, NatLit)


def is_value(t: Term) -> bool:
    """Values are the terms in normal form: lambdas, literals, and pairs and
    boxes of values."""
    if isinstance(t, _VALUE_LEAVES):
        return True
    if isinstance(t, Pair):
        return is_value(t.fst) and is_value(t.snd)
    if isinstance(t, BoxT):
        return is_value(t.body)
    return False


_CLOSED: frozenset[str] = frozenset()
_set_fv = Term._fv.__set__


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t. Terms are immutable, so each node keeps its
    set once computed, in its `_fv` slot. A node shares a child's set
    whenever that set is the answer."""
    fv = t._fv
    if fv is not None:
        return fv
    match t:
        case Var(name):
            fv = frozenset((name,))
        case Lam(name, _, body):
            fv = free_vars(body)
            if name in fv:
                fv = fv - {name} or _CLOSED
        case _:
            kids = children(t)
            if not kids:
                return _CLOSED
            fv = _CLOSED
            for kid in kids:
                fv = _union(fv, free_vars(kid))
    _set_fv(t, fv)
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


def substitute(t: Term, name: str, v: Term) -> Term:
    """t[name := v] for a closed value v; t may be open. Evaluation of a
    closed program substitutes only closed values, so no binder can capture
    a variable of v, and a lambda in which `name` is free does not bind it.
    Every subterm without a free `name` is shared, not copied: only
    the paths down to `name`'s occurrences are rebuilt. An open v raises
    ValueError."""
    if free_vars(v):
        raise ValueError(f"substitute needs a closed value, got {pretty(v)}")
    return _subst(t, name, v)


def _subst(t: Term, x: str, v: Term) -> Term:
    if x not in free_vars(t):
        return t
    if t.__class__ is Var:  # x is free in it, so it is x
        return v
    return rebuild(t, [_subst(kid, x, v) for kid in children(t)])


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables:
    the two terms' canonical renamings are equal. A binder is renamed to
    its preorder number, which no variable's name is, so a bound variable
    never equals a free one. Annotations and grades must match exactly."""
    return _renamed(a, {}, count(1)) == _renamed(b, {}, count(1))


def rename_binders(t: Term) -> Term:
    """Rename every binder to v1, v2, ..., preorder. Structure-preserving
    alpha-renaming; only safe on closed terms."""
    if free_vars(t):
        raise ValueError("rename_binders needs a closed term")
    return _renamed(t, {}, map("v{}".format, count(1)))


def _renamed(t: Term, env: dict[str, object], names: Iterator) -> Term:
    """t with its binders renamed to the next of `names`, in preorder, and
    each occurrence a binder binds (`env`) renamed with it. A free variable
    keeps its name."""
    if t.__class__ is Var:
        return Var(env.get(t.name, t.name))
    if t.__class__ is Lam:
        new = next(names)
        return Lam(new, t.annot, _renamed(t.body, {**env, t.name: new}, names))
    kids = []
    for kid in children(t):  # a loop, not a comprehension, which would cost a frame per level
        kids.append(_renamed(kid, env, names))
    return rebuild(t, kids)


def term_size(t: Term) -> int:
    n = 1
    for kid in children(t):
        n += term_size(kid)
    return n


# ---------------------------------------------------------------------------
# Printing

# Each class's precedence. An application's head needs 1; its argument, a
# prefix form's operand and a box's body need 2; a product's left needs 2 and
# its right 1; an arrow's domain needs 1; every other position needs 0.
_PREC: dict[type, int] = {
    Lam: 0, If: 0, Fst: 0, Snd: 0, Unbox: 0, BoxT: 0, App: 1, Var: 2, TT: 2, FF: 2, NatLit: 2, Pair: 2,
    Arrow: 0, Prod: 1, Box: 2, Bool: 2, Nat: 2,
}


def pretty(t: Term | Type, memo: dict[int, str] | None = None) -> str:
    """The source text of a term or a type. A printer that shows many terms
    sharing subterms passes one `memo` (id of a node -> its text) to every
    call, so each node is printed once; the caller keeps those nodes alive."""
    if memo is not None and (s := memo.get(id(t))) is not None:
        return s
    match t:
        case Var(name):
            return name
        case TT() | FF() | Bool() | Nat():
            return KEYWORD_OF[t.__class__]
        case NatLit(n):
            return str(n)
        case Lam(name, annot, body):
            s = f"lam {name} : {pretty(annot, memo)} . {pretty(body, memo)}"
        case App(fn, arg):
            s = f"{_operand(fn, 1, memo)} {_operand(arg, 2, memo)}"
        case Pair(a, b):
            s = f"({pretty(a, memo)}, {pretty(b, memo)})"
        case Fst(arg) | Snd(arg) | Unbox(arg):
            s = f"{KEYWORD_OF[t.__class__]} {_operand(arg, 2, memo)}"
        case If(c, a, b):
            s = f"if {pretty(c, memo)} then {pretty(a, memo)} else {pretty(b, memo)}"
        case BoxT(grade, body):
            s = f"box[{grade.instance.format(grade)}] {_operand(body, 2, memo)}"
        case Box(grade, body):
            s = f"Box[{grade.instance.format(grade)}] {_operand(body, 2, memo)}"
        case Prod(left, right):
            s = f"{_operand(left, 2, memo)} * {_operand(right, 1, memo)}"
        case Arrow(dom, cod, latent):
            arrow = "->" if latent is None else f"-[{latent.instance.format(latent)}]->"
            s = f"{_operand(dom, 1, memo)} {arrow} {pretty(cod, memo)}"
        case _:
            raise TypeError(f"not a term or a type: {t!r}")
    if memo is not None:
        memo[id(t)] = s
    return s


def _operand(t: Term | Type, need: int, memo: dict[int, str] | None) -> str:
    """t's text at a position that needs precedence `need`."""
    s = pretty(t, memo)
    return s if _PREC[t.__class__] >= need else f"({s})"


def pretty_value(v: Term) -> str:
    """The same as pretty: values are terms. The benchmark's check-corpus
    workload still prints its expected values through this name. It is a
    function of its own, not `pretty_value = pretty`, because the
    benchmark's tracer keys functions by identity and would then report
    every pretty call under this name."""
    return pretty(v)


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


RESERVED = frozenset({"lam", "if", "then", "else", "box", "Box", *KEYWORD_FORMS})

# One scan finds every token: blanks, newlines and comments match outside the
# one group, so `findall` gives them as "", and a token is the group's text.
# Alternatives are tried in order. `\d` is a decimal digit of any script, `\w`
# what str.isalnum() accepts or `_`. No token keeps its position: `_position`
# finds it again with this same pattern, only for an error.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(\d+|\w+|-\[|->|\]->|[().,:*\[\]]|.)")

# A keyword or a symbol is its own kind; any other token's first character decides.
_KINDS = {text: text for text in (*RESERVED, "-[", "->", "]->", *"().,:*[]")}


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of source's tokens, as two flat lists that end
    with an EOF token of text "". A token that is no keyword or symbol is an
    IDENT if it starts with a letter or `_`, a NAT if with a decimal digit,
    and an error otherwise. No position is kept: one is computed only for an
    error, by `_position`."""
    texts = list(filter(None, _TOKEN.findall(source)))
    kind = _KINDS.get
    kinds = [
        kind(text) or ("IDENT" if text[0].isalpha() or text[0] == "_" else "NAT" if text[0].isdecimal() else "")
        for text in texts
    ]
    if "" in kinds:
        index = kinds.index("")
        ch = texts[index][0]  # a word that is no identifier, or no token at all
        message = "stray '-'" if ch == "-" else f"unexpected character {ch!r}"
        if ch.isdigit():  # but not decimal: a superscript or a circled digit
            message = f"bad natural literal {ch!r}"
        raise ParseError(message, *_position(source, index))
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _position(source: str, index: int) -> tuple[int, int]:
    """The line and column of token number `index` in source (the EOF token
    when index is the number of tokens). It scans again with the lexer's own
    pattern, so it is called only when an error is raised."""
    starts = (m.start() for m in _TOKEN.finditer(source) if m.lastindex)
    start = next(islice(starts, index, None), len(source))
    line_start = source.rfind("\n", 0, start) + 1
    return source.count("\n", 0, start) + 1, start - line_start + 1


# ---------------------------------------------------------------------------
# Parser


_TERM_WORDS = {word: cls for word, cls in KEYWORD_FORMS.items() if issubclass(cls, Term)}
_TYPE_WORDS = {word: cls for word, cls in KEYWORD_FORMS.items() if issubclass(cls, Type)}


class _Parser:
    """A cursor `pos` over the token lists of `_tokenize`."""

    def __init__(self, source: str, inst: LatticeInstance):
        self.source = source
        self.kinds, self.texts = _tokenize(source)
        self.pos = 0
        self.inst = inst

    def expect(self, kind: str) -> str:
        """Step over a token of this kind and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail_expected(repr(kind))
        self.pos = pos + 1
        return self.texts[pos]

    def fail(self, message: str, index: int):
        raise ParseError(message, *_position(self.source, index))

    def fail_expected(self, what: str):
        self.fail(f"expected {what}, found {self.texts[self.pos] or 'end of input'!r}", self.pos)

    # literals ------------------------------------------------------------

    def natural(self) -> int:
        """The value of the NAT token at the cursor. int() takes decimal
        digits of any script, but no numeral of more than 4300 digits."""
        text = self.expect("NAT")
        try:
            return int(text)
        except ValueError:
            self.fail(f"natural literal of {len(text)} digits is too long", self.pos - 1)

    def parse_raw_literal(self):
        kind = self.kinds[self.pos]
        if kind == "NAT":
            return self.natural()
        if kind == "IDENT":
            return self.expect("IDENT")
        if kind == "(":
            self.pos += 1
            parts = [self.parse_raw_literal()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                parts.append(self.parse_raw_literal())
            self.expect(")")
            return tuple(parts)
        self.fail_expected("a lattice literal")

    def parse_element(self) -> LatticeElement:
        start = self.pos
        lit = self.parse_raw_literal()
        try:
            return self.inst.element(lit)
        except LatticeError as exc:
            raise ParseError(str(exc), *_position(self.source, start)) from exc

    # types ---------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_btype()
        kind = self.kinds[self.pos]
        if kind == "->":
            self.pos += 1
            return Arrow(left, self.parse_type(), None)
        if kind == "-[":
            self.pos += 1
            latent = self.parse_element()
            self.expect("]->")
            return Arrow(left, self.parse_type(), latent)
        return left

    def parse_btype(self) -> Type:
        left = self.parse_type_factor()
        if self.kinds[self.pos] == "*":
            self.pos += 1
            return Prod(left, self.parse_btype())
        return left

    def parse_type_factor(self) -> Type:
        kind = self.kinds[self.pos]
        cls = _TYPE_WORDS.get(kind)
        if cls is not None:
            self.pos += 1
            return cls()
        if kind == "Box":
            self.pos += 1
            self.expect("[")
            grade = self.parse_element()
            self.expect("]")
            return Box(grade, self.parse_type_factor())
        if kind == "(":
            self.pos += 1
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.fail_expected("a type")

    # terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        if self.kinds[self.pos] == "lam":
            self.pos += 1
            name = self.expect("IDENT")
            self.expect(":")
            annot = self.parse_type()
            self.expect(".")
            return Lam(name, annot, self.parse_term())
        return self.parse_app()

    _ATOM_START = {"NAT", "IDENT", "(", "if", "box", *_TERM_WORDS}

    def parse_app(self) -> Term:
        term = self.parse_atom()
        kinds = self.kinds
        while kinds[self.pos] in self._ATOM_START:
            term = App(term, self.parse_atom())
        return term

    def parse_atom(self) -> Term:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "IDENT":
            self.pos = pos + 1
            return Var(self.texts[pos])
        if kind == "NAT":
            return NatLit(self.natural())
        cls = _TERM_WORDS.get(kind)
        if cls is not None:  # a constant, or a prefix form and its one operand
            self.pos = pos + 1
            return cls(self.parse_atom()) if cls.__match_args__ else cls()
        if kind == "(":
            self.pos = pos + 1
            first = self.parse_term()
            if self.kinds[self.pos] == ",":
                self.pos += 1
                second = self.parse_term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        if kind == "if":
            self.pos = pos + 1
            cond = self.parse_term()
            self.expect("then")
            then = self.parse_term()
            self.expect("else")
            return If(cond, then, self.parse_term())
        if kind == "box":
            self.pos = pos + 1
            self.expect("[")
            grade = self.parse_element()
            self.expect("]")
            return BoxT(grade, self.parse_atom())
        self.fail_expected("a term")


_P = TypeVar("_P")


def _parse_all(source: str, inst: LatticeInstance, production: Callable[[_Parser], _P]) -> _P:
    """Run one production over the whole source; input left after it is an error."""
    parser = _Parser(source, inst)
    result = production(parser)
    if parser.kinds[parser.pos] != "EOF":
        parser.fail(f"trailing input starting at {parser.texts[parser.pos]!r}", parser.pos)
    return result


def parse(source: str, inst: LatticeInstance) -> Term:
    """Parse a program against a lattice instance (literals are checked
    eagerly). Raises ParseError with line/column on malformed input."""
    return _parse_all(source, inst, _Parser.parse_term)


def parse_type(source: str, inst: LatticeInstance) -> Type:
    return _parse_all(source, inst, _Parser.parse_type)


def parse_literal_text(source: str, inst: LatticeInstance) -> LatticeElement:
    """Parse a standalone lattice literal such as '3' or '(1,2,0)'."""
    return _parse_all(source, inst, _Parser.parse_element)
