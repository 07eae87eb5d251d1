"""Surface syntax for the resource-bounded lambda calculus: type and term
ASTs, a recursive-descent parser, a printer that round-trips through the
parser, capture-avoiding substitution, and alpha-equivalence. Values are the
terms in normal form (`is_value`); there is no separate value AST.

The structure-only walks (free variables, substitution, alpha-equivalence,
renaming, size) visit subterms through one `children`/`rebuild` pair, read
off each node class's dataclass fields once at import, and keep only their
`Var` and `Lam` binder cases.

Terms, types and the typing and evaluation records built over them are
`record`s (`lattice.record`): frozen dataclasses with slots. Each keeps the
dataclass contract (`dataclasses.fields`, `__match_args__`, structural `==`
and hash, `repr`, `FrozenInstanceError` on assignment or deletion), has no
`__dict__`, and pickles as its class applied to its fields. The class call
is its one constructor: its `__init__` writes each slot through the slot's
descriptor, which costs about half of a frozen dataclass's
`object.__setattr__` per field. The class body declares
`__slots__` itself, so the decorator changes the class in place and leaves
no second class behind (`dataclass(slots=True)` would).

Terms are immutable and may share subterms. Each node keeps its free
variables once computed, in its `_fv` slot, and a term or a type keeps its
hash once computed, in its `_hash` slot; neither is a field, so a pickled
node carries neither. Substituting a closed value shares every subterm
where the name is not free, so it rebuilds only the paths down to the
name's occurrences. A printer of many terms that share subterms (the
evaluation and derivation traces) passes one memo to `pretty` and prints
each node once.

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
from itertools import islice
from typing import Callable, Sequence, TypeVar

from rblam.lattice import LatticeElement, LatticeError, LatticeInstance, _getter, record


# ---------------------------------------------------------------------------
# ASTs


class Type:
    __slots__ = ("_hash",)


@record
class Bool(Type):
    __slots__ = ()


@record
class Nat(Type):
    __slots__ = ()


@record
class Prod(Type):
    __slots__ = ("left", "right")
    left: Type
    right: Type


@record(latent=None)
class Arrow(Type):
    __slots__ = ("dom", "cod", "latent")
    dom: Type
    cod: Type
    latent: LatticeElement | None


@record
class Box(Type):
    __slots__ = ("grade", "body")
    grade: LatticeElement
    body: Type


class Term:
    __slots__ = ("_fv", "_hash")


@record
class Var(Term):
    __slots__ = ("name",)
    name: str


@record
class Lam(Term):
    __slots__ = ("name", "annot", "body")
    name: str
    annot: Type
    body: Term


@record
class App(Term):
    __slots__ = ("fn", "arg")
    fn: Term
    arg: Term


@record
class Pair(Term):
    __slots__ = ("fst", "snd")
    fst: Term
    snd: Term


@record
class Fst(Term):
    __slots__ = ("arg",)
    arg: Term


@record
class Snd(Term):
    __slots__ = ("arg",)
    arg: Term


@record
class If(Term):
    __slots__ = ("cond", "then", "other")
    cond: Term
    then: Term
    other: Term


@record
class TT(Term):
    __slots__ = ()


@record
class FF(Term):
    __slots__ = ()


@record
class NatLit(Term):
    __slots__ = ("value",)
    value: int


@record
class BoxT(Term):
    __slots__ = ("grade", "body")
    grade: LatticeElement
    body: Term


@record
class Unbox(Term):
    __slots__ = ("arg",)
    arg: Term


# Each one-keyword form by its keyword: the constants, the prefix forms over
# an atom and the base types. The lexer, the parser and both printers read
# this table; a rule's name in a derivation or trace is the class's name.
KEYWORD_FORMS: dict[str, type] = {
    "tt": TT, "ff": FF, "fst": Fst, "snd": Snd, "unbox": Unbox, "Bool": Bool, "Nat": Nat,
}
KEYWORD_OF = {cls: word for word, cls in KEYWORD_FORMS.items()}


# ---------------------------------------------------------------------------
# One traversal: every node class lists its labels (name, annotation, grade,
# literal) before its subterms, so its children and its rebuild are read off
# its dataclass fields once, here.


_LABELS: dict[type, Callable[[Term], tuple]] = {}
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {}
for _cls in Term.__subclasses__():
    _names = [f.name for f in fields(_cls)]
    _kids = [f.name for f in fields(_cls) if f.type in ("Term", Term)]
    _labels = _names[: len(_names) - len(_kids)]
    if _labels + _kids != _names:
        raise TypeError(f"{_cls.__name__} lists a label after a subterm")
    _LABELS[_cls], _CHILDREN[_cls] = _getter(_labels), _getter(_kids)


def children(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of t, in field order."""
    return _CHILDREN[type(t)](t)


def rebuild(t: Term, kids: Sequence[Term]) -> Term:
    """t's node over new subterms, given in the order of children(t). A leaf
    has none and is returned as it is."""
    return type(t)(*_LABELS[type(t)](t), *kids) if kids else t


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


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789").rstrip("_") or "x"
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


def substitute(t: Term, name: str, v: Term) -> Term:
    """Capture-avoiding substitution t[name := v]. Binders shadowing `name`
    block the substitution; binders that would capture a free variable of v
    are renamed (unreachable for closed v, kept for safety). A closed v
    leaves every subterm without a free `name` in place: the result shares
    it instead of copying it, so only the paths down to `name` are rebuilt."""
    return _subst(t, name, v, free_vars(v))


def _subst(t: Term, x: str, r: Term, fv_r: frozenset[str]) -> Term:
    # An open r renames capturing binders even where x does not occur.
    if not fv_r and x not in free_vars(t):
        return t
    match t:
        case Var(name):
            return r if name == x else t
        case Lam(name, annot, body):
            if name == x:
                return t
            if name in fv_r:
                renamed = fresh_name(name, fv_r | free_vars(body) | {x})
                body = _subst(body, name, Var(renamed), frozenset({renamed}))
                name = renamed
            return Lam(name, annot, _subst(body, x, r, fv_r))
    kids = []
    for kid in children(t):
        kids.append(_subst(kid, x, r, fv_r))
    return rebuild(t, kids)


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables.
    Annotations and grades must match exactly."""
    return _aeq(a, b, {}, {}, 0)


def _aeq(a: Term, b: Term, enva: dict[str, int], envb: dict[str, int], depth: int) -> bool:
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
            enva2 = dict(enva)
            envb2 = dict(envb)
            enva2[x] = depth
            envb2[y] = depth
            return _aeq(ba, bb, enva2, envb2, depth + 1)
    labels = _LABELS[type(a)]
    if labels(a) != labels(b):
        return False
    for ka, kb in zip(children(a), children(b)):
        if not _aeq(ka, kb, enva, envb, depth):
            return False
    return True


def rename_binders(t: Term, prefix: str = "v") -> Term:
    """Rename every binder to prefix+index, preorder. Structure-preserving
    alpha-renaming; only safe on closed terms."""
    if free_vars(t):
        raise ValueError("rename_binders needs a closed term")
    counter = [0]

    def go(t: Term, env: dict[str, str]) -> Term:
        match t:
            case Var(name):
                return Var(env[name])
            case Lam(name, annot, body):
                counter[0] += 1
                new = f"{prefix}{counter[0]}"
                env2 = dict(env)
                env2[name] = new
                return Lam(new, annot, go(body, env2))
        kids = []
        for kid in children(t):
            kids.append(go(kid, env))
        return rebuild(t, kids)

    return go(t, {})


def term_size(t: Term) -> int:
    n = 1
    for kid in children(t):
        n += term_size(kid)
    return n


# ---------------------------------------------------------------------------
# Printing


_ATOMIC = (Var, TT, FF, NatLit, Pair)


def pretty(t: Term, memo: dict[int, str] | None = None) -> str:
    """The source text of t. A printer that shows many terms sharing
    subterms passes one `memo` (id of a term -> its text) to every call, so
    each node is printed once; the caller keeps those terms alive."""
    if memo is not None and (s := memo.get(id(t))) is not None:
        return s
    match t:
        case Var(name):
            return name
        case TT() | FF():
            return KEYWORD_OF[type(t)]
        case NatLit(n):
            return str(n)
        case Lam(name, annot, body):
            s = f"lam {name} : {pretty_type(annot)} . {pretty(body, memo)}"
        case App(fn, arg):
            fn_s = pretty(fn, memo) if isinstance(fn, (App,) + _ATOMIC) else _atom(fn, memo)
            s = f"{fn_s} {_atom(arg, memo)}"
        case Pair(a, b):
            s = f"({pretty(a, memo)}, {pretty(b, memo)})"
        case Fst(arg) | Snd(arg) | Unbox(arg):
            s = f"{KEYWORD_OF[type(t)]} {_atom(arg, memo)}"
        case If(c, a, b):
            s = f"if {pretty(c, memo)} then {pretty(a, memo)} else {pretty(b, memo)}"
        case BoxT(grade, body):
            s = f"box[{grade.instance.format(grade)}] {_atom(body, memo)}"
        case _:
            raise TypeError(f"not a term: {t!r}")
    if memo is not None:
        memo[id(t)] = s
    return s


def _atom(t: Term, memo: dict[int, str] | None) -> str:
    if isinstance(t, _ATOMIC):
        return pretty(t, memo)
    return f"({pretty(t, memo)})"


def pretty_value(v: Term) -> str:
    """The same as pretty: values are terms. The benchmark's check-corpus
    workload still prints its expected values through this name. It is a
    function of its own, not `pretty_value = pretty`, because the
    benchmark's tracer keys functions by identity and would then report
    every pretty call under this name."""
    return pretty(v)


def pretty_type(ty: Type) -> str:
    match ty:
        case Bool() | Nat():
            return KEYWORD_OF[type(ty)]
        case Prod(left, right):
            ls = _type_factor(left) if isinstance(left, (Prod, Arrow)) else pretty_type(left)
            rs = _type_factor(right) if isinstance(right, Arrow) else pretty_type(right)
            return f"{ls} * {rs}"
        case Arrow(dom, cod, latent):
            ds = _type_factor(dom) if isinstance(dom, Arrow) else pretty_type(dom)
            arrow = "->" if latent is None else f"-[{latent.instance.format(latent)}]->"
            return f"{ds} {arrow} {pretty_type(cod)}"
        case Box(grade, body):
            bs = pretty_type(body) if isinstance(body, (Bool, Nat, Box)) else _type_factor(body)
            return f"Box[{grade.instance.format(grade)}] {bs}"
    raise TypeError(f"not a type: {ty!r}")


def _type_factor(ty: Type) -> str:
    return f"({pretty_type(ty)})"


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
