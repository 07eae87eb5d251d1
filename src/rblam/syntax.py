"""Surface syntax for the resource-bounded lambda calculus: type and term
ASTs, a recursive-descent parser, a printer that round-trips through the
parser, capture-avoiding substitution, and alpha-equivalence. Values are the
terms in normal form (`is_value`); there is no separate value AST.

The structure-only walks (free variables, substitution, alpha-equivalence,
renaming, size) visit subterms through one `children`/`rebuild` pair, read
off each node class's dataclass fields once at import, and keep only their
`Var` and `Lam` binder cases.

Terms are immutable and may share subterms. Each node keeps its free
variables once computed, and substituting a closed value shares every
subterm where the name is not free, so it rebuilds only the paths down to
the name's occurrences. A printer of many terms that share subterms (the
evaluation and derivation traces) passes one memo to `pretty` and prints
each node once.

Grammar (whitespace-insensitive, `#` line comments):

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

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Sequence

from rblam.lattice import LatticeElement, LatticeError, LatticeInstance


# ---------------------------------------------------------------------------
# ASTs


class Type:
    pass


@dataclass(frozen=True)
class Bool(Type):
    pass


@dataclass(frozen=True)
class Nat(Type):
    pass


@dataclass(frozen=True)
class Prod(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class Arrow(Type):
    dom: Type
    cod: Type
    latent: LatticeElement | None = None


@dataclass(frozen=True)
class Box(Type):
    grade: LatticeElement
    body: Type


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    name: str
    annot: Type
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True)
class If(Term):
    cond: Term
    then: Term
    other: Term


@dataclass(frozen=True)
class TT(Term):
    pass


@dataclass(frozen=True)
class FF(Term):
    pass


@dataclass(frozen=True)
class NatLit(Term):
    value: int


@dataclass(frozen=True)
class BoxT(Term):
    grade: LatticeElement
    body: Term


@dataclass(frozen=True)
class Unbox(Term):
    arg: Term


# ---------------------------------------------------------------------------
# One traversal: every node class lists its labels (name, annotation, grade,
# literal) before its subterms, so its children and its rebuild are read off
# its dataclass fields once, here.


def _getter(names: list[str]) -> Callable[[Term], tuple]:
    if not names:
        return lambda t: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names)


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


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t. Terms are immutable, so each node keeps its
    set once computed, in an attribute set past the frozen dataclass (no
    per-instance dict is created). A node shares a child's set whenever that
    set is the answer."""
    fv = getattr(t, "_fv", None)
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
    object.__setattr__(t, "_fv", fv)
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
        case Lam(name, annot, body):
            s = f"lam {name} : {pretty_type(annot)} . {pretty(body, memo)}"
        case App(fn, arg):
            fn_s = pretty(fn, memo) if isinstance(fn, (App,) + _ATOMIC) else _atom(fn, memo)
            s = f"{fn_s} {_atom(arg, memo)}"
        case Pair(a, b):
            s = f"({pretty(a, memo)}, {pretty(b, memo)})"
        case Fst(arg):
            s = f"fst {_atom(arg, memo)}"
        case Snd(arg):
            s = f"snd {_atom(arg, memo)}"
        case If(c, a, b):
            s = f"if {pretty(c, memo)} then {pretty(a, memo)} else {pretty(b, memo)}"
        case TT():
            return "tt"
        case FF():
            return "ff"
        case NatLit(n):
            return str(n)
        case BoxT(grade, body):
            s = f"box[{grade.instance.format(grade)}] {_atom(body, memo)}"
        case Unbox(arg):
            s = f"unbox {_atom(arg, memo)}"
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
        case Bool():
            return "Bool"
        case Nat():
            return "Nat"
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


_KEYWORDS = {
    "lam", "tt", "ff", "if", "then", "else", "fst", "snd", "box", "unbox",
    "Bool", "Nat", "Box",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NAT keyword or a symbol
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("NAT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, text, line, start_col))
            col += j - i
            i = j
            continue
        if ch == "-":
            if i + 1 < n and source[i + 1] == "[":
                tokens.append(_Token("-[", "-[", line, start_col))
                i += 2
                col += 2
                continue
            if i + 1 < n and source[i + 1] == ">":
                tokens.append(_Token("->", "->", line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError("stray '-'", line, start_col)
        if ch == "]":
            if i + 2 < n and source[i + 1 : i + 3] == "->":
                tokens.append(_Token("]->", "]->", line, start_col))
                i += 3
                col += 3
                continue
            tokens.append(_Token("]", "]", line, start_col))
            i += 1
            col += 1
            continue
        if ch in "().,:*[":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], inst: LatticeInstance):
        self.tokens = tokens
        self.pos = 0
        self.inst = inst

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # literals ------------------------------------------------------------

    def natural(self) -> int:
        """The value of the NAT token at the cursor. The tokenizer takes every
        Unicode digit, and int() refuses some of them (superscripts) and
        numerals of more than 4300 digits."""
        tok = self.next()
        try:
            return int(tok.text)
        except ValueError:
            if tok.text.isdecimal():
                self.fail(f"natural literal of {len(tok.text)} digits is too long", tok)
            self.fail(f"bad natural literal {tok.text!r}", tok)

    def parse_raw_literal(self):
        tok = self.peek()
        if tok.kind == "NAT":
            return self.natural()
        if tok.kind == "IDENT":
            self.next()
            return tok.text
        if tok.kind == "(":
            self.next()
            parts = [self.parse_raw_literal()]
            while self.peek().kind == ",":
                self.next()
                parts.append(self.parse_raw_literal())
            self.expect(")")
            return tuple(parts)
        self.fail(f"expected a lattice literal, found {tok.text!r}")

    def parse_element(self) -> LatticeElement:
        tok = self.peek()
        lit = self.parse_raw_literal()
        try:
            return self.inst.from_literal(lit)
        except LatticeError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    # types ---------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_btype()
        tok = self.peek()
        if tok.kind == "->":
            self.next()
            return Arrow(left, self.parse_type(), None)
        if tok.kind == "-[":
            self.next()
            latent = self.parse_element()
            self.expect("]->")
            return Arrow(left, self.parse_type(), latent)
        return left

    def parse_btype(self) -> Type:
        left = self.parse_type_factor()
        if self.peek().kind == "*":
            self.next()
            return Prod(left, self.parse_btype())
        return left

    def parse_type_factor(self) -> Type:
        tok = self.peek()
        if tok.kind == "Bool":
            self.next()
            return Bool()
        if tok.kind == "Nat":
            self.next()
            return Nat()
        if tok.kind == "Box":
            self.next()
            self.expect("[")
            grade = self.parse_element()
            self.expect("]")
            return Box(grade, self.parse_type_factor())
        if tok.kind == "(":
            self.next()
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {tok.text or 'end of input'!r}")

    # terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        if self.peek().kind == "lam":
            self.next()
            name = self.expect("IDENT").text
            self.expect(":")
            annot = self.parse_type()
            self.expect(".")
            return Lam(name, annot, self.parse_term())
        return self.parse_app()

    _ATOM_START = {"tt", "ff", "NAT", "IDENT", "(", "fst", "snd", "if", "box", "unbox"}

    def parse_app(self) -> Term:
        term = self.parse_atom()
        while self.peek().kind in self._ATOM_START:
            term = App(term, self.parse_atom())
        return term

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "tt":
            self.next()
            return TT()
        if tok.kind == "ff":
            self.next()
            return FF()
        if tok.kind == "NAT":
            return NatLit(self.natural())
        if tok.kind == "IDENT":
            self.next()
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            first = self.parse_term()
            if self.peek().kind == ",":
                self.next()
                second = self.parse_term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        if tok.kind == "fst":
            self.next()
            return Fst(self.parse_atom())
        if tok.kind == "snd":
            self.next()
            return Snd(self.parse_atom())
        if tok.kind == "if":
            self.next()
            cond = self.parse_term()
            self.expect("then")
            then = self.parse_term()
            self.expect("else")
            return If(cond, then, self.parse_term())
        if tok.kind == "box":
            self.next()
            self.expect("[")
            grade = self.parse_element()
            self.expect("]")
            return BoxT(grade, self.parse_atom())
        if tok.kind == "unbox":
            self.next()
            return Unbox(self.parse_atom())
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")


def parse(source: str, inst: LatticeInstance) -> Term:
    """Parse a program against a lattice instance (literals are checked
    eagerly). Raises ParseError with line/column on malformed input."""
    parser = _Parser(_tokenize(source), inst)
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"trailing input starting at {tok.text!r}", tok)
    return term


def parse_type(source: str, inst: LatticeInstance) -> Type:
    parser = _Parser(_tokenize(source), inst)
    ty = parser.parse_type()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"trailing input starting at {tok.text!r}", tok)
    return ty


def parse_literal_text(source: str, inst: LatticeInstance) -> LatticeElement:
    """Parse a standalone lattice literal such as '3' or '(1,2,0)'."""
    parser = _Parser(_tokenize(source), inst)
    el = parser.parse_element()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"trailing input starting at {tok.text!r}", tok)
    return el
