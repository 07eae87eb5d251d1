"""Surface syntax for the resource-bounded lambda calculus: type, term, and
value ASTs, a recursive-descent parser, a printer that round-trips through
the parser, capture-avoiding substitution, and alpha-equivalence.

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

from dataclasses import dataclass

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


class Value:
    pass


@dataclass(frozen=True)
class VLam(Value):
    name: str
    annot: Type
    body: Term


@dataclass(frozen=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True)
class VTT(Value):
    pass


@dataclass(frozen=True)
class VFF(Value):
    pass


@dataclass(frozen=True)
class VNat(Value):
    value: int


@dataclass(frozen=True)
class VBox(Value):
    grade: LatticeElement
    value: Value


def embed(v: Value) -> Term:
    """Every value is a term."""
    match v:
        case VLam(name, annot, body):
            return Lam(name, annot, body)
        case VPair(a, b):
            return Pair(embed(a), embed(b))
        case VTT():
            return TT()
        case VFF():
            return FF()
        case VNat(n):
            return NatLit(n)
        case VBox(grade, inner):
            return BoxT(grade, embed(inner))
    raise TypeError(f"not a value: {v!r}")


def to_value(t: Term) -> Value | None:
    """The value a term denotes syntactically, or None for non-values."""
    match t:
        case Lam(name, annot, body):
            return VLam(name, annot, body)
        case Pair(a, b):
            va, vb = to_value(a), to_value(b)
            if va is not None and vb is not None:
                return VPair(va, vb)
            return None
        case TT():
            return VTT()
        case FF():
            return VFF()
        case NatLit(n):
            return VNat(n)
        case BoxT(grade, body):
            vb = to_value(body)
            return None if vb is None else VBox(grade, vb)
    return None


def is_value(t: Term) -> bool:
    return to_value(t) is not None


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset({name})
        case Lam(name, _, body):
            return free_vars(body) - {name}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Pair(a, b):
            return free_vars(a) | free_vars(b)
        case Fst(arg) | Snd(arg) | Unbox(arg):
            return free_vars(arg)
        case If(c, a, b):
            return free_vars(c) | free_vars(a) | free_vars(b)
        case BoxT(_, body):
            return free_vars(body)
        case _:
            return frozenset()


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789").rstrip("_") or "x"
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


def substitute(t: Term, name: str, v: Value) -> Term:
    """Capture-avoiding substitution t[name := v]. Binders shadowing `name`
    block the substitution; binders that would capture a free variable of v
    are renamed (unreachable for closed v, kept for safety)."""
    replacement = embed(v)
    return _subst(t, name, replacement, free_vars(replacement))


def _subst(t: Term, x: str, r: Term, fv_r: frozenset[str]) -> Term:
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
        case App(fn, arg):
            return App(_subst(fn, x, r, fv_r), _subst(arg, x, r, fv_r))
        case Pair(a, b):
            return Pair(_subst(a, x, r, fv_r), _subst(b, x, r, fv_r))
        case Fst(arg):
            return Fst(_subst(arg, x, r, fv_r))
        case Snd(arg):
            return Snd(_subst(arg, x, r, fv_r))
        case If(c, a, b):
            return If(_subst(c, x, r, fv_r), _subst(a, x, r, fv_r), _subst(b, x, r, fv_r))
        case BoxT(grade, body):
            return BoxT(grade, _subst(body, x, r, fv_r))
        case Unbox(arg):
            return Unbox(_subst(arg, x, r, fv_r))
        case _:
            return t


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables.
    Annotations and grades must match exactly."""
    return _aeq(a, b, {}, {}, 0)


def _aeq(a: Term, b: Term, enva: dict[str, int], envb: dict[str, int], depth: int) -> bool:
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
        case (App(f1, a1), App(f2, a2)):
            return _aeq(f1, f2, enva, envb, depth) and _aeq(a1, a2, enva, envb, depth)
        case (Pair(x1, y1), Pair(x2, y2)):
            return _aeq(x1, x2, enva, envb, depth) and _aeq(y1, y2, enva, envb, depth)
        case (Fst(t1), Fst(t2)) | (Snd(t1), Snd(t2)) | (Unbox(t1), Unbox(t2)):
            return _aeq(t1, t2, enva, envb, depth)
        case (If(c1, t1, e1), If(c2, t2, e2)):
            return (
                _aeq(c1, c2, enva, envb, depth)
                and _aeq(t1, t2, enva, envb, depth)
                and _aeq(e1, e2, enva, envb, depth)
            )
        case (BoxT(g1, t1), BoxT(g2, t2)):
            return g1 == g2 and _aeq(t1, t2, enva, envb, depth)
        case (TT(), TT()) | (FF(), FF()):
            return True
        case (NatLit(m), NatLit(n)):
            return m == n
    return False


def alpha_eq_value(a: Value, b: Value) -> bool:
    return alpha_eq(embed(a), embed(b))


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
            case App(fn, arg):
                return App(go(fn, env), go(arg, env))
            case Pair(a, b):
                return Pair(go(a, env), go(b, env))
            case Fst(arg):
                return Fst(go(arg, env))
            case Snd(arg):
                return Snd(go(arg, env))
            case If(c, a, b):
                return If(go(c, env), go(a, env), go(b, env))
            case BoxT(grade, body):
                return BoxT(grade, go(body, env))
            case Unbox(arg):
                return Unbox(go(arg, env))
            case _:
                return t

    return go(t, {})


def term_size(t: Term) -> int:
    match t:
        case Lam(_, _, body) | BoxT(_, body):
            return 1 + term_size(body)
        case App(a, b) | Pair(a, b):
            return 1 + term_size(a) + term_size(b)
        case Fst(arg) | Snd(arg) | Unbox(arg):
            return 1 + term_size(arg)
        case If(c, a, b):
            return 1 + term_size(c) + term_size(a) + term_size(b)
        case _:
            return 1


# ---------------------------------------------------------------------------
# Printing


_ATOMIC = (Var, TT, FF, NatLit, Pair)


def pretty(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case Lam(name, annot, body):
            return f"lam {name} : {pretty_type(annot)} . {pretty(body)}"
        case App(fn, arg):
            fn_s = pretty(fn) if isinstance(fn, (App,) + _ATOMIC) else _atom(fn)
            return f"{fn_s} {_atom(arg)}"
        case Pair(a, b):
            return f"({pretty(a)}, {pretty(b)})"
        case Fst(arg):
            return f"fst {_atom(arg)}"
        case Snd(arg):
            return f"snd {_atom(arg)}"
        case If(c, a, b):
            return f"if {pretty(c)} then {pretty(a)} else {pretty(b)}"
        case TT():
            return "tt"
        case FF():
            return "ff"
        case NatLit(n):
            return str(n)
        case BoxT(grade, body):
            return f"box[{grade.instance.format(grade)}] {_atom(body)}"
        case Unbox(arg):
            return f"unbox {_atom(arg)}"
    raise TypeError(f"not a term: {t!r}")


def _atom(t: Term) -> str:
    if isinstance(t, _ATOMIC):
        return pretty(t)
    return f"({pretty(t)})"


def pretty_value(v: Value) -> str:
    return pretty(embed(v))


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

    def parse_raw_literal(self):
        tok = self.peek()
        if tok.kind == "NAT":
            self.next()
            return int(tok.text)
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
            self.next()
            return NatLit(int(tok.text))
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
