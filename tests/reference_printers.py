"""The term printer and the type printer as they were before one precedence
table set every parenthesis, kept as the reference for `pretty` and for the
trace text. Each prints every node afresh."""

from rblam.syntax import App, Arrow, Bool, Box, BoxT, FF, Fst, If, Lam, Nat, NatLit, Pair, Prod, Snd, TT, Unbox, Var

_ATOMIC = (Var, TT, FF, NatLit, Pair)


def reference_pretty(t):
    match t:
        case Var(name):
            return name
        case TT():
            return "tt"
        case FF():
            return "ff"
        case NatLit(n):
            return str(n)
        case Lam(name, annot, body):
            return f"lam {name} : {reference_pretty_type(annot)} . {reference_pretty(body)}"
        case App(fn, arg):
            fn_s = reference_pretty(fn) if isinstance(fn, (App,) + _ATOMIC) else reference_atom(fn)
            return f"{fn_s} {reference_atom(arg)}"
        case Pair(a, b):
            return f"({reference_pretty(a)}, {reference_pretty(b)})"
        case Fst(arg):
            return f"fst {reference_atom(arg)}"
        case Snd(arg):
            return f"snd {reference_atom(arg)}"
        case Unbox(arg):
            return f"unbox {reference_atom(arg)}"
        case If(c, a, b):
            return f"if {reference_pretty(c)} then {reference_pretty(a)} else {reference_pretty(b)}"
        case BoxT(grade, body):
            return f"box[{grade.instance.format(grade)}] {reference_atom(body)}"
    raise TypeError(f"not a term: {t!r}")


def reference_atom(t):
    return reference_pretty(t) if isinstance(t, _ATOMIC) else f"({reference_pretty(t)})"


def reference_pretty_type(ty):
    match ty:
        case Bool():
            return "Bool"
        case Nat():
            return "Nat"
        case Prod(left, right):
            ls = reference_factor(left) if isinstance(left, (Prod, Arrow)) else reference_pretty_type(left)
            rs = reference_factor(right) if isinstance(right, Arrow) else reference_pretty_type(right)
            return f"{ls} * {rs}"
        case Arrow(dom, cod, latent):
            ds = reference_factor(dom) if isinstance(dom, Arrow) else reference_pretty_type(dom)
            arrow = "->" if latent is None else f"-[{latent.instance.format(latent)}]->"
            return f"{ds} {arrow} {reference_pretty_type(cod)}"
        case Box(grade, body):
            bs = reference_pretty_type(body) if isinstance(body, (Bool, Nat, Box)) else reference_factor(body)
            return f"Box[{grade.instance.format(grade)}] {bs}"
    raise TypeError(f"not a type: {ty!r}")


def reference_factor(ty):
    return f"({reference_pretty_type(ty)})"
