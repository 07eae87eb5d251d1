"""The typing, evaluation and model rule sets as tables by node class: each
table covers exactly the term node classes, a class outside it is refused
with the rule set's own error, and a rule rejects a term with the same text
whether its premises are derived through the table or given as kids."""

import pytest

from rblam import interp, typecheck
from rblam.interp import FuelExhausted, Stuck, evaluate
from rblam.lattice import NAT
from rblam.model import DenModel
from rblam.syntax import FF, Fst, Lam, NatLit, Snd, TT, Term, Var, children, parse
from rblam.typecheck import Context, DeltaProfile, GradeExceeded, Mode, TypingError, derive, synthesize

D = DeltaProfile.default(NAT)
NODE_CLASSES = set(Term.__subclasses__())
TABLES = {"typing": typecheck.RULES, "evaluation": interp.RULES, "model": DenModel.CLAUSES}


class Stray(Var):
    """A subclass of a node class. The tables dispatch on a node's exact
    class, as syntax.children does, so it has no rule of its own; it is not
    a direct Term subclass, so Term.__subclasses__() does not list it."""

    __slots__ = ()


@pytest.mark.parametrize("name", TABLES)
def test_keys_are_the_term_node_classes(name):
    assert set(TABLES[name]) == NODE_CLASSES


def test_evaluator_sends_the_value_leaves_to_one_handler():
    assert len({interp.RULES[cls] for cls in (Lam, TT, FF, NatLit)}) == 1


def test_twin_rules_share_one_handler():
    for table in TABLES.values():
        assert table[TT] is table[FF]
        assert table[Fst] is table[Snd]


REFUSALS = {
    "typing": (lambda t: derive(Context(), t, Mode.SOUND, D, NAT), TypingError, "cannot type x"),
    "evaluation": (lambda t: evaluate(t, D), Stuck, "no rule applies to x"),
    "model": (lambda t: DenModel(NAT, D).denote(t, {"x": True}), TypeError, "no interpretation clause for x"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_class_outside_the_table_gets_the_refusing_rule(name):
    run, error, message = REFUSALS[name]
    with pytest.raises(error) as exc:
        run(Stray("x"))
    assert str(exc.value) == message
    assert Stray not in TABLES[name]


def test_refusing_evaluation_rule_spends_its_fuel_first():
    with pytest.raises(FuelExhausted):
        evaluate(Stray("x"), D, fuel=0)
    with pytest.raises(Stuck, match="^unbound variable 'x': term is not closed$"):
        evaluate(Var("x"), D)


def kid_derivations(ctx, t, mode):
    """The derivations of t's immediate subterms, each in its own context."""
    if isinstance(t, Lam):
        return (derive(ctx.extend(t.name, t.annot), t.body, mode, D, NAT),)
    return tuple(derive(ctx, kid, mode, D, NAT) for kid in children(t))


@pytest.mark.parametrize(
    "src, modes, error, message",
    [
        ("x", Mode, TypingError, "unbound variable 'x'"),
        ("tt ff", Mode, TypingError, "cannot apply a term of type Bool: not an arrow"),
        ("(lam x : Bool . x) 3", Mode, TypingError, "argument type Nat does not match domain Bool"),
        ("fst tt", Mode, TypingError, "fst of a non-pair type Bool"),
        ("snd 3", Mode, TypingError, "snd of a non-pair type Nat"),
        ("if 3 then tt else ff", Mode, TypingError, "condition has type Nat, expected Bool"),
        ("if tt then tt else 3", Mode, TypingError, "branch types Bool and Nat do not unify"),
        ("unbox tt", Mode, TypingError, "unbox of a non-box type Bool"),
        ("box[0] ((lam x : Bool . x) tt)", Mode, GradeExceeded, "bound 1 exceeds grade 0"),
        ("lam f : Bool -[1]-> Bool . f tt", [Mode.PAPER], TypingError,
         "latent arrow annotations are not allowed in paper mode"),
    ],
)
def test_rejection_reads_the_same_with_recursive_or_given_premises(src, modes, error, message):
    term = parse(src, NAT)
    for mode in modes:
        with pytest.raises(error) as recursive:
            synthesize(Context(), term, NAT.element(100), mode, D)
        kids = kid_derivations(Context(), term, mode)
        with pytest.raises(error) as given:
            derive(Context(), term, mode, D, NAT, kids)
        assert str(recursive.value) == str(given.value) == message, mode
