"""Term representation and the total order underpinning every sort."""

import random

from conftest import field_term_key
from hypothesis import given, settings
from hypothesis import strategies as st

from latlog.program import Var
from latlog.terms import (
    Atom,
    Compound,
    Int,
    ListTerm,
    Symbol,
    atom_sorted,
    atom_to_str,
    term_key,
    term_sorted,
    term_to_str,
)

names = st.sampled_from(["a", "b", "c", "f", "g", "edge"])


def terms(depth=2):
    base = st.one_of(st.integers(-50, 50).map(Int), names.map(Symbol))
    if depth == 0:
        return base
    sub = terms(depth - 1)
    return st.one_of(
        base,
        st.tuples(names, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fa: Compound(fa[0], tuple(fa[1]))),
        st.lists(sub, max_size=3).map(lambda es: ListTerm(tuple(es))),
    )


@given(terms(), terms())
def test_order_total_and_antisymmetric(a, b):
    ka, kb = term_key(a), term_key(b)
    if a == b:
        assert ka == kb
    else:
        assert ka != kb
        assert (ka < kb) != (kb < ka)


@given(terms(), terms(), terms())
@settings(max_examples=300)
def test_order_transitive(a, b, c):
    x, y, z = sorted([a, b, c], key=term_key)
    assert not term_key(y) < term_key(x)
    assert not term_key(z) < term_key(y)
    assert not term_key(z) < term_key(x)


@given(st.lists(terms(), max_size=8))
def test_sorting_is_stable_under_permutation(ts):
    shuffled = ts[:]
    random.Random(7).shuffle(shuffled)
    assert term_sorted(ts) == term_sorted(shuffled)


def test_rank_ints_before_symbols_before_compounds_before_lists():
    ordered = [Int(99), Symbol("a"), Compound("a", (Int(0),)), ListTerm(())]
    assert term_sorted(reversed(ordered)) == ordered


def test_compounds_order_by_functor_then_arity_then_args():
    assert term_key(Compound("f", (Int(2),))) < term_key(Compound("g", (Int(1),)))
    assert term_key(Compound("f", (Int(1),))) < term_key(Compound("f", (Int(1), Int(0))))
    assert (term_key(Compound("f", (Int(1), Int(0))))
            < term_key(Compound("f", (Int(1), Int(2)))))


def test_term_to_str():
    t = Compound("f", (Int(-3), ListTerm((Symbol("a"), Int(1)))))
    assert term_to_str(t) == "f(-3,[a,1])"
    assert term_to_str(ListTerm(())) == "[]"


def test_atom_to_str_zero_arity_prints_bare():
    assert atom_to_str(Atom("p", ())) == "p"
    assert atom_to_str(Atom("p", (Symbol("a"),))) == "p(a)"


def test_atom_sorted_orders_by_pred_then_args():
    atoms = [Atom("q", (Int(1),)), Atom("p", (Int(2),)), Atom("p", (Int(1),))]
    assert [atom_to_str(a) for a in atom_sorted(atoms)] == ["p(1)", "p(2)", "q(1)"]


# each kind's tag, then its fields
LAYOUTS = {Int: (0, "value"), Symbol: (1, "name"), Compound: (2, "functor", "args"),
           ListTerm: (3, "elements")}


@given(terms())
def test_a_term_is_its_tagged_tuple(t):
    tag, *fields = LAYOUTS[type(t)]
    layout = (tag, *(getattr(t, f) for f in fields))
    assert t == layout and hash(t) == hash(layout)
    atom = Atom("p", (t, Int(1)))
    assert atom == ("p", (t, Int(1))) and hash(atom) == hash(("p", (t, Int(1))))
    assert atom.pred == "p" and atom.args == (t, Int(1))
    assert atom != Atom("q", (t, Int(1)))
    if type(t) in (Int, Symbol):
        assert term_key(t) is t


def test_terms_of_different_kinds_are_never_equal():
    # a pattern's variable too: it is a 1-tuple, and every term has two or more items
    lookalikes = [Int(1), Symbol(1), Symbol("f"), Compound("f", ()), ListTerm(()),
                  Compound("f", (Int(1),)), ListTerm((Int(1),)), Var("f"), Var(1)]
    assert len(set(lookalikes)) == len(lookalikes)
    for t in lookalikes[:-2]:
        assert t != Var("f") and Var("f") != t


@given(terms(), terms())
def test_a_product_value_never_equals_a_term(a, b):
    # a product value is a plain tuple of part values: terms or frozensets
    for value in [(a, b), (frozenset((a,)), b), (a, frozenset((b,)))]:
        assert value != a and value != b


@given(st.lists(terms(3), min_size=2, max_size=8))
@settings(max_examples=300)
def test_term_key_orders_as_the_field_key(ts):
    for a in ts:
        for b in ts:
            ka, kb, fa, fb = term_key(a), term_key(b), field_term_key(a), field_term_key(b)
            assert (ka < kb, ka == kb, ka > kb) == (fa < fb, fa == fb, fa > fb)
