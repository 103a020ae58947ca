"""Term representation and the total order underpinning every sort."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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


@given(terms())
def test_hash_is_that_of_the_field_tuple(t):
    # the hash a frozen dataclass would compute, so sets iterate as before
    if isinstance(t, Int):
        assert hash(t) == hash((t.value,))
    elif isinstance(t, Symbol):
        assert hash(t) == hash((t.name,))
    elif isinstance(t, Compound):
        assert hash(t) == hash((t.functor, t.args))
    else:
        assert hash(t) == hash((t.elements,))
    atom = Atom("p", (t, Int(1)))
    assert hash(atom) == hash(("p", (t, Int(1))))
    assert atom == Atom("p", (t, Int(1))) and atom != Atom("q", (t, Int(1)))
