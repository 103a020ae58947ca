"""Ground first-order terms and atoms, with a total order.

The order is: integers first, then symbols, then compound terms
(by functor, then arity, then arguments left to right), then lists
(by length, then elements). It is deterministic and total on ground
terms, which is all the evaluator ever compares.

Terms and atoms are tuples, so hashing and equality are the tuple's
own and run in C; each class keeps its constructor, and its fields are
properties. A term starts with a tag: Int(5) is (0, 5), Symbol("a") is
(1, "a"), Compound(f, args) is (2, f, args) and ListTerm(es) is
(3, es). So terms of different kinds never compare equal, and on
integers and symbols the tuple order is the term order. A product
lattice value is a plain tuple of terms and frozensets, never equal to
a term, whose first item is an int. Atom(pred, args) is (pred, args):
it equals the answer key with the same fields, which no container
mixes with atoms, and the atom functions below take keys too.
The parser and `is` keep integers within MAX_INT_DIGITS decimal
digits, so that every term can be printed.
"""

from __future__ import annotations

from operator import itemgetter

# No integer may have more decimal digits than this. Printing one takes
# time quadratic in its length, which is why Python refuses to convert
# integers of more than 4300 digits to or from text by default.
MAX_INT_DIGITS = 4000


class Int(tuple):
    __slots__ = ()
    value = property(itemgetter(1))

    def __new__(cls, value):
        return tuple.__new__(cls, (0, value))


class Symbol(tuple):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name):
        return tuple.__new__(cls, (1, name))


class Compound(tuple):
    __slots__ = ()
    functor = property(itemgetter(1))
    args = property(itemgetter(2))

    def __new__(cls, functor, args):
        return tuple.__new__(cls, (2, functor, args))


class ListTerm(tuple):
    __slots__ = ()
    elements = property(itemgetter(1))

    def __new__(cls, elements):
        return tuple.__new__(cls, (3, elements))


def term_key(t):
    """Sort key realizing the total order on ground terms. An integer or
    a symbol is its own key; a compound or a list puts its arity or
    length before the keys of its arguments."""
    tag = t[0]
    if tag < 2:
        return t
    if tag == 2:
        return (2, t[1], len(t[2]), tuple([term_key(a) for a in t[2]]))
    return (3, len(t[1]), tuple([term_key(e) for e in t[1]]))


def term_sorted(terms):
    return sorted(terms, key=term_key)


def term_to_str(t):
    tag = t[0]
    if tag == 0:
        return str(t[1])
    if tag == 1:
        return t[1]
    if tag == 2:
        return f"{t[1]}({','.join(map(term_to_str, t[2]))})"
    if tag == 3:
        return f"[{','.join(map(term_to_str, t[1]))}]"
    raise TypeError(f"not a ground term: {t!r}")


class Atom(tuple):
    __slots__ = ()
    pred = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, pred, args):
        return tuple.__new__(cls, (pred, args))


def atom_key(a):
    return (a[0], len(a[1]), tuple([term_key(t) for t in a[1]]))


def atom_sorted(atoms):
    return sorted(atoms, key=atom_key)


def atom_to_str(a) -> str:
    pred, args = a
    if not args:
        return pred
    return f"{pred}({','.join(map(term_to_str, args))})"
