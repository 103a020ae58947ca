"""Ground first-order terms and atoms, with a total order.

The order is: integers first, then symbols, then compound terms
(by functor, then arity, then arguments left to right), then lists
(by length, then elements). It is deterministic and total on ground
terms, which is all the evaluator ever compares.

Terms and atoms are immutable and hashed by their fields, like frozen
dataclasses, but each computes its hash once, when it is built, and
keeps it: the engines hash the same atoms over and over in sets and
index buckets, and a compound hash would otherwise recurse into every
argument each time. Equality is the dataclass field comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Int:
    value: int
    _hash: int = field(repr=False, compare=False)

    def __init__(self, value):
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True, init=False)
class Symbol:
    name: str
    _hash: int = field(repr=False, compare=False)

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True, init=False)
class Compound:
    functor: str
    args: tuple
    _hash: int = field(repr=False, compare=False)

    def __init__(self, functor, args):
        _set(self, "functor", functor)
        _set(self, "args", args)
        _set(self, "_hash", hash((functor, args)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True, init=False)
class ListTerm:
    elements: tuple
    _hash: int = field(repr=False, compare=False)

    def __init__(self, elements):
        _set(self, "elements", elements)
        _set(self, "_hash", hash((elements,)))

    def __hash__(self):
        return self._hash


Term = Union[Int, Symbol, Compound, ListTerm]


def term_key(t):
    """Sort key realizing the total order on ground terms."""
    if isinstance(t, Int):
        return (0, t.value)
    if isinstance(t, Symbol):
        return (1, t.name)
    if isinstance(t, Compound):
        return (2, t.functor, len(t.args), tuple(term_key(a) for a in t.args))
    if isinstance(t, ListTerm):
        return (3, len(t.elements), tuple(term_key(e) for e in t.elements))
    raise TypeError(f"not a ground term: {t!r}")


def term_sorted(terms):
    return sorted(terms, key=term_key)


def term_to_str(t):
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Symbol):
        return t.name
    if isinstance(t, Compound):
        inner = ",".join(term_to_str(a) for a in t.args)
        return f"{t.functor}({inner})"
    if isinstance(t, ListTerm):
        inner = ",".join(term_to_str(e) for e in t.elements)
        return f"[{inner}]"
    raise TypeError(f"not a ground term: {t!r}")


@dataclass(frozen=True, slots=True, init=False)
class Atom:
    pred: str
    args: tuple
    _hash: int = field(repr=False, compare=False)

    def __init__(self, pred, args):
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "_hash", hash((pred, args)))

    def __hash__(self):
        return self._hash


def atom_key(a: Atom):
    return (a.pred, len(a.args), tuple(term_key(t) for t in a.args))


def atom_sorted(atoms):
    return sorted(atoms, key=atom_key)


def atom_to_str(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(term_to_str(t) for t in a.args)})"
