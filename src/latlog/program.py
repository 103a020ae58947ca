"""Clause-level syntax: patterns, literals, clauses, programs.

Patterns are ground terms possibly containing variables. Atoms in an
interpretation are always ground; variables only live in clauses.

Every record here is a namedtuple: immutable, and compared field by
field. A `Call` and a `Builtin` meet in a clause body, and the call
`is(X,1)` has the fields of the builtin `X is 1`, so those two compare
their class as well.
"""

from __future__ import annotations

from collections import namedtuple

from .terms import Atom, Compound, ListTerm, term_to_str


# A variable in a pattern: a 1-tuple, where every term is a tagged tuple
# of two or more items (see `terms`), so it never equals a term.
Var = namedtuple("Var", "name")


def var_to_str(name):
    """A variable's name as written. The parser names the n-th `_` of a
    clause `_#n`, which no program can spell, so each is a variable of its own."""
    return "_" if name.startswith("_#") else name


class _OwnKind:
    """Equality of the class and the fields, for a namedtuple subclass."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class Call(_OwnKind, namedtuple("Call", "pred args")):
    """A predicate call, in a head or a body."""

    __slots__ = ()


class Builtin(_OwnKind, namedtuple("Builtin", "op args")):
    """One of: is, =, <, =<, >, >= with exactly two argument patterns."""

    __slots__ = ()


# head: a Call; body: a tuple of Call | Builtin, empty for facts
Clause = namedtuple("Clause", "head body")

# One argument's tabling mode. kind is one of index, min, max, all,
# lattice, po; the last two carry the name of the relation (or builtin
# join) used.
Mode = namedtuple("Mode", "kind relation", defaults=(None,))

INDEX = Mode("index")


class Program(namedtuple("Program", "clauses directives join_relations order_relations")):
    """A parsed program. `directives` maps a predicate to its tuple of
    Modes, `join_relations` a name to its frozenset of (t, t, t) rows,
    and `order_relations` a name to its frozenset of (t, t) rows."""

    __slots__ = ()

    def arities(self):
        """Predicate name -> arity over heads, body calls, and directives."""
        out = {}
        for c in self.clauses:
            out[c.head.pred] = len(c.head.args)
            for lit in c.body:
                if isinstance(lit, Call):
                    out.setdefault(lit.pred, len(lit.args))
        for pred, modes in self.directives.items():
            out.setdefault(pred, len(modes))
        return out

    def predicates(self):
        return frozenset(self.arities())


def pattern_vars(p, acc=None):
    if acc is None:
        acc = set()
    if isinstance(p, Var):
        acc.add(p.name)
    elif isinstance(p, Compound):
        for a in p.args:
            pattern_vars(a, acc)
    elif isinstance(p, ListTerm):
        for e in p.elements:
            pattern_vars(e, acc)
    return acc


def is_ground(p):
    return not pattern_vars(p)


def fact_clause(atom: Atom) -> Clause:
    """Wrap a ground atom as a bodyless clause, for injecting facts."""
    return Clause(Call(atom.pred, atom.args), ())


def pattern_to_str(p):
    if isinstance(p, Var):
        return var_to_str(p.name)
    if isinstance(p, Compound):
        if p.functor in ("+", "-", "*") and len(p.args) == 2:
            return f"({pattern_to_str(p.args[0])} {p.functor} {pattern_to_str(p.args[1])})"
        if p.functor == "-" and len(p.args) == 1:
            return f"-({pattern_to_str(p.args[0])})"
        inner = ",".join(pattern_to_str(a) for a in p.args)
        return f"{p.functor}({inner})"
    if isinstance(p, ListTerm):
        return f"[{','.join(pattern_to_str(e) for e in p.elements)}]"
    return term_to_str(p)


def literal_to_str(lit):
    if isinstance(lit, Call):
        if not lit.args:
            return lit.pred
        return f"{lit.pred}({','.join(pattern_to_str(a) for a in lit.args)})"
    return f"{pattern_to_str(lit.args[0])} {lit.op} {pattern_to_str(lit.args[1])}"


def clause_to_str(c: Clause) -> str:
    head = literal_to_str(c.head)
    if not c.body:
        return f"{head}."
    return f"{head} :- {', '.join(literal_to_str(b) for b in c.body)}."
