"""Clause-level syntax: patterns, literals, clauses, programs.

Patterns are ground terms possibly containing variables. Atoms in an
interpretation are always ground; variables only live in clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LatlogError
from .terms import Atom, Compound, Int, ListTerm, Symbol, term_to_str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    """A predicate call, in a head or a body."""

    pred: str
    args: tuple


@dataclass(frozen=True)
class Builtin:
    """One of: is, =, <, =<, >, >= with exactly two argument patterns."""

    op: str
    args: tuple


@dataclass(frozen=True)
class Clause:
    head: Call
    body: tuple  # of Call | Builtin; empty for facts


@dataclass(frozen=True)
class Mode:
    """One argument's tabling mode.

    kind is one of index, min, max, all, lattice, po, extnat; the last
    three may carry the name of the relation (or builtin join) used.
    """

    kind: str
    relation: str | None = None


INDEX = Mode("index")
MIN = Mode("min")
MAX = Mode("max")
ALL = Mode("all")


@dataclass(frozen=True)
class Program:
    clauses: tuple
    directives: dict = field(default_factory=dict)       # pred -> tuple[Mode, ...]
    join_relations: dict = field(default_factory=dict)   # name -> frozenset[(t, t, t)]
    order_relations: dict = field(default_factory=dict)  # name -> frozenset[(t, t)]

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


def substitute(p, bindings):
    """Replace variables by their bindings, producing a ground term."""
    if isinstance(p, Var):
        try:
            return bindings[p.name]
        except KeyError:
            raise LatlogError(f"unbound variable {p.name}") from None
    if isinstance(p, Compound):
        return Compound(p.functor, tuple(substitute(a, bindings) for a in p.args))
    if isinstance(p, ListTerm):
        return ListTerm(tuple(substitute(e, bindings) for e in p.elements))
    return p


def _bind(pattern, term, bindings):
    # destructive matching; the caller owns `bindings` and discards it
    # on failure, so partial binds need no undo
    if isinstance(pattern, Var):
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = term
            return True
        return bound == term
    if isinstance(pattern, Compound):
        return (isinstance(term, Compound)
                and term.functor == pattern.functor
                and len(term.args) == len(pattern.args)
                and all(_bind(p, t, bindings)
                        for p, t in zip(pattern.args, term.args)))
    if isinstance(pattern, ListTerm):
        return (isinstance(term, ListTerm)
                and len(term.elements) == len(pattern.elements)
                and all(_bind(p, t, bindings)
                        for p, t in zip(pattern.elements, term.elements)))
    return pattern == term


def match(pattern, term, bindings):
    """One-way matching of a pattern against a ground term.

    Returns the extended bindings, or None if they do not match.
    Already-bound variables must agree with the term.
    """
    out = dict(bindings)
    return out if _bind(pattern, term, out) else None


def match_seq(patterns, terms, bindings):
    out = dict(bindings)
    for p, t in zip(patterns, terms):
        if isinstance(p, Var):  # the common case, inlined from _bind
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = t
            elif bound != t:
                return None
        elif not _bind(p, t, out):
            return None
    return out


def fact_clause(atom: Atom) -> Clause:
    """Wrap a ground atom as a bodyless clause, for injecting facts."""
    return Clause(Call(atom.pred, atom.args), ())


def pattern_to_str(p):
    if isinstance(p, Var):
        return p.name
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
