"""Surface syntax.

Programs are lists of clauses (`Head.` or `Head :- B1, ..., Bn.`),
`%` line comments, and table directives:

    :- table p(m1, ..., mn).      modes: index (+, _, nt), min, max, all,
                                         lattice(Name/3), po(Name/2)
    :- table p(lattice(_, ..., Name/3)).   spread form: underscores mark
                                           the indexed argument positions
    :- table p/N.                 plain tabling, all arguments indexed

Predicates named by lattice/po modes must be defined by ground facts
(they are extracted into the program's join/order relations and do not
take part in evaluation) or name a builtin arithmetic join. In a clause,
each `_` is a variable of its own, as in Prolog. Clauses are checked
for range restriction: every variable in a head or builtin must be
bound by an earlier call, or by an earlier `is` output. No term may
nest more than MAX_TERM_DEPTH lists, compounds or operators deep, and
no integer may have more than MAX_INT_DIGITS digits.

Each token carries its offset in the text; an error's line and column
are worked out from that offset only when the error is raised.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ArityError, ParseError, RangeRestrictionError, UnsupportedModeError
from .lattice import BUILTIN_JOINS
from .program import (
    INDEX,
    Builtin,
    Call,
    Clause,
    Mode,
    Program,
    Var,
    clause_to_str,
    is_ground,
    pattern_vars,
    var_to_str,
)
from .terms import MAX_INT_DIGITS, Compound, Int, ListTerm, Symbol

# Deeper terms are refused: the engines compare and hash terms
# recursively, and Python's recursion limit gives out a few hundred
# levels down.
MAX_TERM_DEPTH = 100
_REJECTED_MODES = frozenset({"first", "last", "sum"})
_SIMPLE_MODES = {"index": INDEX, "nt": INDEX, "min": Mode("min"),
                 "max": Mode("max"), "all": Mode("all")}
_COMPARE_OPS = frozenset({"=", "<", "=<", ">", ">="})
_RELATION_ARITY = {"lattice": 3, "po": 2}  # of the relation each such mode names

_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|%[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<punct>:-|=<|>=|[()\[\],.=<>+\-*/])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)
_TOO_DEEP = f"term nested deeper than {MAX_TERM_DEPTH} levels"


# kind: "int", "ident", "var", "end", or a punctuation mark's own text;
# at: the token's offset in the program text
_Tok = namedtuple("_Tok", "kind value at")


def _error(text, at, message, cls=ParseError):
    """`cls(message)` at offset `at` of `text`, with its line and column."""
    line_start = text.rfind("\n", 0, at) + 1
    return cls(message, text.count("\n", 0, line_start) + 1, at - line_start + 1)


def _tokenize(text):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        value = m.group()
        if kind == "punct":
            kind = value
        elif kind == "bad":
            raise _error(text, m.start(), f"unexpected character {value!r}")
        elif kind == "int" and len(value) > MAX_INT_DIGITS:
            raise _error(text, m.start(), f"integer longer than {MAX_INT_DIGITS} digits")
        toks.append(_Tok(kind, value, m.start()))
    toks.append(_Tok("end", "", len(text)))
    return toks


def _term_depth(term):
    """How many lists and compounds nest in a term, counted iteratively."""
    depth = 0
    stack = [(term, 0)]
    while stack:
        t, d = stack.pop()
        if isinstance(t, Compound):
            children = t.args
        elif isinstance(t, ListTerm):
            children = t.elements
        else:
            continue
        d += 1
        depth = max(depth, d)
        stack.extend((c, d) for c in children)
    return depth


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.open = 0  # expressions and prefix minuses the parser is inside
        self.anonymous = 0  # the `_`s met so far in the current clause

    def error(self, message, tok, cls=ParseError):
        return _error(self.text, tok.at, message, cls)

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, kind):
        return self.toks[self.pos].kind == kind

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            wanted = kind if kind.isalpha() else repr(kind)
            raise self.error(f"expected {wanted}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def comma_list(self, item):
        """One or more `item()`s, separated by commas."""
        items = [item()]
        while self.at(","):
            self.pos += 1
            items.append(item())
        return items

    # --- terms and expressions ---------------------------------------

    def expr(self):
        return self.deeper(self._expr)

    def _expr(self):
        t = self.mul_expr()
        while self.peek().kind in ("+", "-"):
            op = self.next().value
            t = Compound(op, (t, self.mul_expr()))
        return t

    def mul_expr(self):
        t = self.primary()
        while self.at("*"):
            self.pos += 1
            t = Compound("*", (t, self.primary()))
        return t

    def deeper(self, parse):
        """Run `parse` one level down. The parser recurses once per
        level, so this bounds the nesting before it can exhaust the
        Python stack; `literal` checks the exact depth of the result.
        The two spare levels are the literal itself and its predicate
        call."""
        if self.open > MAX_TERM_DEPTH + 1:
            raise self.error(_TOO_DEEP, self.peek())
        self.open += 1
        try:
            return parse()
        finally:
            self.open -= 1

    def primary(self):
        tok = self.next()
        kind = tok.kind
        if kind == "int":
            return Int(int(tok.value))
        if kind == "-":
            if self.at("int"):
                return Int(-int(self.next().value))
            return Compound("-", (self.deeper(self.primary),))
        if kind == "var":
            if tok.value == "_":
                self.anonymous += 1
                return Var(f"_#{self.anonymous}")
            return Var(tok.value)
        if kind == "(":
            t = self.expr()
            self.expect(")")
            return t
        if kind == "[":
            elems = [] if self.at("]") else self.comma_list(self.expr)
            self.expect("]")
            return ListTerm(tuple(elems))
        if kind == "ident":
            if not self.at("("):
                return Symbol(tok.value)
            self.pos += 1
            args = self.comma_list(self.expr)
            self.expect(")")
            return Compound(tok.value, tuple(args))
        raise self.error(f"expected a term, found {tok.value or 'end of input'!r}", tok)

    # --- literals and clauses ----------------------------------------

    def literal(self):
        tok = self.peek()
        lit = self._literal(tok)
        if any(_term_depth(a) > MAX_TERM_DEPTH for a in lit.args):
            raise self.error(_TOO_DEEP, tok)
        return lit

    def _literal(self, tok):
        lhs = self.expr()
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.value == "is":
            self.pos += 1
            return Builtin("is", (lhs, self.expr()))
        if nxt.kind in _COMPARE_OPS:
            self.pos += 1
            return Builtin(nxt.value, (lhs, self.expr()))
        if isinstance(lhs, Compound):
            return Call(lhs.functor, lhs.args)
        if isinstance(lhs, Symbol):
            return Call(lhs.name, ())
        raise self.error("expected a predicate call or builtin", tok)

    def clause(self):
        tok = self.peek()
        self.anonymous = 0
        head = self.literal()
        if not isinstance(head, Call):
            raise self.error("clause head must be a predicate call", tok)
        body = ()
        if self.at(":-"):
            self.pos += 1
            body = tuple(self.comma_list(self.literal))
        self.expect(".")
        return Clause(head, body)

    # --- directives ---------------------------------------------------

    def directive(self):
        self.expect(":-")
        kw = self.expect("ident")
        if kw.value != "table":
            raise self.error(f"unknown directive {kw.value!r}", kw)
        name_tok = self.expect("ident")
        if self.at("/"):
            self.pos += 1
            modes = (INDEX,) * int(self.expect("int").value)
        else:
            self.expect("(")
            modes = self.comma_list(self.mode_item)
            if isinstance(modes[0], list):  # the spread form, the only mode
                modes = modes[0]
            self.expect(")")
        self.expect(".")
        return name_tok, tuple(modes)

    def mode_item(self):
        """One mode, or the list of modes the spread form stands for."""
        tok = self.next()
        if tok.kind == "+" or tok.value == "_":
            return INDEX
        if tok.kind == "var":
            raise self.error(f"unexpected variable {tok.value!r} in mode", tok)
        if tok.kind != "ident":
            raise self.error(f"expected a mode, found {tok.value or 'end of input'!r}", tok)
        if tok.value in _REJECTED_MODES:
            raise self.error(f"mode {tok.value!r} depends on answer order and is not supported",
                             tok, UnsupportedModeError)
        if tok.value in _SIMPLE_MODES:
            return _SIMPLE_MODES[tok.value]
        if tok.value == "lattice":
            return self.lattice_mode()
        if tok.value == "po":
            self.expect("(")
            name = self.relation_ref(2)
            self.expect(")")
            return Mode("po", name)
        raise self.error(f"unknown mode {tok.value!r}", tok)

    def lattice_mode(self):
        """lattice(Name/3), or the modes that the spread form
        lattice(_, ..., Name/3) stands for, which must be the only mode."""
        first = self.toks[self.pos - 2].kind == "("  # a later mode follows a `,`
        self.expect("(")
        placeholders = 0
        while self.peek().value == "_":
            self.pos += 1
            self.expect(",")
            placeholders += 1
        mode = Mode("lattice", self.relation_ref(3))
        self.expect(")")
        if not placeholders:
            return mode
        if not (first and self.at(")")):
            raise self.error("spread lattice mode must be the only mode", self.peek())
        return [INDEX] * placeholders + [mode]

    def relation_ref(self, arity):
        """A Name/Arity reference inside lattice(...) or po(...)."""
        tok = self.next()
        if tok.kind == "+":
            name = "plus"
        elif tok.kind == "ident":
            name = tok.value
        else:
            raise self.error(
                f"expected a relation name, found {tok.value or 'end of input'!r}", tok)
        self.expect("/")
        got = self.expect("int")
        if int(got.value) != arity:
            raise self.error(f"relation {name} must have arity {arity}", got, ArityError)
        return name

    # --- whole programs -----------------------------------------------

    def program(self):
        clauses = []
        directives = {}
        while not self.at("end"):
            if self.at(":-"):
                name_tok, modes = self.directive()
                if name_tok.value in directives and directives[name_tok.value] != modes:
                    raise self.error(f"conflicting directives for {name_tok.value}", name_tok)
                directives[name_tok.value] = modes
                continue
            clauses.append(self.clause())
        return _finish(clauses, directives)


def _finish(clauses, directives):
    _check_arities(clauses, directives)
    clauses, joins, orders = _extract_relations(clauses, directives)
    for c in clauses:
        _check_range_restriction(c)
    return Program(tuple(clauses), dict(directives), joins, orders)


def _check_arities(clauses, directives):
    seen = {}

    def record(pred, arity):
        if pred in seen and seen[pred] != arity:
            raise ArityError(f"predicate {pred} used with arities {seen[pred]} and {arity}")
        seen[pred] = arity

    for pred, modes in directives.items():
        record(pred, len(modes))
    for c in clauses:
        record(c.head.pred, len(c.head.args))
        for lit in c.body:
            if isinstance(lit, Call):
                record(lit.pred, len(lit.args))


def _extract_relations(clauses, directives):
    """Pull lattice/po fact relations out of the evaluated program."""
    wanted = {}  # name -> arity
    for modes in directives.values():
        for m in modes:
            arity = _RELATION_ARITY.get(m.kind)
            if arity and wanted.setdefault(m.relation, arity) != arity:
                raise ParseError(f"{m.relation} used as both join and order relation")

    joins, orders = {}, {}
    remaining = []
    grouped = {name: [] for name in wanted}
    for c in clauses:
        if c.head.pred in wanted:
            grouped[c.head.pred].append(c)
        else:
            remaining.append(c)

    for name, arity in wanted.items():
        if name in directives:
            raise ParseError(f"relation {name} cannot itself be tabled")
        own = grouped[name]
        if not own:
            if arity == 3 and name in BUILTIN_JOINS:
                continue
            if arity == 3 and name == "plus":
                raise UnsupportedModeError(
                    "builtin join plus is not idempotent and is not supported; "
                    "define plus/3 by facts")
            raise ParseError(f"relation {name}/{arity} is not defined by facts")
        rows = set()
        for c in own:
            if c.body or not all(is_ground(a) for a in c.head.args):
                raise ParseError(f"relation {name}/{arity} must be defined by ground facts")
            rows.add(c.head.args)
        if arity == 3:
            joins[name] = frozenset(rows)
        else:
            orders[name] = frozenset(rows)
    return remaining, joins, orders


def _check_range_restriction(clause):
    def check(names, message):
        free = names - bound
        if free:
            raise RangeRestrictionError(
                f"{message.format(var_to_str(min(free)))} in: {clause_to_str(clause)}")

    bound = set()
    for lit in clause.body:
        if isinstance(lit, Call):
            for a in lit.args:
                bound |= pattern_vars(a)
            continue
        lhs, rhs = lit.args
        if lit.op == "is":
            check(pattern_vars(rhs), "variable {} unbound in arithmetic")
            if isinstance(lhs, Var):
                bound.add(lhs.name)
                continue
        check(pattern_vars(lhs) | pattern_vars(rhs), "variable {} unbound")
    head = set()
    for a in clause.head.args:
        head |= pattern_vars(a)
    check(head, "unbound head variable {}" if clause.body else "non-ground fact {}")


def parse_program(text: str) -> Program:
    return _Parser(text).program()

