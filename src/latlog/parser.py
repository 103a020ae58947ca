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
take part in evaluation) or name a builtin arithmetic join. Clauses are
checked for range restriction: every variable in a head or builtin must
be bound by an earlier call, or by an earlier `is` output. No term may
nest more than MAX_TERM_DEPTH lists, compounds or operators deep, and
no integer may have more than MAX_INT_DIGITS digits.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ArityError, ParseError, RangeRestrictionError, UnsupportedModeError
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
)
from .terms import MAX_INT_DIGITS, Compound, Int, ListTerm, Symbol, term_key, term_to_str

BUILTIN_JOIN_NAMES = frozenset({"min", "max", "max_inf"})
# Deeper terms are refused: the engines compare and hash terms
# recursively, and Python's recursion limit gives out a few hundred
# levels down.
MAX_TERM_DEPTH = 100
_REJECTED_MODES = frozenset({"first", "last", "sum"})
_SIMPLE_MODES = {"index": INDEX, "nt": INDEX, "min": Mode("min"),
                 "max": Mode("max"), "all": Mode("all")}
_COMPARE_OPS = frozenset({"=", "<", "=<", ">", ">="})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<punct>:-|=<|>=|[()\[\],.=<>+\-*/])
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind == "int" and len(value) > MAX_INT_DIGITS:
            raise ParseError(f"integer longer than {MAX_INT_DIGITS} digits",
                             line, pos - line_start + 1)
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, value, line, m.start() - line_start + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = m.start() + value.rindex("\n") + 1
        pos = m.end()
    toks.append(_Tok("end", "", line, pos - line_start + 1))
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


def _too_deep(tok):
    return ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", tok.line, tok.col)


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.open = 0  # expressions and prefix minuses the parser is inside

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_punct(self, value):
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    # --- terms and expressions ---------------------------------------

    def expr(self):
        return self.deeper(self._expr)

    def _expr(self):
        t = self.mul_expr()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().value
            t = Compound(op, (t, self.mul_expr()))
        return t

    def mul_expr(self):
        t = self.primary()
        while self.at_punct("*"):
            self.next()
            t = Compound("*", (t, self.primary()))
        return t

    def deeper(self, parse):
        """Run `parse` one level down. The parser recurses once per
        level, so this bounds the nesting before it can exhaust the
        Python stack; `literal` checks the exact depth of the result.
        The two spare levels are the literal itself and its predicate
        call."""
        if self.open > MAX_TERM_DEPTH + 1:
            raise _too_deep(self.peek())
        self.open += 1
        try:
            return parse()
        finally:
            self.open -= 1

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Int(int(tok.value))
        if tok.kind == "punct" and tok.value == "-":
            self.next()
            nxt = self.peek()
            if nxt.kind == "int":
                self.next()
                return Int(-int(nxt.value))
            return Compound("-", (self.deeper(self.primary),))
        if tok.kind == "var":
            self.next()
            return Var(tok.value)
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            t = self.expr()
            self.expect_punct(")")
            return t
        if tok.kind == "punct" and tok.value == "[":
            self.next()
            elems = []
            if not self.at_punct("]"):
                elems.append(self.expr())
                while self.at_punct(","):
                    self.next()
                    elems.append(self.expr())
            self.expect_punct("]")
            return ListTerm(tuple(elems))
        if tok.kind == "ident":
            self.next()
            if self.at_punct("("):
                self.next()
                args = [self.expr()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.expr())
                self.expect_punct(")")
                return Compound(tok.value, tuple(args))
            return Symbol(tok.value)
        raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                         tok.line, tok.col)

    # --- literals and clauses ----------------------------------------

    def literal(self):
        tok = self.peek()
        lit = self._literal(tok)
        if any(_term_depth(a) > MAX_TERM_DEPTH for a in lit.args):
            raise _too_deep(tok)
        return lit

    def _literal(self, tok):
        lhs = self.expr()
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.value == "is":
            self.next()
            return Builtin("is", (lhs, self.expr()))
        if nxt.kind == "punct" and nxt.value in _COMPARE_OPS:
            self.next()
            return Builtin(nxt.value, (lhs, self.expr()))
        if isinstance(lhs, Compound):
            return Call(lhs.functor, lhs.args)
        if isinstance(lhs, Symbol):
            return Call(lhs.name, ())
        raise ParseError("expected a predicate call or builtin", tok.line, tok.col)

    def clause(self):
        tok = self.peek()
        head = self.literal()
        if not isinstance(head, Call):
            raise ParseError("clause head must be a predicate call", tok.line, tok.col)
        body = []
        if self.at_punct(":-"):
            self.next()
            body.append(self.literal())
            while self.at_punct(","):
                self.next()
                body.append(self.literal())
        self.expect_punct(".")
        return Clause(head, tuple(body))

    # --- directives ---------------------------------------------------

    def directive(self):
        self.expect_punct(":-")
        kw = self.expect("ident")
        if kw.value != "table":
            raise ParseError(f"unknown directive {kw.value!r}", kw.line, kw.col)
        name_tok = self.expect("ident")
        if self.at_punct("/"):
            self.next()
            arity = int(self.expect("int").value)
            modes = (INDEX,) * arity
        else:
            self.expect_punct("(")
            modes = self.mode_list()
            self.expect_punct(")")
        self.expect_punct(".")
        return name_tok, tuple(modes)

    def mode_list(self):
        first, spread = self.mode_item()
        if spread is not None:
            if not self.at_punct(")"):
                tok = self.peek()
                raise ParseError("spread lattice mode must be the only mode", tok.line, tok.col)
            return spread
        modes = [first]
        while self.at_punct(","):
            self.next()
            item, spread = self.mode_item()
            if spread is not None:
                tok = self.peek()
                raise ParseError("spread lattice mode must be the only mode", tok.line, tok.col)
            modes.append(item)
        return modes

    def mode_item(self):
        """One mode; returns (mode, None) or (None, modes) for the spread form."""
        tok = self.next()
        if tok.kind == "punct" and tok.value == "+":
            return INDEX, None
        if tok.kind == "var":
            if tok.value == "_":
                return INDEX, None
            raise ParseError(f"unexpected variable {tok.value!r} in mode", tok.line, tok.col)
        if tok.kind != "ident":
            raise ParseError(f"expected a mode, found {tok.value!r}", tok.line, tok.col)
        if tok.value in _REJECTED_MODES:
            raise UnsupportedModeError(
                f"mode {tok.value!r} depends on answer order and is not supported",
                tok.line, tok.col)
        if tok.value in _SIMPLE_MODES:
            return _SIMPLE_MODES[tok.value], None
        if tok.value == "lattice":
            return self.lattice_mode(tok)
        if tok.value == "po":
            self.expect_punct("(")
            name = self.relation_ref(2)
            self.expect_punct(")")
            return Mode("po", name), None
        raise ParseError(f"unknown mode {tok.value!r}", tok.line, tok.col)

    def lattice_mode(self, tok):
        self.expect_punct("(")
        placeholders = 0
        while True:
            nxt = self.peek()
            if nxt.kind == "var" and nxt.value == "_":
                self.next()
                self.expect_punct(",")
                placeholders += 1
                continue
            name = self.relation_ref(3)
            self.expect_punct(")")
            break
        mode = Mode("lattice", name)
        if placeholders:
            return None, [INDEX] * placeholders + [mode]
        return mode, None

    def relation_ref(self, arity):
        """A Name/Arity reference inside lattice(...) or po(...)."""
        tok = self.next()
        if tok.kind == "punct" and tok.value == "+":
            name = "plus"
        elif tok.kind == "ident":
            name = tok.value
        else:
            raise ParseError(f"expected a relation name, found {tok.value!r}", tok.line, tok.col)
        self.expect_punct("/")
        got = self.expect("int")
        if int(got.value) != arity:
            raise ArityError(f"relation {name} must have arity {arity}", got.line, got.col)
        return name

    # --- whole programs -----------------------------------------------

    def program(self):
        clauses = []
        directives = {}
        while self.peek().kind != "end":
            if self.at_punct(":-"):
                name_tok, modes = self.directive()
                if name_tok.value in directives and directives[name_tok.value] != modes:
                    raise ParseError(f"conflicting directives for {name_tok.value}",
                                     name_tok.line, name_tok.col)
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
            if m.kind == "lattice":
                if wanted.get(m.relation) == 2:
                    raise ParseError(f"{m.relation} used as both join and order relation")
                wanted[m.relation] = 3
            elif m.kind == "po":
                if wanted.get(m.relation) == 3:
                    raise ParseError(f"{m.relation} used as both join and order relation")
                wanted[m.relation] = 2

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
            if arity == 3 and name in BUILTIN_JOIN_NAMES:
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
    bound = set()
    for lit in clause.body:
        if isinstance(lit, Call):
            for a in lit.args:
                bound |= pattern_vars(a)
            continue
        lhs, rhs = lit.args
        if lit.op == "is":
            free = pattern_vars(rhs) - bound
            if free:
                raise RangeRestrictionError(
                    f"variable {sorted(free)[0]} unbound in arithmetic in: {clause_to_str(clause)}")
            if isinstance(lhs, Var):
                bound.add(lhs.name)
            else:
                free = pattern_vars(lhs) - bound
                if free:
                    raise RangeRestrictionError(
                        f"variable {sorted(free)[0]} unbound in: {clause_to_str(clause)}")
        else:
            free = (pattern_vars(lhs) | pattern_vars(rhs)) - bound
            if free:
                raise RangeRestrictionError(
                    f"variable {sorted(free)[0]} unbound in: {clause_to_str(clause)}")
    free = set()
    for a in clause.head.args:
        free |= pattern_vars(a)
    free -= bound
    if free:
        what = "non-ground fact" if not clause.body else "unbound head variable"
        raise RangeRestrictionError(f"{what} {sorted(free)[0]} in: {clause_to_str(clause)}")


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def _mode_to_str(m: Mode) -> str:
    if m.kind == "lattice":
        return f"lattice({m.relation}/3)"
    if m.kind == "po":
        return f"po({m.relation}/2)"
    return m.kind


def program_to_text(program: Program) -> str:
    """Canonical text whose reparse is structurally identical."""
    lines = []
    for pred in sorted(program.directives):
        modes = ",".join(_mode_to_str(m) for m in program.directives[pred])
        lines.append(f":- table {pred}({modes}).")
    for name in sorted(program.join_relations):
        for row in sorted(program.join_relations[name],
                          key=lambda r: tuple(term_key(t) for t in r)):
            lines.append(f"{name}({','.join(term_to_str(t) for t in row)}).")
    for name in sorted(program.order_relations):
        for row in sorted(program.order_relations[name],
                          key=lambda r: tuple(term_key(t) for t in r)):
            lines.append(f"{name}({','.join(term_to_str(t) for t in row)}).")
    for c in program.clauses:
        lines.append(clause_to_str(c))
    return "\n".join(lines) + ("\n" if lines else "")
