"""Answer lattices, per-predicate specs, and answer tables.

An answer table maps (predicate, indexed-argument tuple) keys to values
of that predicate's lattice. Absent keys mean bottom; a table never
stores bottom explicitly. Each lattice kind supplies a join, plus an
abstraction from output terms to values and a representation back:
abstract(represent(v)) = v for every value that can arise.

Kinds:

  min / max      terms under the total term order, join takes the lesser
                 (resp. greater) operand
  all            finite sets of terms, join is union; represented as a
                 sorted list term, and a list term abstracts back to its
                 element set
  po             antichains of a user-supplied partial order (given as
                 ground facts), join is union followed by pruning of
                 dominated elements
  user join      a binary join given as ground facts name(X, Y, Z), or
                 one of the builtin arithmetic joins min/max; a fact
                 table is checked when the lattice is built to be
                 functional, commutative, idempotent and associative
                 wherever it is defined; only a table defined on every
                 pair of its carrier is total, and lets answers be
                 folded in any order
  extended nat   integers plus the absorbing top `infty`, join is max
  discrete       the set lattice over a unit element; used for untabled
                 (and plainly tabled) predicates so answers never subsume
                 one another
  product        componentwise combination when several arguments carry
                 non-index modes
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomainError,
    JoinUndefinedError,
    LatlogError,
    LatticeLawViolationError,
)
from .program import Mode, Program
from .terms import (
    Atom,
    Int,
    ListTerm,
    Symbol,
    Term,
    atom_sorted,
    term_key,
    term_sorted,
    term_to_str,
)

DUMMY = Symbol("$unit")
INFTY = Symbol("infty")


class _BottomType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Bottom"


BOTTOM = _BottomType()


@dataclass(frozen=True)
class TermVal:
    term: Term


@dataclass(frozen=True)
class SetVal:
    elements: frozenset


@dataclass(frozen=True)
class InfVal:
    pass


INF = InfVal()


@dataclass(frozen=True)
class ProductVal:
    parts: tuple


# --- lattice kinds -----------------------------------------------------


class LatticeSpec:
    kind = "abstract"
    # a selective join always returns one of its operands (or an
    # already-absorbed top), so closing a set under it adds nothing
    selective = False
    # a total join is defined on every pair of values that can arise,
    # so with the join laws every fold order gives the same result
    total = True
    # a selective lattice whose abstraction rejects some terms; the
    # reference fixpoint skips abstracting the atoms of the others
    checks_domain = False

    def join(self, x, y):
        raise NotImplementedError

    def abstract(self, term):
        raise NotImplementedError

    def represent(self, value):
        raise NotImplementedError


class MinLattice(LatticeSpec):
    kind = "min"
    selective = True

    def join(self, x, y):
        return x if term_key(x.term) <= term_key(y.term) else y

    def abstract(self, term):
        return TermVal(term)

    def represent(self, value):
        return value.term

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(self.kind)


class MaxLattice(MinLattice):
    kind = "max"

    def join(self, x, y):
        return x if term_key(x.term) >= term_key(y.term) else y


class AllLattice(LatticeSpec):
    kind = "all"

    def join(self, x, y):
        return SetVal(x.elements | y.elements)

    def abstract(self, term):
        if isinstance(term, ListTerm):
            return SetVal(frozenset(term.elements))
        return SetVal(frozenset((term,)))

    def represent(self, value):
        return ListTerm(tuple(term_sorted(value.elements)))

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(self.kind)


class DiscreteLattice(AllLattice):
    """Set lattice over the unit element; rho drops the value entirely."""

    kind = "discrete"
    selective = True


@dataclass(frozen=True)
class PoLattice(LatticeSpec):
    name: str
    pairs: frozenset  # (x, y) meaning x precedes y; reflexivity implicit

    kind = "po"

    def __post_init__(self):
        for (x, y) in self.pairs:
            if x != y and (y, x) in self.pairs:
                raise LatticeLawViolationError(
                    f"order {self.name} is not antisymmetric "
                    f"on ({term_to_str(x)}, {term_to_str(y)})")
        for (x, y) in self.pairs:
            for (y2, z) in self.pairs:
                if y == y2 and x != z and (x, z) not in self.pairs:
                    raise LatticeLawViolationError(
                        f"order {self.name} is not transitive at "
                        f"({term_to_str(x)}, {term_to_str(y)}, {term_to_str(z)})")

    def precedes(self, x, y):
        return x == y or (x, y) in self.pairs

    def prune(self, elements):
        """Keep only order-maximal elements."""
        return frozenset(
            x for x in elements
            if not any(y != x and self.precedes(x, y) for y in elements))

    def join(self, x, y):
        return SetVal(self.prune(x.elements | y.elements))

    def abstract(self, term):
        if isinstance(term, ListTerm):
            return SetVal(self.prune(frozenset(term.elements)))
        return SetVal(frozenset((term,)))

    def represent(self, value):
        return ListTerm(tuple(term_sorted(value.elements)))


def _require_int(name, term):
    if not isinstance(term, Int):
        raise DomainError(
            f"builtin join {name} needs integers, got {term_to_str(term)}")
    return term.value


_BUILTIN_JOINS = {
    "min": lambda a, b: Int(min(a, b)),
    "max": lambda a, b: Int(max(a, b)),
}


@dataclass(frozen=True)
class UserJoinLattice(LatticeSpec):
    name: str
    rows: frozenset | None  # None when the join is a builtin

    kind = "userjoin"

    def __post_init__(self):
        table = {}
        if self.rows is not None:
            for (x, y, z) in self.rows:
                if table.setdefault((x, y), z) != z:
                    raise LatticeLawViolationError(
                        f"join {self.name} is not functional "
                        f"on ({term_to_str(x)}, {term_to_str(y)})")
            for (x, y), z in table.items():
                w = table.get((y, x))
                if w is not None and w != z:
                    raise LatticeLawViolationError(
                        f"join {self.name} is not commutative "
                        f"on ({term_to_str(x)}, {term_to_str(y)})")
                if x == y and z != x:
                    raise LatticeLawViolationError(
                        f"join {self.name} is not idempotent on {term_to_str(x)}")
        object.__setattr__(self, "_table", table)
        # the builtin joins, min and max, return one of their operands
        object.__setattr__(self, "selective", self.rows is None)
        object.__setattr__(self, "total", self.rows is None or self._check_associative())

    def _lookup(self, a, b):
        """The join of two carrier terms, or None where it is undefined."""
        if a == b:
            return a
        z = self._table.get((a, b))
        return self._table.get((b, a)) if z is None else z

    def _check_associative(self):
        """Raise on a triple where both bracketings are defined and differ.

        Returns whether the join is defined on every pair of the
        carrier. Triples with an undefined join are skipped, so only
        then does the check vouch for every fold order.
        """
        # sorted, so that the triple named in the error is reproducible
        carrier = term_sorted({t for row in self.rows for t in row})
        total = True
        for x in carrier:
            for y in carrier:
                xy = self._lookup(x, y)
                if xy is None:
                    total = False
                    continue
                for z in carrier:
                    yz = self._lookup(y, z)
                    if yz is None:
                        continue
                    left, right = self._lookup(xy, z), self._lookup(x, yz)
                    if left is not None and right is not None and left != right:
                        raise LatticeLawViolationError(
                            f"join {self.name} is not associative on "
                            f"({term_to_str(x)}, {term_to_str(y)}, {term_to_str(z)})")
        return total

    def join_terms(self, a, b):
        if self.rows is None:
            if a == b:
                return a
            fn = _BUILTIN_JOINS[self.name]
            return fn(_require_int(self.name, a), _require_int(self.name, b))
        z = self._lookup(a, b)
        if z is None:
            raise JoinUndefinedError(self.name, term_to_str(a), term_to_str(b))
        return z

    def join(self, x, y):
        return TermVal(self.join_terms(x.term, y.term))

    def abstract(self, term):
        return TermVal(term)

    def represent(self, value):
        return value.term


class ExtendedNatLattice(LatticeSpec):
    """Integers with an adjoined absorbing top, written `infty`."""

    kind = "extnat"
    selective = True
    checks_domain = True

    def join(self, x, y):
        if isinstance(x, InfVal) or isinstance(y, InfVal):
            return INF
        return x if x.term.value >= y.term.value else y

    def abstract(self, term):
        if term == INFTY:
            return INF
        if isinstance(term, Int):
            return TermVal(term)
        raise DomainError(f"{term_to_str(term)} is not an extended natural")

    def represent(self, value):
        if isinstance(value, InfVal):
            return INFTY
        return value.term

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(self.kind)


@dataclass(frozen=True)
class ProductLattice(LatticeSpec):
    parts: tuple

    kind = "product"

    def __post_init__(self):
        object.__setattr__(self, "total", all(p.total for p in self.parts))

    def join(self, x, y):
        return ProductVal(tuple(
            p.join(a, b) for p, a, b in zip(self.parts, x.parts, y.parts)))

    def abstract(self, term):
        if not isinstance(term, ListTerm) or len(term.elements) != len(self.parts):
            raise DomainError(
                f"{term_to_str(term)} does not fit a {len(self.parts)}-part product")
        return ProductVal(tuple(
            p.abstract(e) for p, e in zip(self.parts, term.elements)))

    def represent(self, value):
        return ListTerm(tuple(
            p.represent(v) for p, v in zip(self.parts, value.parts)))


# --- value-level operations --------------------------------------------


def join_values(spec: LatticeSpec, x, y):
    """Join two values; bottom is the identity and x v x = x always."""
    if x is BOTTOM:
        return y
    if y is BOTTOM:
        return x
    if x == y:
        return x
    return spec.join(x, y)


def value_to_str(value) -> str:
    """Human-readable form of a lattice value, for reports."""
    if value is BOTTOM:
        return "bottom"
    if isinstance(value, TermVal):
        return term_to_str(value.term)
    if isinstance(value, InfVal):
        return "infty"
    if isinstance(value, SetVal):
        if value.elements == frozenset((DUMMY,)):
            return "true"
        return "{" + ", ".join(term_to_str(t) for t in term_sorted(value.elements)) + "}"
    if isinstance(value, ProductVal):
        return "(" + ", ".join(value_to_str(p) for p in value.parts) + ")"
    raise DomainError(f"not a lattice value: {value!r}")


# --- per-predicate specs ------------------------------------------------


@dataclass(frozen=True)
class PredSpec:
    pred: str
    arity: int
    in_positions: tuple
    out_positions: tuple
    lattice: LatticeSpec

    def key_of(self, atom: Atom):
        return (self.pred, tuple(atom.args[i] for i in self.in_positions))

    def output_of(self, atom: Atom) -> Term:
        if not self.out_positions:
            return DUMMY
        if len(self.out_positions) == 1:
            return atom.args[self.out_positions[0]]
        return ListTerm(tuple(atom.args[i] for i in self.out_positions))

    def abstract_atom(self, atom: Atom):
        return self.lattice.abstract(self.output_of(atom))

    def atom_of(self, key, value) -> Atom:
        _, inputs = key
        if not self.out_positions:  # every position is an index
            return Atom(self.pred, inputs)
        args = [None] * self.arity
        for i, pos in enumerate(self.in_positions):
            args[pos] = inputs[i]
        rep = self.lattice.represent(value)
        if len(self.out_positions) == 1:
            args[self.out_positions[0]] = rep
        else:
            for pos, part in zip(self.out_positions, rep.elements):
                args[pos] = part
        return Atom(self.pred, tuple(args))


def _mode_lattice(mode: Mode, program: Program) -> LatticeSpec:
    if mode.kind == "min":
        return MinLattice()
    if mode.kind == "max":
        return MaxLattice()
    if mode.kind == "all":
        return AllLattice()
    if mode.kind == "po":
        return PoLattice(mode.relation, program.order_relations[mode.relation])
    if mode.kind == "lattice":
        rows = program.join_relations.get(mode.relation)
        if rows is not None:
            return UserJoinLattice(mode.relation, rows)
        if mode.relation == "max_inf":
            return ExtendedNatLattice()
        return UserJoinLattice(mode.relation, None)
    raise DomainError(f"mode {mode.kind} has no lattice")


def build_specs(program: Program) -> dict:
    """One PredSpec per predicate; untabled predicates get the discrete kind."""
    specs = {}
    for pred, arity in program.arities().items():
        modes = program.directives.get(pred, (Mode("index"),) * arity)
        outs = [(i, m) for i, m in enumerate(modes) if m.kind != "index"]
        if not outs:
            specs[pred] = PredSpec(pred, arity, tuple(range(arity)), (),
                                   DiscreteLattice())
        elif len(outs) == 1:
            pos, mode = outs[0]
            ins = tuple(i for i in range(arity) if i != pos)
            specs[pred] = PredSpec(pred, arity, ins, (pos,),
                                   _mode_lattice(mode, program))
        else:
            positions = tuple(i for i, _ in outs)
            ins = tuple(i for i in range(arity) if i not in positions)
            lattice = ProductLattice(tuple(_mode_lattice(m, program) for _, m in outs))
            specs[pred] = PredSpec(pred, arity, ins, positions, lattice)
    return specs


# --- answer tables --------------------------------------------------------


@dataclass(frozen=True)
class AnswerTable:
    entries: dict  # (pred, inputs) -> value; never BOTTOM

    def get(self, key):
        return self.entries.get(key, BOTTOM)

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: _key_sort_key(kv[0]))


def _key_sort_key(key):
    pred, inputs = key
    return (pred, len(inputs), tuple(term_key(t) for t in inputs))


def empty_table() -> AnswerTable:
    return AnswerTable({})


def _spec_for(specs, pred):
    try:
        return specs[pred]
    except KeyError:
        raise DomainError(f"no mode information for predicate {pred}") from None


def table_atoms(specs, table: AnswerTable) -> frozenset:
    """All atoms a table claims true (the extraction half of aggregation)."""
    return frozenset(_spec_for(specs, key[0]).atom_of(key, value)
                     for key, value in table.entries.items())


def _fold(specs, atoms):
    entries = {}
    for atom in atoms:
        spec = _spec_for(specs, atom.pred)
        key = spec.key_of(atom)
        value = spec.abstract_atom(atom)
        old = entries.get(key)
        entries[key] = value if old is None else join_values(spec.lattice, old, value)
    return AnswerTable(entries)


def aggregate_atoms(specs, atoms) -> AnswerTable:
    """Fold a set of atoms into one table, joining collisions per key.

    Lattices are checked for the join laws when they are built, so the
    fold may take the atoms in whatever order they come. Two cases
    still fold in the total atom order. An error is raised again by the
    sorted fold, so its message names the same atoms on every run. And
    a user join table that leaves some pair undefined can fail in one
    order and succeed in another, so under one the fold is sorted from
    the start.
    """
    if all(spec.lattice.total for spec in specs.values()):
        try:
            return _fold(specs, atoms)
        except LatlogError:
            pass
    return _fold(specs, atom_sorted(atoms))


def table_join(specs, tables) -> AnswerTable:
    entries = {}
    for t in tables:
        for key, value in t.sorted_items():
            old = entries.get(key)
            if old is None:
                entries[key] = value
            else:
                entries[key] = join_values(_spec_for(specs, key[0]).lattice, old, value)
    return AnswerTable(entries)
