"""Answer lattices, per-predicate specs, and answer tables.

An answer table is a dict from (predicate, indexed-argument tuple) keys
to values of that predicate's lattice. An absent key is bottom; a table
never stores bottom, and `table.get(key)` gives None for it. Each
lattice kind supplies a join, plus an abstraction from output terms to
values and a representation back: abstract(represent(v)) = v for every
value that can arise. Values are plain data: a term, a frozenset of
terms, or a plain tuple of part values. Terms are tuples too, so a
product value is told apart by `type(v) is tuple`. Where the value is
the output term itself, both conversions are the identity. A product
abstracts the tuple of its output terms part by part, and represents
a value as such a tuple.

Every lattice is checked at its boundary. A user's join table or order
is checked for the laws when the lattice is built, and abstraction
rejects a term outside the lattice's domain. So the join of two values
that abstraction accepted is always defined, and a set of atoms folds
to the same table in any order.

Joins are built once per lattice: the min and max family compares two
integers or symbols directly, a product joins through one function over
its parts' joins, and every join is still called through `join_values`.

Kinds, each with the type of its values:

  min / max      a term; under the total term order, join takes the
                 lesser (resp. greater) operand
  all            a frozenset of terms, join is union; represented as a
                 sorted list term, and a list term abstracts back to its
                 element set
  po             a frozenset of terms: an antichain of a user-supplied
                 partial order (given as ground facts), join is union
                 followed by pruning of dominated elements
  user join      a term of the carrier, the terms a join table's rows
                 mention; the join is given as ground facts
                 name(X, Y, Z), checked when the lattice is built to be
                 defined on every pair of the carrier, functional,
                 commutative, idempotent and associative
  builtin join   lattice(min/3) and lattice(max/3): min and max over
                 the integers alone
  extended nat   a term: an integer, or the absorbing top `infty`; join
                 is max, since the term order puts every symbol above
                 every integer
  discrete       a frozenset holding the unit element: the set lattice
                 used for untabled (and plainly tabled) predicates, so
                 answers never subsume one another
  product        a tuple of part values, combined componentwise, when
                 several arguments carry non-index modes
"""

from __future__ import annotations

from operator import itemgetter

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
    atom_key,
    atom_sorted,
    term_key,
    term_sorted,
    term_to_str,
)

DUMMY = Symbol("$unit")
INFTY = Symbol("infty")
_TRUE = frozenset((DUMMY,))


# --- lattice kinds -----------------------------------------------------


def _identity(v):
    return v


# term_key is the identity on integers and symbols (tags 0 and 1), so two
# of them compare as they are; compounds and lists go through term_key
def _min_join(x, y):
    if x[0] < 2 and y[0] < 2:
        return x if x <= y else y
    return x if term_key(x) <= term_key(y) else y


def _max_join(x, y):
    if x[0] < 2 and y[0] < 2:
        return x if x >= y else y
    return x if term_key(x) >= term_key(y) else y


class LatticeSpec:
    # a selective join always returns one of its operands (or an
    # already-absorbed top), so closing a set under it adds nothing
    selective = False
    # a selective lattice whose abstraction rejects some terms; the
    # reference fixpoint skips abstracting the atoms of the others
    checks_domain = False
    abstract = represent = staticmethod(_identity)

    def join(self, x, y):
        raise NotImplementedError


class MinLattice(LatticeSpec):
    selective = True
    join = staticmethod(_min_join)


class MaxLattice(MinLattice):
    join = staticmethod(_max_join)


class AllLattice(LatticeSpec):
    def join(self, x, y):
        return x | y

    def abstract(self, term):
        if isinstance(term, ListTerm):
            return frozenset(term.elements)
        return frozenset((term,))

    def represent(self, value):
        return ListTerm(tuple(term_sorted(value)))


class DiscreteLattice(AllLattice):
    """Set lattice over the unit element; rho drops the value entirely."""

    selective = True


class PoLattice(AllLattice):
    def __init__(self, name, pairs):
        self.name = name
        self.pairs = pairs  # (x, y) meaning x precedes y; reflexivity implicit
        for (x, y) in pairs:
            if x != y and (y, x) in pairs:
                raise LatticeLawViolationError(
                    f"order {name} is not antisymmetric "
                    f"on ({term_to_str(x)}, {term_to_str(y)})")
        for (x, y) in pairs:
            for (y2, z) in pairs:
                if y == y2 and x != z and (x, z) not in pairs:
                    raise LatticeLawViolationError(
                        f"order {name} is not transitive at "
                        f"({term_to_str(x)}, {term_to_str(y)}, {term_to_str(z)})")

    def precedes(self, x, y):
        return x == y or (x, y) in self.pairs

    def prune(self, elements):
        """Keep only order-maximal elements."""
        return frozenset(
            x for x in elements
            if not any(y != x and self.precedes(x, y) for y in elements))

    def join(self, x, y):
        return self.prune(x | y)

    def abstract(self, term):
        if isinstance(term, ListTerm):
            return self.prune(frozenset(term.elements))
        return frozenset((term,))


class IntMinLattice(MinLattice):
    """lattice(min/3): min over the integers alone."""

    checks_domain = True
    name = "min"

    def abstract(self, term):
        if type(term) is Int:
            return term
        raise DomainError(f"builtin join {self.name} needs integers, got {term_to_str(term)}")


class IntMaxLattice(IntMinLattice, MaxLattice):
    """lattice(max/3): max over the integers alone."""

    name = "max"


class UserJoinLattice(LatticeSpec):
    def __init__(self, name, rows):
        self.name = name
        self._table = table = {}  # (x, y) -> z, from the rows (x, y, z): x v y = z
        for (x, y, z) in rows:
            if table.setdefault((x, y), z) != z:
                raise LatticeLawViolationError(
                    f"join {name} is not functional "
                    f"on ({term_to_str(x)}, {term_to_str(y)})")
        for (x, y), z in table.items():
            w = table.get((y, x))
            if w is not None and w != z:
                raise LatticeLawViolationError(
                    f"join {name} is not commutative "
                    f"on ({term_to_str(x)}, {term_to_str(y)})")
            if x == y and z != x:
                raise LatticeLawViolationError(
                    f"join {name} is not idempotent on {term_to_str(x)}")
        # sorted, so that the pair or triple an error names is reproducible
        carrier = term_sorted({t for row in rows for t in row})
        self._carrier = frozenset(carrier)
        for x in carrier:
            for y in carrier:
                if self._lookup(x, y) is None:
                    raise JoinUndefinedError(name, term_to_str(x), term_to_str(y))
        for x in carrier:
            for y in carrier:
                xy = self._lookup(x, y)
                for z in carrier:
                    if self._lookup(xy, z) != self._lookup(x, self._lookup(y, z)):
                        raise LatticeLawViolationError(
                            f"join {name} is not associative on "
                            f"({term_to_str(x)}, {term_to_str(y)}, {term_to_str(z)})")

    def _lookup(self, a, b):
        """The join of two carrier terms, or None where it is undefined."""
        if a == b:
            return a
        z = self._table.get((a, b))
        return self._table.get((b, a)) if z is None else z

    def join(self, x, y):
        z = self._lookup(x, y)
        if z is None:  # abstraction keeps every value inside the carrier
            raise JoinUndefinedError(self.name, term_to_str(x), term_to_str(y))
        return z

    def abstract(self, term):
        if term in self._carrier:
            return term
        raise DomainError(f"{term_to_str(term)} is not in the carrier of join {self.name}")


class ExtendedNatLattice(MaxLattice):
    """Integers with an adjoined absorbing top, written `infty`."""

    checks_domain = True

    def abstract(self, term):
        if term == INFTY or isinstance(term, Int):
            return term
        raise DomainError(f"{term_to_str(term)} is not an extended natural")


def _call(f, a, b):
    return f(a, b)


class ProductLattice(LatticeSpec):
    """Componentwise; abstracts a tuple of output terms, one per part.
    The join is built once from the parts' joins. When every part's
    abstraction and representation are the identity, so are the
    product's: the tuple of output terms is the value."""

    def __init__(self, parts):
        self.parts = parts
        joins = tuple(p.join for p in parts)
        if len(joins) == 2:  # the common case, unrolled: the map calls _call per part
            j0, j1 = joins
            self.join = lambda x, y: (j0(x[0], y[0]), j1(x[1], y[1]))
        else:
            self.join = lambda x, y: tuple(map(_call, joins, x, y))
        if all(p.abstract is _identity and p.represent is _identity for p in parts):
            self.abstract = self.represent = _identity

    def abstract(self, terms):
        return tuple([p.abstract(t) for p, t in zip(self.parts, terms)])

    def represent(self, value):
        return tuple([p.represent(v) for p, v in zip(self.parts, value)])


# the lattice(Name/3) joins that need no facts, by name
BUILTIN_JOINS = {"min": IntMinLattice, "max": IntMaxLattice, "max_inf": ExtendedNatLattice}


# --- value-level operations --------------------------------------------


def join_values(spec: LatticeSpec, x, y):
    """Join two values; x v x = x always."""
    return x if x == y else spec.join(x, y)


def value_to_str(value) -> str:
    """Human-readable form of a lattice value, for reports; None is bottom."""
    if value is None:
        return "bottom"
    if isinstance(value, frozenset):
        if value == _TRUE:
            return "true"
        return "{" + ", ".join(term_to_str(t) for t in term_sorted(value)) + "}"
    if type(value) is tuple:
        return "(" + ", ".join(value_to_str(p) for p in value) + ")"
    return term_to_str(value)


# --- per-predicate specs ------------------------------------------------


def _picker(positions):
    """A function from an argument tuple to the tuple of its items at `positions`."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


class PredSpec:
    """How one predicate's atoms map to table keys and values, and back.
    A product's value abstracts the tuple of its output arguments."""

    __slots__ = ("pred", "in_positions", "out_positions", "lattice",
                 "_inputs", "_outputs", "_place")

    def __init__(self, pred, arity, in_positions, out_positions, lattice):
        self.pred = pred
        self.in_positions = in_positions
        self.out_positions = out_positions
        self.lattice = lattice
        self._inputs = _picker(in_positions)
        self._outputs = (itemgetter(out_positions[0]) if len(out_positions) == 1
                         else _picker(out_positions) if out_positions else lambda args: DUMMY)
        # atom_of lays out the inputs, then the output terms; this puts
        # them back in argument order
        order = in_positions + out_positions
        self._place = (None if order == tuple(range(arity))
                       else itemgetter(*map(order.index, range(arity))))

    def key_of(self, atom: Atom):
        return (self.pred, self._inputs(atom.args))

    def abstract_atom(self, atom: Atom):
        return self.lattice.abstract(self._outputs(atom.args))

    def atom_of(self, key, value) -> Atom:
        if not self.out_positions:  # every position is an index
            return Atom(self.pred, key[1])
        rep = self.lattice.represent(value)
        args = key[1] + (rep if len(self.out_positions) > 1 else (rep,))
        return Atom(self.pred, args if self._place is None else self._place(args))


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
        return BUILTIN_JOINS[mode.relation]()
    raise DomainError(f"mode {mode.kind} has no lattice")


def build_specs(program: Program) -> dict:
    """One PredSpec per predicate; untabled predicates get the discrete kind."""
    specs = {}
    for pred, arity in program.arities().items():
        modes = program.directives.get(pred, (Mode("index"),) * arity)
        outs = tuple(i for i, m in enumerate(modes) if m.kind != "index")
        ins = tuple(i for i in range(arity) if i not in outs)
        if not outs:
            lattice = DiscreteLattice()
        elif len(outs) == 1:
            lattice = _mode_lattice(modes[outs[0]], program)
        else:
            lattice = ProductLattice(tuple(_mode_lattice(modes[i], program) for i in outs))
        specs[pred] = PredSpec(pred, arity, ins, outs, lattice)
    return specs


# --- answer tables --------------------------------------------------------


def sorted_items(table):
    """A table's (key, value) pairs, ordered by predicate, then inputs."""
    return sorted(table.items(), key=lambda kv: atom_key(kv[0]))


def table_atoms(specs, table) -> frozenset:
    """All atoms a table claims true (the extraction half of aggregation)."""
    return frozenset(specs[key[0]].atom_of(key, value)
                     for key, value in table.items())


def _fold(specs, atoms):
    table = {}
    for atom in atoms:
        spec = specs[atom.pred]
        key = spec.key_of(atom)
        value = spec.abstract_atom(atom)
        old = table.get(key)
        table[key] = value if old is None else join_values(spec.lattice, old, value)
    return table


def aggregate_atoms(specs, atoms) -> dict:
    """Fold a set of atoms into one table, joining collisions per key.

    The join of two accepted values is always defined, so the fold
    takes the atoms in whatever order they come. Only abstraction can
    raise, on an atom outside its lattice's domain; the fold then runs
    again in the total atom order, so the error names the same atom on
    every run.
    """
    try:
        return _fold(specs, atoms)
    except LatlogError:
        return _fold(specs, atom_sorted(atoms))


def table_join(specs, tables) -> dict:
    joined = {}
    for t in tables:
        for key, value in t.items():
            old = joined.get(key)
            joined[key] = (value if old is None
                           else join_values(specs[key[0]].lattice, old, value))
    return joined
