"""Bottom-up reference evaluation, and the stratum driver it shares.

Two operators drive everything. The immediate-consequence step derives
every head reachable from an interpretation in one rule firing. The
join-extended step additionally closes each answer group under its
lattice join, so atoms created by the join (rather than by inference)
can fire rules of their own. Evaluation runs stratum by stratum in
`evaluate_strata`, which hands each stratum's fixpoint the lower
strata's answers as plain facts. The greedy engine and the checker's
universe run it too, each with a fixpoint of its own; here it is the
join-extended step's, aggregated once.

Divergence is an outcome, not a hang. `fuel` bounds the number of
operator applications and also the size the interpretation may reach,
since a geometrically exploding model would otherwise outlive any
step budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .builtins import eval_builtin
from .errors import DomainError
from .lattice import (
    AnswerTable,
    aggregate_atoms,
    build_specs,
    empty_table,
    join_values,
    table_atoms,
)
from .program import Call, Program, Var, fact_clause, match_seq, substitute
from .stratify import stratify, stratum_clauses
from .terms import Atom, Int, Symbol, atom_sorted, term_key

DEFAULT_FUEL = 10000


class _BudgetExceeded(Exception):
    """Internal: a join closure outgrew the fuel budget mid-step."""


@dataclass(frozen=True)
class FixpointResult:
    converged: bool
    value: object
    steps: int


@dataclass(frozen=True)
class StratumResult:
    preds: tuple        # sorted predicate names
    atoms: frozenset    # aggregated atoms once this stratum settled (partial if not)
    steps: int
    converged: bool


@dataclass(frozen=True)
class EvalOutcome:
    converged: bool
    answers: frozenset  # aggregated answer atoms; partial when diverged
    table: AnswerTable
    steps: int          # operator applications across all strata
    strata: tuple       # one StratumResult per stratum reached
    diverged_stratum: tuple = None  # sorted preds of the stratum that ran dry


# --- the immediate-consequence step -------------------------------------


class _AtomIndex:
    """Atoms by predicate, and by their arguments at bound positions.

    A call literal whose arguments are partly ground needs only the
    atoms that agree with it there. For each predicate and tuple of
    bound positions that some lookup asks for, one hash index maps the
    tuple of the arguments at those positions to the atoms that carry
    them, in the manner of Souffle's automatic index selection (Subotic
    et al., VLDB 2018). An index is built from the predicate's atoms on
    its first lookup and kept current by `add` and `discard` from then
    on, so an evaluation pays only for the indexes its rules read.
    """

    __slots__ = ("by_pred", "by_args")

    def __init__(self, atoms=()):
        self.by_pred = {}
        self.by_args = {}  # pred -> {bound positions: {their arguments: atoms}}
        for a in atoms:
            self.add(a)

    def add(self, atom):
        atoms = self.by_pred.get(atom.pred)
        if atoms is None:
            self.by_pred[atom.pred] = {atom}
        else:
            atoms.add(atom)
        indexes = self.by_args.get(atom.pred)
        if indexes:
            args = atom.args
            for positions, buckets in indexes.items():
                key = tuple([args[i] for i in positions])
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {atom}
                else:
                    bucket.add(atom)

    def discard(self, atom):
        """Forget an indexed atom, so it can no longer fire anything."""
        self.by_pred[atom.pred].discard(atom)
        args = atom.args
        for positions, buckets in self.by_args.get(atom.pred, {}).items():
            buckets[tuple([args[i] for i in positions])].discard(atom)

    def candidates(self, call, bindings):
        """The atoms that agree with the call's ground arguments, or all
        of the predicate's atoms when none is ground."""
        atoms = self.by_pred.get(call.pred)
        if not atoms:
            return ()
        positions = []
        key = []
        for i, p in enumerate(call.args):
            if isinstance(p, Var):
                p = bindings.get(p.name)
                if p is None:
                    continue
            elif not isinstance(p, (Int, Symbol)):
                continue  # non-atomic pattern; leave it to the matcher
            positions.append(i)
            key.append(p)
        if not positions:
            return atoms
        positions = tuple(positions)
        indexes = self.by_args.setdefault(call.pred, {})
        buckets = indexes.get(positions)
        if buckets is None:
            buckets = indexes[positions] = {}
            for atom in atoms:
                args = atom.args
                buckets.setdefault(tuple([args[i] for i in positions]), set()).add(atom)
        return buckets.get(tuple(key), ())


def _fire_clause(clause, idx, derived, delta_idx=None, pivot=None, old_idx=None):
    """All firings of one clause, depth-first over the body literals.

    With a pivot, that call literal draws its atoms from `delta_idx`,
    and the literals before it from `old_idx` (the interpretation as it
    stood before the delta). Pivoting each call position in turn then
    finds every firing that uses a delta atom exactly once, at its
    first delta position.
    """
    body = clause.body
    head = clause.head
    n = len(body)
    heads = set()  # argument tuples; many firings derive the same head

    def walk(i, bindings):
        if i == n:
            heads.add(tuple([bindings[a.name] if isinstance(a, Var) and a.name in bindings
                             else substitute(a, bindings) for a in head.args]))
            return
        lit = body[i]
        if isinstance(lit, Call):
            if pivot is None or i > pivot:
                pool = idx
            elif i == pivot:
                pool = delta_idx
            else:
                pool = old_idx
            for atom in pool.candidates(lit, bindings):
                if len(atom.args) == len(lit.args):
                    nb = match_seq(lit.args, atom.args, bindings)
                    if nb is not None:
                        walk(i + 1, nb)
        else:
            nb = eval_builtin(lit, bindings)
            if nb is not None:
                walk(i + 1, nb)

    walk(0, {})
    derived.update(Atom(head.pred, args) for args in heads)


def _fire_delta(clauses, idx, derived, delta=None, old_idx=None):
    """Add to `derived` the firings over `idx` that read an atom of `delta`.

    Without a delta, every firing over `idx`. With one, each call
    literal that can match a delta atom is the pivot in turn, reading
    the delta, with `old_idx` before it and `idx` after it (see
    `_fire_clause`). When `old_idx` still holds the delta, a firing
    that reads several delta atoms is found once per such atom, which
    the set absorbs.
    """
    if delta is None:
        for c in clauses:
            _fire_clause(c, idx, derived)
        return
    delta_idx = _AtomIndex(delta)
    for c in clauses:
        for j, lit in enumerate(c.body):
            if isinstance(lit, Call) and lit.pred in delta_idx.by_pred:
                _fire_clause(c, idx, derived, delta_idx, j, old_idx)


def immediate_step(clauses, atoms) -> frozenset:
    """One application of the immediate-consequence step."""
    derived = set()
    _fire_delta(clauses, _AtomIndex(atoms), derived)
    return frozenset(derived)


# --- the join-extended step ----------------------------------------------


def _close_group(spec, values, new_values, budget):
    """Add `new_values` to one answer group's value set, which is closed
    under the join, and close it again, in place.

    Returns the values the join created: the new closure minus the old
    values minus `new_values`. That set does not depend on the order in
    which the values arrive. Raises `_BudgetExceeded` when the join
    creates a value and the closure holds more than `budget` values.

    Under a total join one round suffices. If C is closed, so is
    C | {x} | {x v y : y in C}, since (x v y) v (x v z) = x v (y v z)
    and y v z is in C. So each new value that the set does not hold yet
    joins once with a snapshot of the set as it stands, and the values
    it creates are never joined again. Under a join table that leaves
    some pair undefined, a join may fail in one order and succeed in
    another, so the frontier loop runs instead: every created value
    joins the whole set in turn, and both walk the values in their
    term order, so that the undefined pair an error names is the same
    on every run.
    """
    lattice = spec.lattice
    new_values = set(new_values)
    created = []
    if lattice.total:
        for x in new_values:
            if x in values:
                continue
            snapshot = tuple(values)
            values.add(x)
            for y in snapshot:
                j = join_values(lattice, x, y)
                if j not in values:
                    values.add(j)
                    if j not in new_values:
                        created.append(j)
                        if len(values) > budget:
                            raise _BudgetExceeded
        # new values added after the last created one count as well
        if created and len(values) > budget:
            raise _BudgetExceeded
        return created
    fresh = new_values - values
    values |= fresh
    walk = partial(sorted, key=lambda v: term_key(lattice.represent(v)))
    frontier = walk(fresh)
    while frontier:
        next_frontier = []
        for x in frontier:
            for y in walk(values):
                j = join_values(lattice, x, y)
                if j not in values:
                    values.add(j)
                    next_frontier.append(j)
                    created.append(j)
                    if len(values) > budget:
                        raise _BudgetExceeded
        frontier = next_frontier
    return created


def _group_values(specs, atoms, ordered):
    """The values a set of atoms brings to the answer groups it
    touches, as (spec, key, values) in the order the closure takes them.

    Groups under a selective lattice cannot gain a value from the join,
    so their atoms are left out; they are only abstracted where the
    lattice's domain can reject them. When `ordered`, each atom comes
    alone, in atom order, and is abstracted only once the one before it
    has been closed. Otherwise each group comes once with all of its
    values.
    """
    batches = {}
    for atom in atom_sorted(atoms) if ordered else atoms:
        spec = specs[atom.pred]
        lattice = spec.lattice
        if lattice.selective:
            if lattice.checks_domain:
                spec.abstract_atom(atom)
            continue
        key = spec.key_of(atom)
        if ordered:
            yield spec, key, (spec.abstract_atom(atom),)
            continue
        batch = batches.get(key)
        if batch is None:
            batches[key] = batch = (spec, [])
        batch[1].append(spec.abstract_atom(atom))
    for key, (spec, values) in batches.items():
        yield spec, key, values


def close_answer_groups(specs, atoms, budget) -> frozenset:
    """Close each (predicate, inputs) answer group under its join.

    The result keeps the original atoms and adds one atom per
    join-created value, so join consequences become visible to the
    next immediate step. Groups under a selective lattice cannot gain
    a value and are skipped. When no group gains one, the result is
    `atoms` itself.
    """
    added = set()
    for spec, key, values in _group_values(specs, atoms, False):
        for v in _close_group(spec, set(), values, budget):
            added.add(spec.atom_of(key, v))
    return frozenset(atoms).union(added) if added else atoms


# --- fueled fixpoints ------------------------------------------------------


def stratum_lfp(clauses, specs, fuel) -> FixpointResult:
    """The fueled least fixpoint of the join-extended step, computed
    incrementally.

    Iterating x := x | close(T(x)) from the empty set defines it (the
    tests keep that naive loop as the oracle). The interpretation only
    ever grows, so each iteration needs just the firings that read at
    least one atom of the last delta. Each answer group's value set is
    kept closed under the join, so it only has to absorb the delta's
    new values: `_close_group` closes each group once per delta, with
    all of them, in one round under a total join. Under a join table
    that leaves some pair undefined, the delta instead comes one atom
    at a time in atom order and each group keeps the frontier loop, so
    that the undefined pair an error names does not depend on set
    order. The chain of interpretations and the step count match the
    naive loop exactly.
    """
    atoms = set()
    idx = _AtomIndex()      # everything derived so far
    old_idx = _AtomIndex()  # everything except the newest delta
    tp = set()
    groups = {}
    steps = 0
    delta = None
    ordered = not all(spec.lattice.total for spec in specs.values())

    while steps < fuel:
        derived = set()
        _fire_delta(clauses, idx, derived, delta, old_idx)
        tp_delta = derived - tp
        tp |= tp_delta

        new_atoms = set(tp_delta)
        try:
            for spec, key, batch in _group_values(specs, tp_delta, ordered):
                values = groups.setdefault(key, set())
                for v in _close_group(spec, values, batch, fuel):
                    new_atoms.add(spec.atom_of(key, v))
        except _BudgetExceeded:
            return FixpointResult(False, frozenset(atoms), steps)
        except DomainError:
            # name the first rejected atom in the total order, whatever
            # order the set gave
            for atom in atom_sorted(tp_delta):
                specs[atom.pred].abstract_atom(atom)
            raise
        steps += 1

        fresh = new_atoms - atoms
        if not fresh:
            return FixpointResult(True, frozenset(atoms), steps)
        atoms |= fresh
        if len(atoms) > fuel:
            return FixpointResult(False, frozenset(atoms), steps)
        if delta is not None:
            for a in delta:
                old_idx.add(a)
        for a in fresh:
            idx.add(a)
        delta = fresh
    return FixpointResult(False, frozenset(atoms), steps)


# --- stratified evaluation -------------------------------------------------


def evaluate_strata(program: Program, fuel, fixpoint) -> EvalOutcome:
    """Run `fixpoint` stratum by stratum, stopping at the first stratum
    that does not converge.

    `fixpoint(clauses, specs, fuel, lower)` gets the stratum's clauses
    with the lower strata's answers `lower` injected as facts, and
    returns its `FixpointResult` and its answer table. Because of those
    facts, each stratum's table already holds every answer so far.
    """
    specs = build_specs(program)
    lower = frozenset()
    table = empty_table()
    results = []
    total = 0
    for preds in stratify(program).strata:
        clauses = stratum_clauses(program, preds) + tuple(
            fact_clause(a) for a in atom_sorted(lower))
        fp, table = fixpoint(clauses, specs, fuel, lower)
        total += fp.steps
        names = tuple(sorted(preds))
        lower = table_atoms(specs, table)
        results.append(StratumResult(names, lower, fp.steps, fp.converged))
        if not fp.converged:
            return EvalOutcome(False, lower, table, total, tuple(results), names)
    return EvalOutcome(True, lower, table, total, tuple(results), None)


def _folded_lfp(clauses, specs, fuel, lower):
    fp = stratum_lfp(clauses, specs, fuel)
    # a stratum that ran dry on its first step has not derived the
    # injected facts yet; a converged one holds them already
    return fp, aggregate_atoms(specs, fp.value | lower)


def stratified_reference_semantics(program: Program, fuel=DEFAULT_FUEL) -> EvalOutcome:
    """Post-processing semantics: per stratum, the fueled least fixpoint
    of the join-extended step, aggregated once."""
    return evaluate_strata(program, fuel, _folded_lfp)
