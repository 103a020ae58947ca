"""Bottom-up reference evaluation.

Two operators drive everything. The immediate-consequence step derives
every head reachable from an interpretation in one rule firing. The
join-extended step additionally closes each answer group under its
lattice join, so atoms created by the join (rather than by inference)
can fire rules of their own. Evaluation runs stratum by stratum: each
stratum's converged model is aggregated once, and the surviving atoms
are handed to the next stratum as plain facts.

Divergence is an outcome, not a hang. `fuel` bounds the number of
operator applications and also the size the interpretation may reach,
since a geometrically exploding model would otherwise outlive any
step budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builtins import eval_builtin
from .lattice import (
    AnswerTable,
    aggregate_atoms,
    build_specs,
    join_values,
    table_atoms,
)
from .program import Builtin, Call, Clause, Program, Var, fact_clause, match_seq, substitute
from .stratify import stratify, stratum_clauses
from .terms import Atom, Int, Symbol, atom_sorted

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
    """Atoms by predicate, and by (predicate, position, argument).

    The positional buckets let a call literal whose argument is already
    ground scan only the atoms that agree on it, instead of the whole
    predicate extension.
    """

    __slots__ = ("by_pred", "by_arg")

    def __init__(self, atoms=()):
        self.by_pred = {}
        self.by_arg = {}
        for a in atoms:
            self.add(a)

    def add(self, atom):
        self.by_pred.setdefault(atom.pred, set()).add(atom)
        for i, t in enumerate(atom.args):
            self.by_arg.setdefault((atom.pred, i, t), set()).add(atom)

    def discard(self, atom):
        """Forget an indexed atom, so it can no longer fire anything."""
        self.by_pred[atom.pred].discard(atom)
        for i, t in enumerate(atom.args):
            self.by_arg[(atom.pred, i, t)].discard(atom)

    def candidates(self, call, bindings):
        """The smallest bucket consistent with the call's ground arguments."""
        best = self.by_pred.get(call.pred)
        if not best:
            return ()
        for i, p in enumerate(call.args):
            if isinstance(p, Var):
                p = bindings.get(p.name)
                if p is None:
                    continue
            elif not isinstance(p, (Int, Symbol)):
                continue  # non-atomic pattern; leave it to the matcher
            bucket = self.by_arg.get((call.pred, i, p), ())
            if len(bucket) < len(best):
                best = bucket
                if not best:
                    break
        return best


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
    """Close one answer group's value set under the join, in place.

    Returns the values actually added. Lattices whose join always
    returns one of its operands cannot create anything, so they skip
    the pairwise probing outright.
    """
    fresh = [v for v in new_values if v not in values]
    values.update(fresh)
    if spec.lattice.selective:
        return fresh
    added = []
    frontier = list(fresh) if len(values) > len(fresh) else list(values)
    while frontier:
        next_frontier = []
        for x in frontier:
            for y in list(values):
                j = join_values(spec.lattice, x, y)
                if j not in values:
                    values.add(j)
                    next_frontier.append(j)
                    added.append(j)
                    if len(values) > budget:
                        raise _BudgetExceeded
        frontier = next_frontier
    return added


def close_answer_groups(specs, atoms, budget) -> frozenset:
    """Close each (predicate, inputs) answer group under its join.

    The result keeps the original atoms and adds one atom per
    join-created value, so join consequences become visible to the
    next immediate step. Groups under a selective lattice cannot gain
    a value and are skipped. When no group gains one, the result is
    `atoms` itself.
    """
    groups = {}
    for atom in atoms:
        spec = specs[atom.pred]
        if not spec.lattice.selective:
            groups.setdefault(spec.key_of(atom), set()).add(spec.abstract_atom(atom))
    added = set()
    for key, values in groups.items():
        spec = specs[key[0]]
        for v in _close_group(spec, set(), values, budget):
            added.add(spec.atom_of(key, v))
    return frozenset(atoms).union(added) if added else atoms


def join_extended_step(clauses, specs, atoms, budget) -> frozenset:
    return close_answer_groups(specs, immediate_step(clauses, atoms), budget)


def aggregate_model(specs, atoms) -> frozenset:
    """Post-processing: aggregate the atoms per answer group, then read
    the surviving atoms back out."""
    return table_atoms(specs, aggregate_atoms(specs, atoms))


# --- fueled fixpoints ------------------------------------------------------


def kleene_fixpoint(step, start, fuel, size_of=len) -> FixpointResult:
    """Iterate `step` from `start` until it stabilises, at most `fuel`
    times, giving up early when the value outgrows `fuel` as well."""
    value = start
    steps = 0
    while steps < fuel:
        try:
            nxt = step(value)
        except _BudgetExceeded:
            return FixpointResult(False, value, steps)
        steps += 1
        if nxt == value:
            return FixpointResult(True, value, steps)
        if size_of(nxt) > fuel:
            return FixpointResult(False, nxt, steps)
        value = nxt
    return FixpointResult(False, value, steps)


def _stratum_lfp_naive(clauses, specs, fuel) -> FixpointResult:
    # accumulating step: keeps the chain ascending even for a join that
    # is not inflationary; identical to plain iteration for monotone steps
    def step(x):
        return x | join_extended_step(clauses, specs, x, fuel)
    return kleene_fixpoint(step, frozenset(), fuel)


def _stratum_lfp_delta(clauses, specs, fuel) -> FixpointResult:
    """Same fixpoint as the naive loop, maintained incrementally.

    The interpretation only ever grows, so each iteration needs just
    the firings that read at least one atom of the last delta, and each
    answer group's closure only has to absorb the new values. The chain
    of interpretations and the step count match the naive loop exactly.
    """
    atoms = set()
    idx = _AtomIndex()      # everything derived so far
    old_idx = _AtomIndex()  # everything except the newest delta
    tp = set()
    groups = {}
    steps = 0
    delta = None

    while steps < fuel:
        derived = set()
        _fire_delta(clauses, idx, derived, delta, old_idx)
        tp_delta = derived - tp
        tp |= tp_delta

        new_atoms = set(tp_delta)
        try:
            for atom in tp_delta:
                spec = specs[atom.pred]
                key = spec.key_of(atom)
                values = groups.setdefault(key, set())
                for v in _close_group(spec, values, (spec.abstract_atom(atom),), fuel):
                    new_atoms.add(spec.atom_of(key, v))
        except _BudgetExceeded:
            return FixpointResult(False, frozenset(atoms), steps)
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


def stratum_lfp(clauses, specs, fuel, semi_naive=True) -> FixpointResult:
    """Fueled least fixpoint of the join-extended step over one clause set."""
    if semi_naive:
        return _stratum_lfp_delta(clauses, specs, fuel)
    return _stratum_lfp_naive(clauses, specs, fuel)


def stratified_reference_semantics(program: Program, fuel=DEFAULT_FUEL,
                                   semi_naive=True) -> EvalOutcome:
    """Post-processing semantics: per stratum, the fueled least fixpoint
    of the join-extended step, aggregated once on convergence."""
    specs = build_specs(program)
    lower = frozenset()
    results = []
    total = 0
    for preds in stratify(program).strata:
        clauses = stratum_clauses(program, preds) + tuple(
            fact_clause(a) for a in atom_sorted(lower))
        fp = stratum_lfp(clauses, specs, fuel, semi_naive)
        total += fp.steps
        names = tuple(sorted(preds))
        if not fp.converged:
            partial = aggregate_model(specs, frozenset(fp.value) | lower)
            results.append(StratumResult(names, partial, fp.steps, False))
            return EvalOutcome(False, partial, aggregate_atoms(specs, partial),
                               total, tuple(results), names)
        lower = aggregate_model(specs, fp.value)
        results.append(StratumResult(names, lower, fp.steps, True))
    return EvalOutcome(True, lower, aggregate_atoms(specs, lower),
                       total, tuple(results), None)
