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

Rules fire through plans: `_compile` turns a clause, for one pivot
(the call that reads the newest atoms), into closures over a list of
variable slots. Each call reads the index bucket its bound positions
select, binds its variables by slot and runs the builtins after it;
the last adds the head. A fixpoint or check compiles on first use. A
ground fact needs no plan: it adds its head atom as it stands.

Divergence is an outcome, not a hang. `fuel` bounds the number of
operator applications and also the size the interpretation may reach,
since a geometrically exploding model would otherwise outlive any
step budget.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .builtins import builtin_test
from .errors import LatlogError
from .lattice import _picker, aggregate_atoms, build_specs, join_values, table_atoms
from .program import (
    Builtin,
    Call,
    Clause,
    Program,
    Var,
    fact_clause,
    pattern_vars,
    term_builder,
    term_matcher,
)
from .stratify import stratify, stratum_clauses
from .terms import Atom, Int, Symbol, atom_sorted

DEFAULT_FUEL = 10000


class _BudgetExceeded(Exception):
    """Internal: a join closure outgrew the fuel budget mid-step."""


FixpointResult = namedtuple("FixpointResult", "converged value steps")

# preds: sorted predicate names; atoms: the aggregated atoms once the
# stratum settled (partial if it did not)
StratumResult = namedtuple("StratumResult", "preds atoms steps converged")

# answers: the aggregated answer atoms, partial when diverged; table:
# (pred, inputs) -> value, where an absent key is bottom; steps: operator
# applications across all strata; strata: one StratumResult per stratum
# reached; diverged_stratum: the sorted preds of the stratum that ran dry
EvalOutcome = namedtuple("EvalOutcome", "converged answers table steps strata diverged_stratum",
                         defaults=(None,))


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
    Each bucket is a dict used as an insertion-ordered set, so an index
    built from sorted atoms yields them in sorted order.
    """

    __slots__ = ("by_pred", "by_args")

    def __init__(self, atoms=()):
        self.by_pred = {}
        self.by_args = {}  # pred -> {positions: (their itemgetter, {its value: atoms})}
        for a in atoms:
            self.add(a)

    def add(self, atom):
        atoms = self.by_pred.get(atom.pred)
        if atoms is None:
            self.by_pred[atom.pred] = {atom: None}
        else:
            atoms[atom] = None
        indexes = self.by_args.get(atom.pred)
        if indexes:
            args = atom.args
            for pick, buckets in indexes.values():
                key = pick(args)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {atom: None}
                else:
                    bucket[atom] = None

    def discard(self, atom):
        """Forget an indexed atom, so it can no longer fire anything."""
        self.by_pred[atom.pred].pop(atom, None)
        for pick, buckets in self.by_args.get(atom.pred, {}).values():
            buckets[pick(atom.args)].pop(atom, None)

    def lookup(self, pred, positions):
        """The predicate's atoms, or with `positions` its index on them."""
        if not positions:
            return self.by_pred.get(pred, ())
        indexes = self.by_args.setdefault(pred, {})
        if positions not in indexes:
            pick, buckets = indexes[positions] = itemgetter(*positions), {}
            for atom in self.by_pred.get(pred, ()):
                buckets.setdefault(pick(atom.args), {})[atom] = None
        return indexes[positions][1]


def clause_plans(clauses):
    """Each clause with a dict for its plans by pivot, which
    `_fire_clause` fills, and its head atom if it is a ground fact,
    which fires without a plan. Keep it while one fixpoint or check runs."""
    return tuple((c, {}, None if c.body or any(map(pattern_vars, c.head.args))
                  else Atom(c.head.pred, c.head.args)) for c in clauses)


def _compile(clause, pivot):
    """A clause's plan for one pivot: run(idx, delta_idx, heads). A call binds
    its new variables by slot, and matches the rest by `term_matcher`."""
    slots = {}                  # variable name -> slot
    template = [None, None]     # heads, delta_idx, then constants, variables, pools
    lookups = []                # (pool slot, reads delta_idx, pred, bound positions)

    def new_slot(value=None):
        template.append(value)
        return len(template) - 1
    # `_call_step` arguments by call; a first one reads one empty atom, for leading builtins
    calls = [[new_slot((Atom("", ()),)), None, _picker(()), 0, 0, None, False, []]]
    for i, lit in enumerate(clause.body):
        if isinstance(lit, Builtin):
            calls[-1][-1].append(builtin_test(lit, slots, new_slot))
            continue
        key, fresh, rest, seen = [], [], [], set()
        for pos, p in enumerate(lit.args):
            if isinstance(p, Var) and p.name in slots:
                key.append((pos, slots[p.name]))
            elif isinstance(p, (Int, Symbol)):
                key.append((pos, new_slot(p)))
            elif isinstance(p, Var) and p.name not in seen:
                fresh.append(pos)
            else:  # a repeated variable, or a compound or list pattern
                rest.append(pos)
            seen |= pattern_vars(p)
        lo = len(template)
        for pos in fresh:
            slots[lit.args[pos].name] = new_slot()
        ms = [(pos, term_matcher(lit.args[pos], slots, new_slot)) for pos in rest]
        match = (lambda args, sl, ms=ms: all(m(args[pos], sl) for pos, m in ms)) if ms else None
        k = new_slot()
        lookups.append((k, i == pivot, lit.pred, tuple(pos for pos, _ in key)))
        calls.append([k, itemgetter(*[s for _, s in key]) if key else None, _picker(fresh), lo,
                      lo + len(fresh), match, pivot is not None and i < pivot and lit.pred, []])
    args = clause.head.args
    if all(isinstance(a, Var) and a.name in slots or not pattern_vars(a) for a in args):
        ks = [slots[a.name] if isinstance(a, Var) else new_slot(a) for a in args]
        head = itemgetter(*ks) if len(ks) > 1 else lambda sl: tuple([sl[k] for k in ks])
    else:  # compound patterns, or a variable no literal binds
        builders = [term_builder(a, slots) for a in args]

        def head(sl):
            return tuple([b(sl) for b in builders])
    nxt = None
    for call in reversed(calls):
        nxt = _call_step(*call, nxt, head)

    def run(idx, delta_idx, heads):
        sl = template.copy()
        sl[0], sl[1] = heads, delta_idx
        for k, from_delta, pred, positions in lookups:
            sl[k] = (delta_idx if from_delta else idx).lookup(pred, positions)
        nxt(sl)
    return run


def _call_step(k, key, pick, lo, hi, match, skip_delta, tests, nxt, head):
    """One call's loop; `skip_delta` names its predicate if it precedes
    the pivot. With no `nxt`, the call is the last and adds the head."""
    def step(sl):
        pool = sl[k] if key is None else sl[k].get(key(sl), ())
        heads = sl[0]
        skip = sl[1].by_pred.get(skip_delta) if skip_delta else None
        for atom in pool:
            if skip is not None and atom in skip:
                continue
            args = atom.args
            sl[lo:hi] = pick(args)
            if match is not None and not match(args, sl):
                continue
            for test in tests:
                if not test(sl):
                    break
            else:
                if nxt is None:
                    heads.add(head(sl))
                else:
                    nxt(sl)
    return step


def _fire_clause(plan, pivot, idx, derived, delta_idx=None):
    """Add to `derived` the firings of one clause, run by its plan for
    the pivot, which is compiled on first use and kept in `plan`. The
    pivot reads `delta_idx`, the calls before it the rest of `idx`, and
    those after it all of `idx`, so pivoting each call in turn finds a
    firing that reads the delta once, at its first delta atom."""
    clause, runs, _ = plan
    run = runs.get(pivot)
    if run is None:
        run = runs[pivot] = _compile(clause, pivot)
    heads = set()  # argument tuples; many firings derive the same head
    run(idx, delta_idx, heads)
    derived.update([Atom(clause.head.pred, args) for args in heads])


def _fire_delta(plans, idx, derived, delta=None):
    """Add to `derived` the firings of `clause_plans` over `idx` that read
    an atom of `delta`, which `idx` holds too: each call that can match a
    delta atom is the pivot in turn, through its plan. Without, all.

    When a firing raises, the same firings run again over indexes built
    from the atoms in atom order, and that run's error is raised, so it
    names the same atoms at every hash seed."""
    try:
        _fire_pivots(plans, idx, derived, delta)
    except LatlogError:
        pool = atom_sorted([a for atoms in idx.by_pred.values() for a in atoms])
        _fire_pivots(plans, _AtomIndex(pool), set(),
                     None if delta is None else atom_sorted(delta))
        raise


def _fire_pivots(plans, idx, derived, delta):
    if delta is None:
        for plan in plans:
            if plan[2] is None:
                _fire_clause(plan, None, idx, derived)
            else:
                derived.add(plan[2])
        return
    delta_idx = _AtomIndex(delta)
    for plan in plans:
        for j, lit in enumerate(plan[0].body):
            if isinstance(lit, Call) and lit.pred in delta_idx.by_pred:
                _fire_clause(plan, j, idx, derived, delta_idx)


def immediate_step(clauses, atoms) -> frozenset:
    """One application of the immediate-consequence step. `clauses` may
    be `clause_plans`, so that repeated steps compile each clause once;
    a plan is a tuple as a clause is, so only a `Clause` is compiled."""
    if clauses and isinstance(clauses[0], Clause):
        clauses = clause_plans(clauses)
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

    One round suffices. If C is closed, so is C | {x} | {x v y : y in C},
    since (x v y) v (x v z) = x v (y v z) and y v z is in C. So each new
    value that the set does not hold yet joins once with a snapshot of
    the set as it stands, and the values it creates are never joined
    again.
    """
    lattice = spec.lattice
    new_values = set(new_values)
    created = []
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


def _group_values(specs, atoms):
    """The values a set of atoms brings to the answer groups it
    touches, as (spec, key, values), one per group.

    Groups under a selective lattice cannot gain a value from the join,
    so their atoms are left out; they are only abstracted where the
    lattice's domain can reject them. Every atom is abstracted before
    the first group is yielded, so a domain error comes before any
    closure runs.
    """
    batches = {}
    for atom in atoms:
        spec = specs[atom.pred]
        lattice = spec.lattice
        if lattice.selective:
            if lattice.checks_domain:
                spec.abstract_atom(atom)
            continue
        key = spec.key_of(atom)
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
    for spec, key, values in _group_values(specs, atoms):
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
    all of them, in one round. The chain of interpretations and the
    step count match the naive loop exactly.

    Past the rule firings, only abstraction can raise, since the join
    of two accepted values is always defined. On an error the delta is
    abstracted again in atom order, and the first error that pass meets
    is raised, so it names the same atom at every hash seed.
    """
    plans = clause_plans(clauses)
    atoms = set()
    idx = _AtomIndex()  # everything derived so far, the newest delta too
    groups = {}
    steps = 0
    delta = None

    while steps < fuel:
        derived = set()
        _fire_delta(plans, idx, derived, delta)
        derived -= atoms  # an atom already held has its value in its group
        new_atoms = set(derived)
        try:
            for spec, key, batch in _group_values(specs, derived):
                values = groups.setdefault(key, set())
                for v in _close_group(spec, values, batch, fuel):
                    new_atoms.add(spec.atom_of(key, v))
        except _BudgetExceeded:
            return FixpointResult(False, frozenset(atoms), steps)
        except LatlogError:
            for atom in atom_sorted(derived):
                specs[atom.pred].abstract_atom(atom)
            raise
        steps += 1

        fresh = new_atoms - atoms
        if not fresh:
            return FixpointResult(True, frozenset(atoms), steps)
        atoms |= fresh
        if len(atoms) > fuel:
            return FixpointResult(False, frozenset(atoms), steps)
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
    table = {}
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
