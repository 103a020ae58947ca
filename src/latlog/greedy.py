"""Greedy evaluation: subsumption applied at every step.

Where the reference semantics runs the whole fixpoint first and
aggregates once at the end, the greedy strategy aggregates the output
of every single step, the way tabling engines fold each new answer
into the table as soon as it appears. One greedy step reads the atoms
a table claims true, applies the immediate-consequence step, and
aggregates the result back into a table.

The chain of tables is forced upward by joining each step's output
onto the running table: t' = t ⊔ α(T(γ(t))). On programs where greedy
is sound this computes the same answers as the reference; on others
(that is the point of the checker) it settles somewhere else or
converges where the reference diverges.

The loop is semi-naive. T has no negation, so it is monotone in the
atom set, and a firing that reads only atoms already in the previous
γ(t) was aggregated into t by the previous step. Each step therefore
fires only the rules that read at least one atom the last step added,
and joins what they derive onto the keys it touches. The table and an
index over γ(t) are updated in place; when a key's value moves, its
old atom leaves the index, so a subsumed answer never fires again.
The chain of tables and the step count are those of the naive loop
(`greedy_step` joined onto the table until it is stable), which the
tests keep as the oracle.
"""

from __future__ import annotations

from .lattice import (
    AnswerTable,
    aggregate_atoms,
    build_specs,
    empty_table,
    join_values,
    table_atoms,
)
from .program import Program, fact_clause
from .reference import (
    DEFAULT_FUEL,
    EvalOutcome,
    FixpointResult,
    StratumResult,
    _AtomIndex,
    _fire_delta,
    immediate_step,
)
from .stratify import stratify, stratum_clauses
from .terms import atom_sorted


def greedy_step(clauses, specs, table):
    """Aggregate the immediate consequences of the table's atoms."""
    return aggregate_atoms(specs, immediate_step(clauses, table_atoms(specs, table)))


def greedy_fixpoint(clauses, specs, fuel, trace=None) -> FixpointResult:
    """Inflationary iteration: t := t joined with step(t) until stable.

    The raw step alone need not be monotone (again: the point), so the
    loop forces an upward chain by construction. `trace` collects every
    table along the run for the checker's trace strategy.
    """
    entries = {}
    idx = _AtomIndex()  # the atoms of the current table
    delta = None        # the atoms the last step added; None before the first
    if trace is not None:
        trace.append(empty_table())
    steps = 0
    while steps < fuel:
        derived = set()
        # idx as the "old" index too: γ(t) is not monotone, and firings
        # that read two delta atoms are merely found twice
        _fire_delta(clauses, idx, derived, delta, idx)
        steps += 1
        delta = []
        for key, value in aggregate_atoms(specs, derived).entries.items():
            spec = specs[key[0]]
            old = entries.get(key)
            if old is not None:
                value = join_values(spec.lattice, old, value)
                if value == old:
                    continue
                idx.discard(spec.atom_of(key, old))
            entries[key] = value
            atom = spec.atom_of(key, value)
            idx.add(atom)
            delta.append(atom)
        if not delta:
            return FixpointResult(True, AnswerTable(entries), steps)
        if trace is not None:
            trace.append(AnswerTable(dict(entries)))
        if len(entries) > fuel:
            break
    return FixpointResult(False, AnswerTable(entries), steps)


def stratified_greedy_semantics(program: Program, fuel=DEFAULT_FUEL,
                                trace_sink=None) -> EvalOutcome:
    """Greedy evaluation stratum by stratum, like the reference engine.

    When `trace_sink` is a list, it receives one (clauses, tables)
    pair per stratum: the clauses the stratum ran with (lower-strata
    answers injected as facts) and the chain of tables visited.
    """
    specs = build_specs(program)
    lower = frozenset()
    table = empty_table()
    results = []
    total = 0
    for preds in stratify(program).strata:
        clauses = stratum_clauses(program, preds) + tuple(
            fact_clause(a) for a in atom_sorted(lower))
        trace = [] if trace_sink is not None else None
        fp = greedy_fixpoint(clauses, specs, fuel, trace)
        if trace_sink is not None:
            trace_sink.append((clauses, tuple(trace)))
        total += fp.steps
        names = tuple(sorted(preds))
        atoms = table_atoms(specs, fp.value)
        if not fp.converged:
            results.append(StratumResult(names, atoms, fp.steps, False))
            return EvalOutcome(False, atoms, fp.value, total, tuple(results), names)
        # the lower strata's answers came in as facts, so this table
        # already holds every answer so far
        lower, table = atoms, fp.value
        results.append(StratumResult(names, lower, fp.steps, True))
    return EvalOutcome(True, lower, table, total, tuple(results), None)
