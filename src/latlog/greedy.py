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

Strata run in the reference's driver, `reference.evaluate_strata`;
only the fixpoint differs.
"""

from __future__ import annotations

from .lattice import aggregate_atoms, join_values, table_atoms
from .program import Program
from .reference import (
    DEFAULT_FUEL,
    EvalOutcome,
    FixpointResult,
    _AtomIndex,
    _fire_delta,
    clause_plans,
    evaluate_strata,
    immediate_step,
)


def greedy_step(clauses, specs, table):
    """Aggregate the immediate consequences of the table's atoms."""
    return aggregate_atoms(specs, immediate_step(clauses, table_atoms(specs, table)))


def greedy_fixpoint(clauses, specs, fuel, trace=None) -> FixpointResult:
    """Inflationary iteration: t := t joined with step(t) until stable.

    The raw step alone need not be monotone (again: the point), so the
    loop forces an upward chain by construction. `trace` collects every
    table along the run for the checker's trace strategy.
    """
    plans = clause_plans(clauses)
    table = {}
    idx = _AtomIndex()  # the atoms of the current table
    delta = None        # the atoms the last step added; None before the first
    if trace is not None:
        trace.append({})
    steps = 0
    while steps < fuel:
        derived = set()
        _fire_delta(plans, idx, derived, delta)
        steps += 1
        delta = []
        for key, value in aggregate_atoms(specs, derived).items():
            spec = specs[key[0]]
            old = table.get(key)
            if old is not None:
                value = join_values(spec.lattice, old, value)
                if value == old:
                    continue
                idx.discard(spec.atom_of(key, old))
            table[key] = value
            atom = spec.atom_of(key, value)
            idx.add(atom)
            delta.append(atom)
        if not delta:
            return FixpointResult(True, table, steps)
        if trace is not None:
            trace.append(dict(table))
        if len(table) > fuel:
            break
    return FixpointResult(False, table, steps)


def stratified_greedy_semantics(program: Program, fuel=DEFAULT_FUEL,
                                trace_sink=None) -> EvalOutcome:
    """Greedy evaluation stratum by stratum, like the reference engine.

    When `trace_sink` is a list, it receives one (clauses, tables)
    pair per stratum: the clauses the stratum ran with (lower-strata
    answers injected as facts) and the chain of tables visited.
    """
    def fixpoint(clauses, specs, fuel, lower):
        trace = [] if trace_sink is not None else None
        fp = greedy_fixpoint(clauses, specs, fuel, trace)
        if trace_sink is not None:
            trace_sink.append((clauses, tuple(trace)))
        return fp, fp.value

    return evaluate_strata(program, fuel, fixpoint)
