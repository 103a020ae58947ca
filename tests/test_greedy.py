"""Greedy evaluation: per-step subsumption and its consequences."""

import pytest

from conftest import CORPUS_FILES, DAG_PROGRAMS, random_dag_program, table_leq
from latlog.greedy import greedy_fixpoint, greedy_step, stratified_greedy_semantics
from latlog.lattice import (
    DUMMY,
    SetVal,
    TermVal,
    aggregate_atoms,
    build_specs,
    empty_table,
    table_atoms,
    table_join,
)
from latlog.program import fact_clause
from latlog.reference import (
    EvalOutcome,
    FixpointResult,
    StratumResult,
    immediate_step,
    stratified_reference_semantics,
)
from latlog.stratify import stratify, stratum_clauses
from latlog.terms import Atom, Int, Symbol, atom_sorted


def test_step_of_the_empty_table_aggregates_the_facts(programs):
    prog = programs["unsound_max.pl"]
    specs = build_specs(prog)
    got = greedy_step(prog.clauses, specs, empty_table())
    assert got.entries == {("p", ()): TermVal(Int(1))}
    facts = immediate_step(prog.clauses, frozenset())
    assert got.entries == aggregate_atoms(specs, facts).entries


def test_raw_step_oscillates_on_the_max_program(programs):
    # p(1) enables p(2); p(2) enables nothing beyond the facts; the
    # un-joined step therefore flips between the two tables
    prog = programs["unsound_max.pl"]
    specs = build_specs(prog)
    one = greedy_step(prog.clauses, specs, empty_table())
    two = greedy_step(prog.clauses, specs, one)
    assert two.entries == {("p", ()): TermVal(Int(2))}
    assert greedy_step(prog.clauses, specs, two).entries == one.entries


def test_fixpoint_joins_the_oscillation_shut(programs):
    prog = programs["unsound_max.pl"]
    specs = build_specs(prog)
    trace = []
    fp = greedy_fixpoint(prog.clauses, specs, 100, trace)
    assert fp.converged
    assert fp.steps == 3
    assert fp.value.entries == {("p", ()): TermVal(Int(2))}
    # the trace is the ascending chain of tables the run visited
    assert [t.entries for t in trace] == [
        {}, {("p", ()): TermVal(Int(1))}, {("p", ()): TermVal(Int(2))}]
    for earlier, later in zip(trace, trace[1:]):
        assert table_leq(specs, earlier, later)


def test_greedy_misses_the_reference_answer(programs):
    prog = programs["unsound_max.pl"]
    greedy = stratified_greedy_semantics(prog, 100)
    reference = stratified_reference_semantics(prog, 100)
    assert greedy.answers == frozenset({Atom("p", (Int(2),))})
    assert reference.answers == frozenset({Atom("p", (Int(3),))})


def test_greedy_agrees_on_the_sound_programs(programs):
    for name in ("simple.pl", "shortest_path.pl", "stratified_path.pl",
                 "lub_lattice.pl"):
        greedy = stratified_greedy_semantics(programs[name], 200)
        reference = stratified_reference_semantics(programs[name], 200)
        assert greedy.converged and reference.converged
        assert greedy.answers == reference.answers, name


def test_greedy_converges_where_the_reference_cannot(programs):
    out = stratified_greedy_semantics(programs["even_odd.pl"], 100)
    assert out.converged
    assert out.answers == frozenset({Atom("even", (Int(0),)), Atom("odd", (Int(1),))})


def test_downstream_stratum_reads_the_collapsed_answers(programs):
    out = stratified_greedy_semantics(programs["even_odd_also.pl"], 100)
    assert out.converged
    assert out.answers == frozenset({
        Atom("even", (Int(0),)), Atom("odd", (Int(1),)),
        Atom("also_odd", (Int(1),))})


def test_cyclic_distances_match_a_floyd_warshall_oracle(programs):
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
    dist = {(x, y): 1 for x, y in edges}
    for k in nodes:
        for i in nodes:
            for j in nodes:
                ik, kj = dist.get((i, k)), dist.get((k, j))
                if ik is None or kj is None:
                    continue
                if (i, j) not in dist or dist[(i, j)] > ik + kj:
                    dist[(i, j)] = ik + kj

    out = stratified_greedy_semantics(programs["cyclic_path.pl"], 200)
    assert out.converged
    expected = {("p", (Symbol(x), Symbol(y))): TermVal(Int(d))
                for (x, y), d in dist.items()}
    for (x, y) in edges:
        expected[("e", (Symbol(x), Symbol(y), Symbol("nt")))] = SetVal(frozenset({DUMMY}))
    assert out.table.entries == expected


def test_unbounded_values_diverge(programs):
    out = stratified_greedy_semantics(programs["longest_path.pl"], 50)
    assert not out.converged
    assert out.diverged_stratum == ("p",)


def test_trace_sink_collects_one_chain_per_stratum(programs):
    sink = []
    stratified_greedy_semantics(programs["stratified_path.pl"], 100, trace_sink=sink)
    assert len(sink) == 3
    for clauses, tables in sink:
        assert tables[0] == empty_table()
        assert len(tables) >= 1
        assert clauses


# --- the semi-naive loop against the naive one -------------------------------


def naive_greedy_fixpoint(clauses, specs, fuel, trace):
    """The definition: join a whole greedy step onto the table until stable."""
    table = empty_table()
    trace.append(table)
    steps = 0
    while steps < fuel:
        nxt = table_join(specs, (table, greedy_step(clauses, specs, table)))
        steps += 1
        if nxt == table:
            return FixpointResult(True, table, steps)
        table = nxt
        trace.append(table)
        if len(table.entries) > fuel:
            return FixpointResult(False, table, steps)
    return FixpointResult(False, table, steps)


def naive_greedy_semantics(program, fuel, trace_sink):
    specs = build_specs(program)
    lower = frozenset()
    results = []
    total = 0
    for preds in stratify(program).strata:
        clauses = stratum_clauses(program, preds) + tuple(
            fact_clause(a) for a in atom_sorted(lower))
        trace = []
        fp = naive_greedy_fixpoint(clauses, specs, fuel, trace)
        trace_sink.append((clauses, tuple(trace)))
        total += fp.steps
        names = tuple(sorted(preds))
        atoms = table_atoms(specs, fp.value)
        if not fp.converged:
            results.append(StratumResult(names, atoms, fp.steps, False))
            return EvalOutcome(False, atoms, fp.value, total, tuple(results), names)
        lower = atoms
        results.append(StratumResult(names, lower, fp.steps, True))
    return EvalOutcome(True, lower, aggregate_atoms(specs, lower),
                       total, tuple(results), None)


def assert_same_run(program, fuel):
    fast_sink, slow_sink = [], []
    fast = stratified_greedy_semantics(program, fuel, trace_sink=fast_sink)
    slow = naive_greedy_semantics(program, fuel, slow_sink)
    # per stratum: the clauses, the chain of tables, steps and convergence
    assert fast_sink == slow_sink
    assert fast.strata == slow.strata
    assert (fast.converged, fast.steps, fast.diverged_stratum) == (
        slow.converged, slow.steps, slow.diverged_stratum)
    assert fast.answers == slow.answers
    assert fast.table.entries == slow.table.entries
    return fast


@pytest.mark.parametrize("name", CORPUS_FILES)
@pytest.mark.parametrize("fuel", [4, 50])
def test_semi_naive_loop_matches_the_naive_one_on_the_corpus(name, fuel, programs):
    out = assert_same_run(programs[name], fuel)
    if name == "longest_path.pl" and fuel == 50:
        assert not out.converged


@pytest.mark.parametrize("lattice", sorted(DAG_PROGRAMS))
@pytest.mark.parametrize("seed", range(3))
def test_semi_naive_loop_matches_the_naive_one_on_random_dags(lattice, seed):
    out = assert_same_run(random_dag_program(lattice, seed), 10000)
    assert out.converged
