"""The two step operators, fueled iteration, and stratified evaluation."""

import os
import pathlib
import subprocess
import sys
from itertools import combinations

import pytest

from conftest import (
    CORPUS_FILES,
    DAG_PROGRAMS,
    aggregate_model,
    join_extended_step,
    kleene_fixpoint,
    naive_reference_semantics,
    naive_stratum_lfp,
    random_dag_program,
)
import latlog.reference
from latlog.lattice import build_specs, join_values, table_atoms
from latlog.parser import parse_program
from latlog.reference import (
    close_answer_groups,
    immediate_step,
    stratified_reference_semantics,
    stratum_lfp,
)
from latlog.terms import Atom, Int, Symbol, atom_sorted


def atoms_of(*specs):
    """p(a,b,1) written as ("p", "a", "b", 1)."""
    out = set()
    for s in specs:
        args = tuple(Int(x) if isinstance(x, int) else Symbol(x) for x in s[1:])
        out.add(Atom(s[0], args))
    return frozenset(out)


PATH_MODEL = atoms_of(
    ("e", "a", "b", "nt"), ("e", "b", "c", "nt"), ("e", "a", "c", "nt"),
    ("p", "a", "b", 1), ("p", "b", "c", 1), ("p", "a", "c", 1), ("p", "a", "c", 2))


# --- immediate step -----------------------------------------------------


def test_step_on_empty_derives_the_facts(programs):
    prog = programs["shortest_path.pl"]
    got = immediate_step(prog.clauses, frozenset())
    assert got == atoms_of(("e", "a", "b", "nt"), ("e", "b", "c", "nt"),
                           ("e", "a", "c", "nt"))


def test_step_applies_rules_once(programs):
    prog = programs["shortest_path.pl"]
    efacts = immediate_step(prog.clauses, frozenset())
    got = immediate_step(prog.clauses, efacts)
    assert got == efacts | atoms_of(("p", "a", "b", 1), ("p", "b", "c", 1),
                                    ("p", "a", "c", 1))


def test_step_evaluates_builtins(programs):
    prog = programs["even_odd.pl"]
    got = immediate_step(prog.clauses, atoms_of(("even", 0)))
    assert got == atoms_of(("even", 0), ("odd", 1))


def test_step_is_monotone_on_the_path_model(programs):
    prog = programs["shortest_path.pl"]
    pool = atom_sorted(PATH_MODEL)
    for n in range(len(pool) + 1):
        for smaller in combinations(pool, n):
            i = frozenset(smaller)
            assert immediate_step(prog.clauses, i) <= immediate_step(prog.clauses, PATH_MODEL)


# --- join-extended step ---------------------------------------------------


def test_extended_step_equals_plain_step_plus_closure(programs):
    prog = programs["lub_lattice.pl"]
    specs = build_specs(prog)
    got = join_extended_step(prog.clauses, specs, frozenset(), 100)
    assert got == close_answer_groups(specs, immediate_step(prog.clauses, frozenset()), 100)


def test_extended_step_adds_the_join_of_two_answers(programs):
    prog = programs["lub_lattice.pl"]
    specs = build_specs(prog)
    got = join_extended_step(prog.clauses, specs, frozenset(), 100)
    # facts p(a), p(b) fire; their join p(c) is added by the closure
    assert got == atoms_of(("p", "a"), ("p", "b"), ("p", "c"))


def test_closure_matches_subset_enumeration(programs):
    # closing under the binary join reaches exactly the joins of all
    # finite nonempty subsets
    prog = programs["lub_lattice.pl"]
    specs = build_specs(prog)
    spec = specs["p"]
    base = [("p", "a"), ("p", "b"), ("p", "d")]
    atoms = atoms_of(*base)

    values = [spec.abstract_atom(a) for a in atoms]
    expected = set(atoms)
    for n in range(1, len(values) + 1):
        for chosen in combinations(values, n):
            v = chosen[0]
            for w in chosen[1:]:
                v = join_values(spec.lattice, v, w)
            expected.add(spec.atom_of(("p", ()), v))
    got = close_answer_groups(specs, atoms, 100)
    assert got == frozenset(expected)
    assert got == atoms | atoms_of(("p", "c"))


def test_linear_joins_never_create_atoms(programs):
    for name in ("shortest_path.pl", "stratified_path.pl"):
        prog = programs[name]
        specs = build_specs(prog)
        i = frozenset()
        for _ in range(4):
            i = immediate_step(prog.clauses, i)
            assert close_answer_groups(specs, i, 1000) == i


def test_closure_returns_its_input_under_selective_lattices():
    prog = parse_program(
        ":- table a(min). :- table b(max). :- table c(lattice(max_inf/3)).\n"
        ":- table d(lattice(min/3)). :- table e(index).\n")
    specs = build_specs(prog)
    atoms = atoms_of(("a", 1), ("a", 2), ("b", "x"), ("b", "y"), ("c", 3),
                     ("c", "infty"), ("d", 4), ("d", 5), ("e", 6))
    for pred in "abcde":
        assert specs[pred].lattice.selective, pred
    assert close_answer_groups(specs, atoms, 1) is atoms


# --- fueled iteration ------------------------------------------------------


def test_kleene_converges_and_counts_steps():
    def grow(s):
        return s | {len(s)} if len(s) < 3 else s

    fp = kleene_fixpoint(grow, frozenset(), 50)
    assert fp.converged
    assert fp.value == {0, 1, 2}
    assert fp.steps == 4  # three growth steps plus the one that stabilised


def test_kleene_runs_out_of_fuel():
    fp = kleene_fixpoint(lambda s: s | {len(s)}, frozenset(), 5)
    assert not fp.converged
    assert fp.steps == 5


def test_kleene_stops_on_oversized_values():
    fp = kleene_fixpoint(lambda s: s | set(range(100)), frozenset(), 10)
    assert not fp.converged
    assert fp.steps == 1


# --- whole-program fixpoints -------------------------------------------


def test_path_fixpoint_is_the_seven_atom_model(programs):
    prog = programs["shortest_path.pl"]
    fp = stratum_lfp(prog.clauses, build_specs(prog), 100)
    assert fp.converged
    assert fp.value == PATH_MODEL


def test_aggregation_collapses_the_path_model(programs):
    specs = build_specs(programs["shortest_path.pl"])
    assert aggregate_model(specs, PATH_MODEL) == PATH_MODEL - atoms_of(("p", "a", "c", 2))
    assert aggregate_model(specs, frozenset()) == frozenset()


def test_plain_and_extended_fixpoints_aggregate_differently(programs):
    # the one-step closure is what lets p(c) feed the p(d) rule
    prog = programs["lub_lattice.pl"]
    specs = build_specs(prog)

    def plain(x):
        return x | immediate_step(prog.clauses, x)

    plain_fp = kleene_fixpoint(plain, frozenset(), 100)
    assert plain_fp.converged
    assert aggregate_model(specs, plain_fp.value) == atoms_of(("p", "c"))

    ext_fp = stratum_lfp(prog.clauses, specs, 100)
    assert ext_fp.converged
    assert ext_fp.value == atoms_of(("p", "a"), ("p", "b"), ("p", "c"), ("p", "d"))
    assert aggregate_model(specs, ext_fp.value) == atoms_of(("p", "d"))


def test_aggregation_is_idempotent_on_fixpoints(programs):
    for name in CORPUS_FILES:
        prog = programs[name]
        specs = build_specs(prog)
        fp = stratum_lfp(prog.clauses, specs, 60)
        once = aggregate_model(specs, fp.value)
        assert aggregate_model(specs, once) == once


def test_aggregate_ignores_clause_syntax(programs):
    # same fixpoint written differently: clause order and variable
    # names differ, the model and its aggregate do not
    variant = parse_program(
        ":- table p(lattice(_,_,min/3)).\n"
        ":- table e/3.\n"
        "e(a,c,nt). e(a,b,nt). e(b,c,nt).\n"
        "p(From,To,D) :- p(From,Mid,A), p(Mid,To,B), D is A + B.\n"
        "p(From,To,1) :- e(From,To,nt).\n")
    original = programs["shortest_path.pl"]
    sv, ov = build_specs(variant), build_specs(original)
    fv = stratum_lfp(variant.clauses, sv, 100)
    fo = stratum_lfp(original.clauses, ov, 100)
    assert fv.value == fo.value
    assert aggregate_model(sv, fv.value) == aggregate_model(ov, fo.value)


# --- stratified evaluation -------------------------------------------------


def test_simple_program_answers(programs):
    out = stratified_reference_semantics(programs["simple.pl"], 100)
    assert out.converged
    assert out.answers == atoms_of(("p", "a"), ("p", "b"), ("q", "a"),
                                   ("q", "b"), ("q", "c"))


def test_max_program_keeps_the_largest(programs):
    out = stratified_reference_semantics(programs["unsound_max.pl"], 100)
    assert out.converged
    assert out.answers == atoms_of(("p", 3))


def test_stratified_copy_sees_only_aggregated_answers(programs):
    out = stratified_reference_semantics(programs["stratified_path.pl"], 100)
    assert out.converged
    assert atoms_of(("s", 1, 3, 1)) <= out.answers
    assert not atoms_of(("s", 1, 3, 2)) & out.answers
    assert [r.preds for r in out.strata] == [("e",), ("p",), ("s",)]


def test_divergence_is_an_outcome(programs):
    out = stratified_reference_semantics(programs["even_odd.pl"], 200)
    assert not out.converged
    assert out.diverged_stratum == ("even", "odd")
    assert len(out.strata) == 1
    # partial answers still come back aggregated
    assert atoms_of(("even", 0)) <= out.answers


def test_divergence_stops_before_later_strata(programs):
    out = stratified_reference_semantics(programs["even_odd_also.pl"], 200)
    assert not out.converged
    assert out.diverged_stratum == ("even", "odd")
    assert all("also_odd" != a.pred for a in out.answers)


# The seeded DAG programs cover groups under selective lattices, whose
# atoms the delta loop passes over, next to groups it must close, and
# rules whose calls read the index at one and at two bound positions.
DAG_CASES = [(f"dag-{lattice}-{seed}", 10000)
             for lattice in sorted(DAG_PROGRAMS) for seed in range(3)]


@pytest.mark.parametrize("name,fuel", [
    ("simple.pl", 100),
    ("unsound_max.pl", 100),
    ("shortest_path.pl", 100),
    ("cyclic_path.pl", 60),
    ("lub_lattice.pl", 100),
    ("stratified_path.pl", 100),
    ("even_odd.pl", 60),
    ("even_odd_also.pl", 60),
    ("longest_path.pl", 60),
] + DAG_CASES)
def test_incremental_loop_matches_the_naive_one(name, fuel, programs):
    if name.startswith("dag-"):
        _, lattice, seed = name.split("-")
        program = random_dag_program(lattice, int(seed))
    else:
        program = programs[name]
    fast = stratified_reference_semantics(program, fuel)
    slow = naive_reference_semantics(program, fuel)
    assert [r.steps for r in fast.strata] == [r.steps for r in slow.strata]
    assert fast.converged == slow.converged
    assert fast.answers == slow.answers
    assert fast.steps == slow.steps
    assert fast.diverged_stratum == slow.diverged_stratum
    assert fast.table == slow.table


# The join of p(2,2) and p(4,4) creates p(2,4) at the first step; the
# rule derives it only at the second, once p(4,4) can fire it.
JOINED_THEN_DERIVED = ":- table p(min,max).\np(2,2). p(4,4).\np(2,4) :- p(4,4).\n"


def test_an_atom_the_join_created_may_be_derived_later():
    program = parse_program(JOINED_THEN_DERIVED)
    specs = build_specs(program)
    p24 = Atom("p", (Int(2), Int(4)))
    facts = immediate_step(program.clauses, frozenset())
    assert p24 not in facts and p24 in immediate_step(program.clauses, facts)
    fast = stratum_lfp(program.clauses, specs, 100)
    assert fast == naive_stratum_lfp(program.clauses, specs, 100)
    assert fast.converged and p24 in fast.value and fast.steps == 2


# A 12-node DAG under (min, max): a chain, plus skip edges.
MINMAX_DAG = ":- table p(index,index,min,max).\n" + "".join(
    f"e(n{i},n{j}).\n" for i, j in
    [(i, i + 1) for i in range(11)] + [(0, 3), (1, 5), (2, 4), (3, 8), (4, 7),
                                       (5, 9), (6, 10), (7, 11), (2, 9)]) + (
    "p(X,Y,1,1) :- e(X,Y).\n"
    "p(X,Y,A,B) :- p(X,Z,A1,B1), e(Z,Y), A is A1+1, B is B1+1.\n")

_COUNT_CREATED = """
import sys
import latlog.reference as reference
from latlog.parser import parse_program

close = reference._close_group
created = 0


def counting(*args):
    global created
    out = close(*args)
    created += len(out)
    return out


reference._close_group = counting
outcome = reference.stratified_reference_semantics(parse_program(sys.stdin.read()))
print(created, outcome.steps, len(outcome.answers))
"""


def test_join_created_count_does_not_depend_on_the_hash_seed():
    # the values each delta's closure creates are counted without the
    # ones inference also derives in that delta, whatever order the
    # delta's atoms come in
    src = str(pathlib.Path(latlog.reference.__file__).parents[1])
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_CREATED], input=MINMAX_DAG,
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    assert int(outputs.pop().split()[0]) > 0
