"""The soundness condition checker and the engine differ."""

import pytest

from conftest import (
    CORPUS_FILES,
    DAG_PROGRAMS,
    load,
    random_dag_program,
    recompute_sides,
)
from latlog import checker
from latlog.checker import (
    INCONCLUSIVE,
    NO_VIOLATION,
    VIOLATION,
    CheckStrategy,
    atom_universe,
    check_greedy_soundness,
    diff_semantics,
)
from latlog.errors import LatlogError
from latlog.parser import parse_program
from latlog.terms import Atom, Int, Symbol

EXHAUSTIVE = CheckStrategy("exhaustive")
SAMPLED = CheckStrategy("sampled", samples=1000, seed=42, max_subset=9)
TRACE = CheckStrategy("trace")


def p_atoms(*xs):
    return frozenset(Atom("p", (Int(x) if isinstance(x, int) else Symbol(x),))
                     for x in xs)


# --- atom universes ------------------------------------------------------


def test_universe_of_the_max_program(programs):
    got = atom_universe(programs["unsound_max.pl"], fuel=100)
    assert got.complete
    assert got.atoms == p_atoms(0, 1, 2, 3)


def test_universe_of_the_path_program(programs):
    got = atom_universe(programs["shortest_path.pl"], fuel=100)
    assert got.complete
    assert len(got.atoms) == 7


def test_cyclic_universe_never_settles(programs):
    got = atom_universe(programs["cyclic_path.pl"], fuel=200)
    assert not got.complete
    assert got.atoms  # partial pool is still usable for sampling


def test_cap_marks_large_universes_incomplete(programs):
    got = atom_universe(programs["unsound_max.pl"], fuel=100, cap=2)
    assert not got.complete
    assert got.atoms == p_atoms(0, 1, 2, 3)


# --- exhaustive checking ---------------------------------------------------


def test_exhaustive_violation_on_the_max_program(programs):
    report = check_greedy_soundness(programs["unsound_max.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == VIOLATION
    assert report.witness == p_atoms(0, 1)
    assert report.lhs.entries == {("p", ()): Int(3)}
    assert report.rhs.entries == {("p", ()): Int(2)}
    # deterministic enumeration: empty, {p(0)}, {p(1)}, then the witness
    assert report.tested == 4
    assert report.universe.complete
    assert len(report.universe.atoms) == 4


def test_exhaustive_clean_pass_on_the_path_program(programs):
    report = check_greedy_soundness(programs["shortest_path.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == NO_VIOLATION
    assert report.tested == 128
    assert report.witness is None


def test_exhaustive_needs_a_converged_universe(programs):
    report = check_greedy_soundness(programs["even_odd.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == INCONCLUSIVE
    assert report.tested == 0
    assert "sampled or trace" in report.reason


def test_exhaustive_respects_the_atom_cap(programs):
    small = CheckStrategy("exhaustive", max_atoms=2)
    report = check_greedy_soundness(programs["unsound_max.pl"], small, fuel=100)
    assert report.verdict == INCONCLUSIVE


def test_empty_program_passes():
    report = check_greedy_soundness(parse_program(""), EXHAUSTIVE, fuel=10)
    assert report.verdict == NO_VIOLATION
    assert report.tested == 1  # just the empty subset


def test_subsumption_leaking_across_predicates_is_caught(programs):
    # s copies p verbatim, so collapsing p's answers changes what s
    # derives; stratified evaluation still hides this (see the differ)
    report = check_greedy_soundness(programs["stratified_path.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == VIOLATION


# --- sampled and trace checking -------------------------------------------


def test_sampled_violation_on_even_odd(programs):
    report = check_greedy_soundness(programs["even_odd.pl"], SAMPLED, fuel=300)
    assert report.verdict == VIOLATION
    lhs, rhs = recompute_sides(programs["even_odd.pl"], report.witness, 300)
    assert (lhs.entries, rhs.entries) == (report.lhs.entries, report.rhs.entries)
    assert lhs.entries != rhs.entries


def test_sampled_reports_are_deterministic(programs):
    first = check_greedy_soundness(programs["even_odd.pl"], SAMPLED, fuel=300)
    second = check_greedy_soundness(programs["even_odd.pl"], SAMPLED, fuel=300)
    assert first == second


def test_sampled_clean_pass(programs):
    report = check_greedy_soundness(programs["shortest_path.pl"], SAMPLED, fuel=100)
    assert report.verdict == NO_VIOLATION
    assert report.tested == 1000


def test_trace_catches_the_max_program(programs):
    report = check_greedy_soundness(programs["unsound_max.pl"], TRACE, fuel=100)
    assert report.verdict == VIOLATION
    lhs, rhs = recompute_sides(programs["unsound_max.pl"], report.witness, 100)
    assert lhs.entries != rhs.entries


def test_trace_catches_even_odd(programs):
    report = check_greedy_soundness(programs["even_odd.pl"], TRACE, fuel=100)
    assert report.verdict == VIOLATION


def test_trace_only_visits_the_run_itself(programs):
    report = check_greedy_soundness(programs["shortest_path.pl"], TRACE, fuel=100)
    assert report.verdict == NO_VIOLATION
    assert 0 < report.tested < 20


# --- violations on join-created atoms ---------------------------------------


def test_fusion_violation_on_the_join_created_atom(programs):
    # at X = {p(a), p(b)} the left side aggregates to c but the
    # collapsed right side reaches p(d) through p(c): the condition
    # fails even though both engines happen to agree on this program
    report = check_greedy_soundness(programs["lub_lattice.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == VIOLATION
    assert report.witness == p_atoms("a", "b")
    assert report.lhs.entries == {("p", ()): Symbol("c")}
    assert report.rhs.entries == {("p", ()): Symbol("d")}
    assert diff_semantics(programs["lub_lattice.pl"], fuel=100).equal


def test_fusion_violation_on_the_max_program(programs):
    report = check_greedy_soundness(programs["unsound_max.pl"], EXHAUSTIVE, fuel=100)
    assert report.verdict == VIOLATION
    assert report.witness == p_atoms(0, 1)


# --- every tested subset against the oracle ---------------------------------


def tiny_dag_program(lattice):
    """The rules of a random DAG program on a three-node graph, small
    enough for an exhaustive check."""
    header, rules = DAG_PROGRAMS[lattice]
    facts = "e(n0,n1,lo). e(n1,n2,mid). e(n0,n2,hi).\n"
    return parse_program(f"{header}\n{facts}{rules}")


# p(a,foo) makes the q rule raise, but only on subsets that hold it;
# with the a/1 rules, a witness comes before any such subset
ARITH_ERROR = """:- table p(index,min). :- table q(max).
p(a,1). p(a,foo). q(X) :- p(a,Y), X is Y+1.
"""
LAZY_ERROR = ARITH_ERROR + """:- table a(max).
a(0). a(1). a(2) :- a(X), X >= 1. a(3) :- a(X), X = 0.
"""


def _oracle_programs():
    yield from ((name, lambda name=name: load(name)) for name in CORPUS_FILES)
    yield "arith-error", lambda: parse_program(ARITH_ERROR)
    yield "lazy-error", lambda: parse_program(LAZY_ERROR)
    for lattice in sorted(DAG_PROGRAMS):
        yield f"tiny-{lattice}", lambda lattice=lattice: tiny_dag_program(lattice)
        for seed in range(3):
            yield (f"dag-{lattice}-{seed}",
                   lambda lattice=lattice, seed=seed: random_dag_program(lattice, seed))


ORACLE_PROGRAMS = dict(_oracle_programs())
ORACLE_STRATEGIES = {
    "exhaustive": EXHAUSTIVE,
    "trace": TRACE,
    "sampled": CheckStrategy("sampled", samples=200, seed=7),
}


@pytest.mark.parametrize("strategy", sorted(ORACLE_STRATEGIES))
@pytest.mark.parametrize("name", sorted(ORACLE_PROGRAMS))
def test_every_tested_subset_matches_the_oracle(name, strategy, monkeypatch):
    program = ORACLE_PROGRAMS[name]()
    seen = []  # (subset, its sides or the type of the error raised there)
    compare = checker._compare

    def spy(x, *args):
        try:
            sides = compare(x, *args)
        except Exception as exc:
            seen.append((x, type(exc)))
            raise
        seen.append((x, sides))
        return sides

    monkeypatch.setattr(checker, "_compare", spy)
    try:
        report = check_greedy_soundness(program, ORACLE_STRATEGIES[strategy], 60)
    except LatlogError:
        report = None
    for x, got in seen:
        if isinstance(got, type):
            with pytest.raises(got):
                recompute_sides(program, x, 60)
        else:
            assert recompute_sides(program, x, 60) == got, sorted(map(str, x))
    if report is not None:
        assert report.tested == sum(not isinstance(got, type) for _, got in seen)
    if name.startswith("tiny-"):  # small enough that every strategy compares
        assert seen


# --- the differ -------------------------------------------------------------


def test_diff_on_the_max_program(programs):
    report = diff_semantics(programs["unsound_max.pl"], fuel=100)
    assert not report.equal
    assert report.per_key_diffs == (
        ("p", (), Int(3), Int(2)),)
    assert report.reference.answers == p_atoms(3)
    assert report.greedy.answers == p_atoms(2)


def test_diff_on_the_path_program(programs):
    report = diff_semantics(programs["shortest_path.pl"], fuel=100)
    assert report.equal
    assert report.per_key_diffs == ()


def test_diff_reports_divergence_as_unequal(programs):
    report = diff_semantics(programs["even_odd.pl"], fuel=200)
    assert not report.equal
    assert not report.reference.converged
    assert report.greedy.converged


def test_clean_exhaustive_passes_imply_equal_engines(programs):
    for name in CORPUS_FILES:
        report = check_greedy_soundness(programs[name], EXHAUSTIVE, fuel=60)
        if report.verdict == NO_VIOLATION:
            assert diff_semantics(programs[name], fuel=60).equal, name


def test_every_violation_witness_reverifies(programs):
    for name in CORPUS_FILES:
        for strategy in (EXHAUSTIVE, TRACE):
            report = check_greedy_soundness(programs[name], strategy, fuel=60)
            if report.verdict != VIOLATION:
                continue
            lhs, rhs = recompute_sides(programs[name], report.witness, 60)
            assert lhs.entries == report.lhs.entries, name
            assert rhs.entries == report.rhs.entries, name
