"""The soundness condition checker and the engine differ."""

import re

import pytest

from conftest import (
    ARITH_ERROR,
    CORPUS_FILES,
    DAG_PROGRAMS,
    LAZY_ERROR,
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
from latlog.errors import InternalInconsistencyError, LatlogError
from latlog.lattice import aggregate_atoms, build_specs, table_atoms
from latlog.parser import parse_program
from latlog.terms import Atom, Int, ListTerm, Symbol, atom_sorted

EXHAUSTIVE = CheckStrategy("exhaustive")
SAMPLED = CheckStrategy("sampled", samples=1000, seed=42)
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
    assert report.lhs == {("p", ()): Int(3)}
    assert report.rhs == {("p", ()): Int(2)}
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
    assert (lhs, rhs) == (report.lhs, report.rhs)
    assert lhs != rhs


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
    assert lhs != rhs


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
    assert report.lhs == {("p", ()): Symbol("c")}
    assert report.rhs == {("p", ()): Symbol("d")}
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


# At fuel 5 the trace's fifth subset collapses to a set that is not
# among the trace subsets, so the table steps it directly
CYCLIC_MINMAX = """:- table p(index,index,min,max).
e(a,b). e(b,a).
p(X,Y,1,1) :- e(X,Y).
p(X,Y,A,B) :- p(X,Z,A1,B1), e(Z,Y), A is A1+1, B is B1+1.
"""


def _oracle_programs():
    yield from ((name, lambda name=name: load(name)) for name in CORPUS_FILES)
    yield "arith-error", lambda: parse_program(ARITH_ERROR)
    yield "lazy-error", lambda: parse_program(LAZY_ERROR)
    yield "cyclic-minmax", lambda: parse_program(CYCLIC_MINMAX)
    for lattice in sorted(DAG_PROGRAMS):
        yield f"tiny-{lattice}", lambda lattice=lattice: tiny_dag_program(lattice)
        for seed in range(3):
            yield (f"dag-{lattice}-{seed}",
                   lambda lattice=lattice, seed=seed: random_dag_program(lattice, seed))


ORACLE_PROGRAMS = dict(_oracle_programs())
ORACLE_FUEL = {"cyclic-minmax": 5}  # 60 for the others
ORACLE_STRATEGIES = {
    "exhaustive": EXHAUSTIVE,
    "trace": TRACE,
    "sampled": CheckStrategy("sampled", samples=200, seed=7),
}


@pytest.mark.parametrize("strategy", sorted(ORACLE_STRATEGIES))
@pytest.mark.parametrize("name", sorted(ORACLE_PROGRAMS))
def test_every_tested_subset_matches_the_oracle(name, strategy, monkeypatch):
    program = ORACLE_PROGRAMS[name]()
    fuel = ORACLE_FUEL.get(name, 60)
    seen = []  # (subset, its sides or the type of the error raised there)
    compare = checker._compare

    def spy(x, table, *args):
        subset = table.atoms_of(x)
        try:
            sides = compare(x, table, *args)
        except Exception as exc:
            seen.append((subset, type(exc)))
            raise
        seen.append((subset, sides))
        return sides

    handed = []  # the key-local pass's report, or None, and how many compares it made
    key_local = checker._key_local_report

    def key_local_spy(*args):
        report = key_local(*args)
        handed.append((report, len(seen)))
        return report

    monkeypatch.setattr(checker, "_compare", spy)
    monkeypatch.setattr(checker, "_key_local_report", key_local_spy)
    try:
        report = check_greedy_soundness(program, ORACLE_STRATEGIES[strategy], fuel)
    except LatlogError:
        report = None
    for x, got in seen:
        if isinstance(got, type):
            with pytest.raises(got):
                recompute_sides(program, x, fuel)
        else:
            assert recompute_sides(program, x, fuel) == got, sorted(map(str, x))
    if report is not None and handed and handed[0][0] is not None:
        # the key-local pass counts the subsets it decided, not those it compared
        if len(report.universe.atoms) <= 10:
            assert (report.tested, report.witness) == _first_violation(program, fuel)
    elif report is not None:  # every compare after the key-local pass handed over
        rest = seen[handed[0][1]:] if handed else seen
        assert report.tested == sum(not isinstance(got, type) for _, got in rest)
    if name.startswith("tiny-"):  # small enough that every strategy compares
        assert seen


def _first_violation(program, fuel):
    """(tested, witness) of an exhaustive check, from the oracle: the
    subsets in enumeration order, bit i standing for the i-th atom of the
    sorted universe, up to the first one whose sides differ."""
    pool = atom_sorted(atom_universe(program, fuel).atoms)
    for mask in range(1 << len(pool)):
        x = frozenset(a for i, a in enumerate(pool) if mask >> i & 1)
        lhs, rhs = recompute_sides(program, x, fuel)
        if lhs != rhs:
            return mask + 1, x
    return 1 << len(pool), None


ORDER_PROGRAMS = sorted(
    [name for name in CORPUS_FILES if atom_universe(load(name), 60, cap=10).complete]
    + ["arith-error", "lazy-error"]
    + [f"tiny-{lattice}" for lattice in DAG_PROGRAMS])


@pytest.mark.parametrize("name", ORDER_PROGRAMS)
def test_exhaustive_enumeration_order_matches_the_oracle(name):
    program = ORACLE_PROGRAMS[name]()
    try:
        expected = _first_violation(program, 60)
    except LatlogError as exc:  # a subset raises before any witness
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            check_greedy_soundness(program, EXHAUSTIVE, 60)
        return
    report = check_greedy_soundness(program, EXHAUSTIVE, 60)
    assert (report.tested, report.witness) == expected


@pytest.mark.parametrize("header", [
    ":- table p(index,all).",
    ":- table p(index,po(better/2)).\nbetter(a,c). better(b,c).",
])
def test_a_collapse_reads_back_the_atom_of_its_key_and_value(header):
    # Under all and po, p(k,a) aggregates to the value {a}, which reads
    # back as p(k,[a]): an atom outside the pool, not p(k,a) itself.
    program = parse_program(f"{header}\np(k,a). p(k,b).\n")
    specs = build_specs(program)
    pool = atom_sorted(atom_universe(program).atoms)
    table = checker._FiringTable(program.clauses, specs, pool)
    for mask in range(1 << len(pool)):
        expected = table_atoms(specs, aggregate_atoms(specs, table.atoms_of(mask)))
        assert table.collapse(mask) == table.mask_of(expected)
    a, b = (Atom("p", (Symbol("k"), Symbol(v))) for v in "ab")
    lists = [Atom("p", (Symbol("k"), ListTerm(tuple(map(Symbol, vs))))) for vs in ("a", "ab")]
    assert table.collapse(table.mask_of([a])) == table.one(lists[0]) != table.one(a)
    assert table.collapse(table.mask_of([a, b])) == table.one(lists[1])


# Four groups p(kI,a), p(kI,b) under the lub table of lub_lattice.pl,
# which joins a and b to c: a universe of 12 atoms, whose 4096 subsets
# all step to the same eight facts.
LUB_TABLE = """lub(a,b,c). lub(a,c,c). lub(a,d,d). lub(b,c,c). lub(b,d,d). lub(c,d,d).
:- table p(index,lattice(lub/3)).
p(k1,a). p(k1,b). p(k2,a). p(k2,b). p(k3,a). p(k3,b). p(k4,a). p(k4,b).
"""


def test_each_distinct_step_is_cross_checked_once(monkeypatch):
    calls = []
    close = checker.close_answer_groups

    def counting(specs, atoms, budget):
        calls.append(atoms)
        return close(specs, atoms, budget)

    monkeypatch.setattr(checker, "close_answer_groups", counting)
    report = check_greedy_soundness(parse_program(LUB_TABLE), EXHAUSTIVE)
    assert (report.verdict, len(report.universe.atoms), report.tested) == (
        NO_VIOLATION, 12, 4096)
    assert len(calls) == 1

    # the cross-check still runs, and still catches a closure that
    # disagrees with the plain step
    def broken(specs, atoms, budget):
        return close(specs, atoms, budget) | {Atom("p", (Symbol("k5"), Symbol("a")))}

    monkeypatch.setattr(checker, "close_answer_groups", broken)
    with pytest.raises(InternalInconsistencyError):
        check_greedy_soundness(parse_program(LUB_TABLE), EXHAUSTIVE)


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
            assert lhs == report.lhs, name
            assert rhs == report.rhs, name
