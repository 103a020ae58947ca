"""The acceptance gate, one test per numbered criterion.

Every test prints its own pass/fail line (visible under `pytest -s`,
and on any failure), and the stated time bounds are asserted rather
than aspired to. Everything runs at fuel 1000 unless a criterion says
otherwise.
"""

import contextlib
import io
import pathlib
import subprocess
import sys
import time

from conftest import CORPUS, aggregate_model, kleene_fixpoint, recompute_sides
from latlog import cli
from latlog.checker import (
    NO_VIOLATION,
    VIOLATION,
    CheckStrategy,
    check_greedy_soundness,
    diff_semantics,
)
from latlog.greedy import stratified_greedy_semantics
from latlog.lattice import DUMMY, build_specs
from latlog.reference import (
    immediate_step,
    stratified_reference_semantics,
    stratum_lfp,
)
from latlog.terms import Atom, Int, Symbol

FUEL = 1000


def atoms(pred, *rows):
    return frozenset(
        Atom(pred, tuple(Int(a) if isinstance(a, int) else Symbol(a) for a in row))
        for row in rows)


@contextlib.contextmanager
def criterion(number, label, bound):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < bound, f"took {elapsed:.2f}s, bound {bound}s"
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def test_criterion_1_max_program_disagrees(programs):
    with criterion(1, "max program disagrees", 1.0):
        prog = programs["unsound_max.pl"]
        assert stratified_reference_semantics(prog, FUEL).answers == atoms("p", (3,))
        assert stratified_greedy_semantics(prog, FUEL).answers == atoms("p", (2,))
        assert run_cli("diff", CORPUS / "unsound_max.pl") == 1


SEVEN = atoms("e", ("a", "b", "nt"), ("b", "c", "nt"), ("a", "c", "nt")) | atoms(
    "p", ("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("a", "c", 2))


def test_criterion_2_acyclic_shortest_path(programs):
    with criterion(2, "acyclic shortest path", 1.0):
        prog = programs["shortest_path.pl"]
        specs = build_specs(prog)
        fp = stratum_lfp(prog.clauses, specs, FUEL)
        assert fp.converged and fp.value == SEVEN
        final = SEVEN - atoms("p", ("a", "c", 2))
        assert aggregate_model(specs, fp.value) == final
        assert stratified_reference_semantics(prog, FUEL).answers == final
        assert stratified_greedy_semantics(prog, FUEL).answers == final


def test_criterion_3_user_join_needs_extended_step(programs):
    with criterion(3, "user join needs the extended step", 1.0):
        prog = programs["lub_lattice.pl"]
        specs = build_specs(prog)
        plain = kleene_fixpoint(
            lambda x: x | immediate_step(prog.clauses, x), frozenset(), FUEL)
        assert plain.converged
        assert aggregate_model(specs, plain.value) == atoms("p", ("c",))
        extended = stratum_lfp(prog.clauses, specs, FUEL)
        assert extended.converged
        assert aggregate_model(specs, extended.value) == atoms("p", ("d",))


def test_criterion_4_exhaustive_witness(programs):
    with criterion(4, "exhaustive check finds the witness", 1.0):
        prog = programs["unsound_max.pl"]
        report = check_greedy_soundness(prog, CheckStrategy("exhaustive"), FUEL)
        assert report.verdict == VIOLATION
        assert report.witness == atoms("p", (0,), (1,))
        assert report.lhs == {("p", ()): Int(3)}
        assert report.rhs == {("p", ()): Int(2)}
        lhs, rhs = recompute_sides(prog, report.witness, FUEL)
        assert lhs == report.lhs and rhs == report.rhs and lhs != rhs


def test_criterion_5_clean_exhaustive_and_diff(programs):
    with criterion(5, "acyclic graph is clean end to end", 1.0):
        prog = programs["shortest_path.pl"]
        report = check_greedy_soundness(prog, CheckStrategy("exhaustive"), FUEL)
        assert report.verdict == NO_VIOLATION
        assert report.universe.complete and len(report.universe.atoms) == 7
        assert report.tested == 128
        diff = diff_semantics(prog, FUEL)
        assert diff.equal and diff.per_key_diffs == ()


def test_criterion_6_cyclic_graph_vs_oracle(programs):
    with criterion(6, "cyclic graph matches the path oracle", 1.0):
        prog = programs["cyclic_path.pl"]
        edges = [tuple(t.name for t in c.head.args[:2])
                 for c in prog.clauses if c.head.pred == "e" and not c.body]
        nodes = sorted({n for edge in edges for n in edge})
        dist = {edge: 1 for edge in edges}
        for k in nodes:
            for i in nodes:
                for j in nodes:
                    ik, kj = dist.get((i, k)), dist.get((k, j))
                    if ik is None or kj is None:
                        continue
                    if (i, j) not in dist or dist[(i, j)] > ik + kj:
                        dist[(i, j)] = ik + kj

        greedy = stratified_greedy_semantics(prog, FUEL)
        assert greedy.converged
        expected = {("p", (Symbol(i), Symbol(j))): Int(d)
                    for (i, j), d in dist.items()}
        expected.update(
            {("e", (Symbol(i), Symbol(j), Symbol("nt"))): frozenset({DUMMY})
             for (i, j) in edges})
        assert greedy.table == expected

        reference = stratified_reference_semantics(prog, FUEL)
        assert not reference.converged
        assert reference.diverged_stratum == ("p",)


def test_criterion_7_even_odd(programs):
    with criterion(7, "mutual recursion under min", 5.0):
        prog = programs["even_odd.pl"]
        greedy = stratified_greedy_semantics(prog, FUEL)
        assert greedy.converged
        assert greedy.answers == atoms("even", (0,)) | atoms("odd", (1,))
        strategy = CheckStrategy("sampled", samples=1000, seed=42)
        report = check_greedy_soundness(prog, strategy, FUEL)
        assert report.verdict == VIOLATION


def test_criterion_8_copy_sees_only_the_aggregate(programs):
    with criterion(8, "stratified copy sees only the aggregate", 1.0):
        prog = programs["stratified_path.pl"]
        wanted, unwanted = atoms("s", (1, 3, 1)), atoms("s", (1, 3, 2))
        for outcome in (stratified_reference_semantics(prog, FUEL),
                        stratified_greedy_semantics(prog, FUEL)):
            assert outcome.converged
            assert wanted <= outcome.answers
            assert not unwanted & outcome.answers


def test_criterion_9_property_suites():
    with criterion(9, "seeded property suites", 30.0):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(pathlib.Path(__file__).with_name("test_properties.py"))],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
