import pathlib
import random

import pytest

import latlog
from latlog.errors import DomainError
from latlog.lattice import (
    BOTTOM,
    AnswerTable,
    aggregate_atoms,
    build_specs,
    join_values,
    table_atoms,
)
from latlog.program import fact_clause
from latlog.reference import (
    EvalOutcome,
    FixpointResult,
    StratumResult,
    _BudgetExceeded,
    close_answer_groups,
    immediate_step,
)
from latlog.stratify import stratify, stratum_clauses
from latlog.terms import atom_sorted

CORPUS = pathlib.Path(latlog.__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "golden"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.pl"))


def corpus_text(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load(name):
    return latlog.parse_program(corpus_text(name))


@pytest.fixture(scope="session")
def programs():
    """Every corpus program, parsed once."""
    return {name: load(name) for name in CORPUS_FILES}


# --- lattice and table helpers that only the tests need -----------------------


def leq_values(spec, x, y) -> bool:
    """x below y in the lattice: their join is y."""
    if x is BOTTOM:
        return True
    if y is BOTTOM:
        return False
    return join_values(spec, x, y) == y


def table_leq(specs, f, g) -> bool:
    """Every value of table f lies below g's value at the same key."""
    return all(leq_values(specs[key[0]].lattice, value, g.get(key))
               for key, value in f.entries.items())


def singleton_table(specs, atom) -> AnswerTable:
    """The table holding just this atom's abstracted answer."""
    spec = specs[atom.pred]
    return AnswerTable({spec.key_of(atom): spec.abstract_atom(atom)})


def represent_output(spec, value):
    """The term that represents a value; bottom has none."""
    if value is BOTTOM:
        raise DomainError("bottom has no representation")
    return spec.represent(value)


def aggregate_model(specs, atoms) -> frozenset:
    """Post-processing: aggregate the atoms per answer group, then read
    the surviving atoms back out."""
    return table_atoms(specs, aggregate_atoms(specs, atoms))


def recompute_sides(program, witness, fuel):
    """Both sides of the soundness condition on one subset, from the
    definitions: direct immediate steps and sorted folds. This is the
    oracle for the checker's firing tables and shortcuts."""
    specs = build_specs(program)
    atoms = frozenset(witness)
    stepped = immediate_step(program.clauses, atoms)
    lhs = aggregate_atoms(specs, stepped)
    assert lhs == aggregate_atoms(specs, close_answer_groups(specs, stepped, fuel))
    collapsed = table_atoms(specs, aggregate_atoms(specs, atoms))
    return lhs, aggregate_atoms(specs, immediate_step(program.clauses, collapsed))


# --- the reference engine's naive loop: the oracle for its delta loop --------


def join_extended_step(clauses, specs, atoms, budget) -> frozenset:
    """The immediate step, with each answer group closed under its join."""
    return close_answer_groups(specs, immediate_step(clauses, atoms), budget)


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


def naive_stratum_lfp(clauses, specs, fuel) -> FixpointResult:
    """The definition of `stratum_lfp`: re-run the whole join-extended
    step until it adds nothing. Accumulating keeps the chain ascending
    even for a join that is not inflationary."""
    def step(x):
        return x | join_extended_step(clauses, specs, x, fuel)
    return kleene_fixpoint(step, frozenset(), fuel)


def naive_reference_semantics(program, fuel) -> EvalOutcome:
    """`stratified_reference_semantics` over the naive loop, with the
    model and its answers both folded from scratch."""
    specs = build_specs(program)
    lower = frozenset()
    results = []
    total = 0
    for preds in stratify(program).strata:
        clauses = stratum_clauses(program, preds) + tuple(
            fact_clause(a) for a in atom_sorted(lower))
        fp = naive_stratum_lfp(clauses, specs, fuel)
        total += fp.steps
        names = tuple(sorted(preds))
        if not fp.converged:
            partial = table_atoms(specs, aggregate_atoms(specs, fp.value | lower))
            results.append(StratumResult(names, partial, fp.steps, False))
            return EvalOutcome(False, partial, aggregate_atoms(specs, partial),
                               total, tuple(results), names)
        lower = table_atoms(specs, aggregate_atoms(specs, fp.value))
        results.append(StratumResult(names, lower, fp.steps, True))
    return EvalOutcome(True, lower, aggregate_atoms(specs, lower),
                       total, tuple(results), None)


# --- seeded DAG programs ------------------------------------------------------


_LABELS = ("lo", "mid", "hi", "alt")

# (table directive and extra facts, rules) per lattice. The rules that
# call p twice have firings whose newest atom is not the first call's;
# the ones that read a singleton stop firing once a join grows it, so
# answers that greedy drops as subsumed must not fire again. The last
# rules under lattice(min/3) and po look p up by both its index
# arguments, so an index on two positions serves them. `two` and
# `wide` read values that only the join creates, inside p's stratum,
# so the reference must close those groups before the next step.
DAG_PROGRAMS = {
    "min": (":- table p(index,index,min).",
            "p(X,Y,1) :- e(X,Y,L).\n"
            "p(X,Y,D) :- p(X,Z,D1), p(Z,Y,D2), D is D1+D2.\n"),
    "lattice_min": (":- table p(index,index,lattice(min/3)).",
                    "p(X,Y,1) :- e(X,Y,L).\n"
                    "p(X,Y,D) :- p(X,Z,D1), e(Z,Y,L), p(Z,Y,D2), D is D1+D2.\n"),
    "minmax": (":- table p(index,index,min,max).",
               "p(X,Y,1,1) :- e(X,Y,L).\n"
               "p(X,Y,D,M) :- p(X,Z,D1,M1), e(Z,Y,L), D is D1+1, M is M1+1.\n"
               "wide(X,Y) :- p(X,Y,1,M), M > 1.\n"
               "p(X,Y,1,1) :- wide(X,Y).\n"),
    "all": (":- table p(index,index,all).",
            "p(X,Y,X) :- e(X,Y,L).\n"
            "p(X,Y,Z) :- p(X,Z,W), p(Z,Y,V).\n"
            "two(X,Y) :- p(X,Y,[A,B]).\n"
            "p(X,Y,X) :- two(X,Y).\n"
            "one(X,Y,Z) :- p(X,Y,[Z]).\n"),
    "po": (":- table p(index,index,po(better/2)).\n"
           "better(lo,mid). better(mid,hi). better(lo,hi). better(lo,alt).",
           "p(X,Y,L) :- e(X,Y,L).\n"
           "p(X,Y,L) :- p(X,Z,[L]), p(Z,Y,M).\n"
           "p(X,Y,L) :- p(X,Z,W), e(Z,Y,L).\n"
           "p(X,Y,L) :- e(X,Z,W), p(Z,Y,M), p(X,Z,[L]).\n"),
}


def random_dag_program(lattice, seed):
    """A chain of nodes plus random forward edges, each with a label."""
    rng = random.Random(f"{lattice}:{seed}")
    size = rng.randint(6, 12)
    edges = {(i, i + 1) for i in range(size - 1)}
    while len(edges) < 2 * size:
        i, j = sorted(rng.sample(range(size), 2))
        edges.add((i, j))
    header, rules = DAG_PROGRAMS[lattice]
    facts = "".join(f"e(n{i},n{j},{rng.choice(_LABELS)}).\n" for i, j in sorted(edges))
    return latlog.parse_program(f"{header}\n{facts}{rules}")
