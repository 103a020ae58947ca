import pathlib
import random

import pytest

import latlog
from latlog.lattice import aggregate_atoms, build_specs, table_atoms
from latlog.reference import close_answer_groups, immediate_step

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


_LABELS = ("lo", "mid", "hi", "alt")

# (table directive and extra facts, rules) per lattice. The rules that
# call p twice have firings whose newest atom is not the first call's;
# the ones that read a singleton stop firing once a join grows it, so
# answers that greedy drops as subsumed must not fire again.
DAG_PROGRAMS = {
    "min": (":- table p(index,index,min).",
            "p(X,Y,1) :- e(X,Y,L).\n"
            "p(X,Y,D) :- p(X,Z,D1), p(Z,Y,D2), D is D1+D2.\n"),
    "minmax": (":- table p(index,index,min,max).",
               "p(X,Y,1,1) :- e(X,Y,L).\n"
               "p(X,Y,D,M) :- p(X,Z,D1,M1), e(Z,Y,L), D is D1+1, M is M1+1.\n"),
    "all": (":- table p(index,index,all).",
            "p(X,Y,X) :- e(X,Y,L).\n"
            "p(X,Y,Z) :- p(X,Z,W), p(Z,Y,V).\n"
            "one(X,Y,Z) :- p(X,Y,[Z]).\n"),
    "po": (":- table p(index,index,po(better/2)).\n"
           "better(lo,mid). better(mid,hi). better(lo,hi). better(lo,alt).",
           "p(X,Y,L) :- e(X,Y,L).\n"
           "p(X,Y,L) :- p(X,Z,[L]), p(Z,Y,M).\n"
           "p(X,Y,L) :- p(X,Z,W), e(Z,Y,L).\n"),
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
