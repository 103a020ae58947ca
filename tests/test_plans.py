"""Generated clause plans, held to the dict-binding walk they replaced.

The walk lives in `conftest.py` (`walk_fire_clause`). Hypothesis draws
clauses with every shape the generator writes: constants, repeated
variables, compound and list patterns, nested too, in calls and heads,
leading builtins, `=`, the four comparisons, and `is` over nested `+ -
* min max` and unary `-` that binds, checks or has a left side that is
not a variable, over operands that are not always integers, so that
builtins raise. Now and then a variable is one that nothing binds, in a builtin
or the head, and a body runs past the calls that nest, into the flat
loop. A plan must derive the same atoms as the walk for every pivot, or
raise the same error.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import walk_fire_clause, walk_immediate_step
from latlog import reference
from latlog.errors import LatlogError
from latlog.greedy import stratified_greedy_semantics
from latlog.parser import parse_program
from latlog.program import Builtin, Call, Clause, Var, pattern_vars
from latlog.reference import (
    _AtomIndex,
    _fire_clause,
    clause_plans,
    immediate_step,
    stratified_reference_semantics,
)
from latlog.terms import Atom, Compound, Int, ListTerm, Symbol, atom_sorted

VARS = ("X", "Y", "Z", "W")
# f/2 and the one-element list share a functor or a kind with a
# pattern below but not its arity or length
TERMS = (Int(0), Int(1), Int(2), Symbol("a"), Compound("f", (Int(1),)),
         Compound("g", (Int(1), Symbol("a"))), ListTerm((Int(1), Int(2))),
         ListTerm((Int(2), Int(2))), Compound("f", (Int(1), Int(2))), ListTerm((Int(1),)),
         Compound("f", (ListTerm((Int(1), Int(2))),)))
PREDS = {"e": 2, "q": 1}

atoms = st.one_of(
    st.builds(lambda t, u: Atom("e", (t, u)), st.sampled_from(TERMS), st.sampled_from(TERMS)),
    st.builds(lambda t: Atom("q", (t,)), st.sampled_from(TERMS)))


def _pattern(draw, names):
    """A call or head argument over the variables `names`: mostly one of
    them, else a constant, or a compound or list pattern, one or two
    levels deep."""
    kind = draw(st.integers(0, 10)) if names else 0
    if kind == 0:
        return draw(st.sampled_from(TERMS))
    v, w = (Var(draw(st.sampled_from(names))) for _ in range(2))
    return ((Compound("f", (v,)), Compound("g", (v, w)), ListTerm((v, w)),
             ListTerm((Int(1), v)), Compound("f", (ListTerm((v, w)),)))[kind - 6]
            if kind > 5 else v)


def _expression(draw, bound, depth=2):
    """An arithmetic expression over bound variables; now and then one
    that is not arithmetic at all."""
    leaves = [st.integers(-3, 3).map(Int)] * 2 + [
        st.sampled_from((Symbol("a"), Compound("f", (Int(1),))))]
    if bound:
        leaves += [st.sampled_from(bound).map(Var)] * 4
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(leaves))
    if draw(st.integers(0, 4)) == 0:
        return Compound("-", (_expression(draw, bound, depth - 1),))
    op = draw(st.sampled_from(("+", "-", "*", "min", "max")))
    return Compound(op, (_expression(draw, bound, depth - 1),
                         _expression(draw, bound, depth - 1)))


def _builtin(draw, bound):
    if bound and not draw(st.integers(0, 19)):
        bound = VARS  # one that nothing binds may raise
    op = draw(st.sampled_from(("=", "<", "=<", ">", ">=", "is", "is", "is")))
    if op == "=":
        return Builtin(op, (_pattern(draw, bound), _pattern(draw, bound)))
    if op != "is":
        return Builtin(op, (_expression(draw, bound), _expression(draw, bound)))
    rhs = _expression(draw, bound)
    fresh = [v for v in VARS if v not in bound]
    kind = draw(st.sampled_from(("binds", "checks", "other")))
    if kind == "binds" and fresh:
        lhs = Var(draw(st.sampled_from(fresh)))
    elif kind == "checks" and bound:
        lhs = Var(draw(st.sampled_from(bound)))
    else:
        lhs = draw(st.sampled_from((Int(1), Int(2)))) if not bound else (
            Compound("f", (Var(draw(st.sampled_from(bound))),)))
    return Builtin("is", (lhs, rhs))


def _literal(draw, bound, names):
    """A call over the variables `names`, or else a builtin."""
    if draw(st.integers(0, 2) if bound else st.integers(0, 5)):
        pred = draw(st.sampled_from(sorted(PREDS)))
        return Call(pred, tuple(_pattern(draw, names) for _ in range(PREDS[pred])))
    return _builtin(draw, bound)


@st.composite
def clauses(draw):
    """A clause over `e/2` and `q/1`. One in ten runs on past
    `_NESTED_CALLS` calls, whose arguments are bound or constant, so that
    each matches at most one atom and the walk stays short."""
    bound, body = [], []
    long = draw(st.integers(0, 9)) == 9
    calls = reference._NESTED_CALLS + draw(st.integers(1, 4)) if long else 0
    free = draw(st.integers(0, 2 if long else 4))
    while len(body) < free or sum(isinstance(lit, Call) for lit in body) < calls:
        lit = _literal(draw, bound, VARS if len(body) < free else bound)
        if isinstance(lit, Call):
            names = set().union(*map(pattern_vars, lit.args))
        else:
            names = {lit.args[0].name} if lit.op == "is" and isinstance(lit.args[0], Var) else ()
        body.append(lit)
        bound += sorted(set(names) - set(bound))
    names = bound if draw(st.integers(0, 9)) else VARS  # maybe a head variable nothing binds
    head = tuple(_pattern(draw, names) for _ in range(draw(st.integers(0, 3))))
    return Clause(Call("h", head), tuple(body))


POOLS = st.lists(atoms, min_size=4, max_size=24, unique=True)


def _outcome(fire):
    derived = set()
    try:
        fire(derived)
    except LatlogError as exc:
        return type(exc), str(exc)
    return frozenset(derived)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clause=clauses(), pool=POOLS, data=st.data())
def test_a_plan_fires_like_the_walk_pivot_by_pivot(clause, pool, data):
    delta = data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    pivots = [None] + [j for j, lit in enumerate(clause.body)
                       if isinstance(lit, Call) and any(a.pred == lit.pred for a in delta)]
    for pivot in pivots:
        # both sides build their indexes from the same sequences, so they
        # meet the candidates, and the first error, in the same order
        plan = clause_plans((clause,))[0]
        got = _outcome(lambda d: _fire_clause(
            plan, pivot, _AtomIndex(pool), d, _AtomIndex(delta) if delta else None))
        want = _outcome(lambda d: walk_fire_clause(
            clause, _AtomIndex(pool), d, _AtomIndex(delta) if delta else None, pivot))
        assert got == want, pivot
    # a step that raises fires again over an index built from the atoms
    # in atom order, so its error is the walk's over the sorted pool
    assert (_outcome(lambda d: d.update(immediate_step((clause,), frozenset(pool))))
            == _outcome(lambda d: d.update(walk_immediate_step((clause,), atom_sorted(pool)))))


@pytest.mark.parametrize("engine", [stratified_reference_semantics,
                                    stratified_greedy_semantics])
def test_each_clause_compiles_once_per_pivot_and_evaluation(programs, monkeypatch, engine):
    compiled, fired = [], []
    compile_, fire = reference._compile, reference._fire_clause

    def counting_compile(clause, pivot):
        compiled.append((clause, pivot))  # keeps the clause alive, so ids stay unique
        return compile_(clause, pivot)

    def counting_fire(*args):
        fired.append(None)
        return fire(*args)

    monkeypatch.setattr(reference, "_compile", counting_compile)
    monkeypatch.setattr(reference, "_fire_clause", counting_fire)
    builds = []
    for _ in range(2):
        compiled.clear()
        fired.clear()
        assert engine(programs["shortest_path.pl"], 200).converged
        # once per (clause, pivot) pair, however many steps fire it
        assert len(compiled) == len({(id(c), pivot) for c, pivot in compiled}) <= len(fired)
        builds.append(len(compiled))
    # nothing outlives an evaluation: the second compiles as much again
    assert builds[0] == builds[1]


@pytest.mark.parametrize("engine", [stratified_reference_semantics,
                                    stratified_greedy_semantics])
def test_facts_fire_without_a_plan(monkeypatch, engine):
    compiled = []
    compile_ = reference._compile
    monkeypatch.setattr(reference, "_compile",
                        lambda clause, pivot: compiled.append(clause) or compile_(clause, pivot))
    prog = parse_program(":- table p(index,min).\np(a,3). p(a,1). p(b,2).\nq(f(x),[1,2]). r.\n")
    outcome = engine(prog, 200)
    assert compiled == []
    assert outcome.answers == {
        Atom("p", (Symbol("a"), Int(1))), Atom("p", (Symbol("b"), Int(2))),
        Atom("q", (Compound("f", (Symbol("x"),)), ListTerm((Int(1), Int(2))))), Atom("r", ())}


def test_a_step_takes_clauses_or_their_plans_alike(programs):
    # a clause and a plan are both tuples; a step that took one for the
    # other would fail on every program with a clause
    for name, prog in programs.items():
        assert prog.clauses, name
        plans = clause_plans(prog.clauses)
        answers = stratified_reference_semantics(prog, 200).answers
        for atoms in (frozenset(), answers):
            assert immediate_step(prog.clauses, atoms) == immediate_step(plans, atoms), name


# the property again, in a fresh process at each of two hash seeds
PROPERTY_AT_SEED = """
import test_plans
from hypothesis import HealthCheck, given, settings, strategies as st
settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])(
    given(clause=test_plans.clauses(), pool=test_plans.POOLS, data=st.data())(
        test_plans.test_a_plan_fires_like_the_walk_pivot_by_pivot.hypothesis.inner_test))()
"""


def _at_hash_seed(seed, script):
    here = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(here), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr  # with any falsifying example
    return proc.stdout


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_plan_fires_like_the_walk_at_two_hash_seeds(seed):
    _at_hash_seed(seed, PROPERTY_AT_SEED)


# --- the code cache --------------------------------------------------------------


def _plan_code(program, pivot=None):
    clause = next(c for c in program.clauses if c.body)
    return reference._compile(clause, pivot).__code__


def test_one_shape_shares_one_code_object_across_constants():
    first = parse_program("e(1,a). e(2,b).\np(X) :- e(X,a), X < 5.\n")
    second = parse_program("e(1,a). e(2,b).\np(X) :- e(X,b), X < 9.\n")
    assert _plan_code(first) is _plan_code(second)
    for engine in (stratified_reference_semantics, stratified_greedy_semantics):
        assert Atom("p", (Int(1),)) in engine(first, 200).answers - engine(second, 200).answers
        assert Atom("p", (Int(2),)) in engine(second, 200).answers - engine(first, 200).answers


SOURCES = """
import json
from conftest import CORPUS, CORPUS_FILES
from latlog.parser import parse_program
from latlog.program import Call
from latlog.reference import _source
long = parse_program("q(a,a).\\np(X0) :- " + ", ".join(
    f"q(X{i},f(X{i + 1},[X{i}])), X{i} < 3, Y{i} is X{i} * 2 + 1" for i in range(20)) + ".\\n")
out = {}
for name in CORPUS_FILES + ["long"]:
    program = long if name == "long" else parse_program((CORPUS / name).read_text())
    for n, clause in enumerate(program.clauses):
        for pivot in [None] + [j for j, lit in enumerate(clause.body) if isinstance(lit, Call)]:
            source, values = _source(clause, pivot)
            out[f"{name} {n} {pivot}"] = [source, repr(values)]
print(json.dumps(out))
"""


def test_the_generated_source_does_not_depend_on_the_hash_seed():
    sources = [_at_hash_seed(seed, SOURCES) for seed in ("0", "1")]
    assert sources[0] == sources[1]
    assert len(json.loads(sources[0])) > 50


def test_the_code_cache_is_bounded():
    def clause(arity):  # a head of each arity is a shape of its own
        return Clause(Call("h", (Var("X"),) * arity), (Call("q", (Var("X"),)),))

    for arity in range(136):
        reference._compile(clause(arity), None)
    assert len(reference._MAKERS) == 128
    # the least recently used go first
    assert reference._source(clause(8), None)[0] in reference._MAKERS
    assert reference._source(clause(7), None)[0] not in reference._MAKERS


def test_a_long_body_compiles_once_per_evaluation(monkeypatch):
    # its one flat run serves every pivot of every step
    compiled = []
    compile_ = reference._compile
    monkeypatch.setattr(reference, "_compile",
                        lambda clause, pivot: compiled.append(pivot) or compile_(clause, pivot))
    calls = reference._NESTED_CALLS + 4
    prog = parse_program("q(a,a). q(a,b).\np(X0) :- "
                         + ", ".join(f"q(X{i},X{i + 1})" for i in range(calls)) + ".\n")
    for engine in (stratified_reference_semantics, stratified_greedy_semantics):
        compiled.clear()
        assert Atom("p", (Symbol("a"),)) in engine(prog, 200).answers
        assert len(compiled) == 1
