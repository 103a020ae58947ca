"""Compiled clause plans, held to the dict-binding walk they replaced.

The walk lives in `conftest.py` (`walk_fire_clause`). Hypothesis draws
range-restricted clauses, as the parser accepts them: constants,
repeated variables, compound and list patterns in calls and heads, `=`,
the four comparisons, and `is` that binds, checks or has a left side
that is not a variable, over operands that are not always integers, so
that builtins raise. A plan must derive the same atoms as the walk for
every pivot, or raise the same error.
"""

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
         ListTerm((Int(2), Int(2))), Compound("f", (Int(1), Int(2))), ListTerm((Int(1),)))
PREDS = {"e": 2, "q": 1}

atoms = st.one_of(
    st.builds(lambda t, u: Atom("e", (t, u)), st.sampled_from(TERMS), st.sampled_from(TERMS)),
    st.builds(lambda t: Atom("q", (t,)), st.sampled_from(TERMS)))


def _pattern(draw, names):
    """A call or head argument over the variables `names`: mostly one of
    them, else a constant, or a compound or list pattern."""
    kind = draw(st.integers(0, 9)) if names else 0
    if kind == 0:
        return draw(st.sampled_from(TERMS))
    v, w = (Var(draw(st.sampled_from(names))) for _ in range(2))
    return ((Compound("f", (v,)), Compound("g", (v, w)), ListTerm((v, w)),
             ListTerm((Int(1), v)))[kind - 6] if kind > 5 else v)


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


@st.composite
def clauses(draw):
    """A range-restricted clause over `e/2` and `q/1`."""
    bound, body = [], []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 2) if bound else st.integers(0, 5)):
            pred = draw(st.sampled_from(sorted(PREDS)))
            lit = Call(pred, tuple(_pattern(draw, VARS) for _ in range(PREDS[pred])))
            names = set().union(*map(pattern_vars, lit.args))
        else:
            lit = _builtin(draw, bound)
            names = {lit.args[0].name} if lit.op == "is" and isinstance(lit.args[0], Var) else ()
        body.append(lit)
        bound += sorted(set(names) - set(bound))
    head = tuple(_pattern(draw, bound) for _ in range(draw(st.integers(0, 3))))
    return Clause(Call("h", head), tuple(body))


def _outcome(fire):
    derived = set()
    try:
        fire(derived)
    except LatlogError as exc:
        return type(exc), str(exc)
    return frozenset(derived)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(clause=clauses(), pool=st.lists(atoms, min_size=4, max_size=24, unique=True),
       data=st.data())
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
