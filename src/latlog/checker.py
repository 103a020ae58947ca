"""Soundness checking: is the greedy strategy safe for a program?

Greedy evaluation agrees with the reference semantics whenever
aggregating the immediate consequences of a set of atoms gives the
same table as first aggregating the set, reading the surviving atoms
back, and aggregating their immediate consequences:

    aggregate . step  =  aggregate . step . extract . aggregate

The condition quantifies over every subset of the Herbrand base, which
is usually infinite, so the checker restricts itself to a finite
universe of reachable atoms and reports honestly: a clean pass is
"no violation found", never a proof. Three strategies pick the tested
subsets: exhaustive (every subset of a small converged universe),
sampled (seeded random subsets), and trace (the sets an actual greedy
run touches).

The subsets of one check share almost all of their rule firings. So
the exhaustive and trace strategies fire the program's rules once, over
a pool holding every subset they test: the universe, whose answer
groups are closed under the join, or the trace subsets alone. The
resulting firing table keeps each firing with the body atoms it
read, which is the why-provenance of the step (Green, Karvounarakis
and Tannen, PODS 2007), and the step on any subset of the pool is a
containment test over it. Aggregation over the table reuses each
atom's key and value, abstracted once per table, and folds them in any
order, since the join of two values that abstraction accepted is
always defined. A set holding an atom that abstraction rejects is
folded by `aggregate_atoms`, which names the error in atom order; a
universe holds no such atom, since the reference fixpoint raises on
the first one it derives. A set outside the pool is stepped directly.
A subset's collapse (extract . aggregate) can be one: a trace pool
need not hold it, and under `all` and `po` a value read back is
written as a list. A clause whose builtins raise while the table is
built stays out of it and is fired directly on each subset, so an
error surfaces only at a subset whose own step raises it, with the
same message.

Where a trace table would record more firings than the trace subsets
hold atoms, the trace check steps each subset directly instead. The
sampled strategy always does: its subsets are small and drawn from
pools of up to `fuel` atoms, most of which no subset ever holds
together.

Every strategy compares the two sides with the same function. A subset
that its own collapse leaves unchanged has equal sides by definition,
so its right side is not recomputed. The left side is cross-checked
against the join-extended step, whose aggregate must be the same; a
gap is a bug in this package, not a property of the program. Many
subsets share one step, so each distinct step is cross-checked once.
When the join closure of a step outgrows `fuel`, the check is
inconclusive.

`diff_semantics` is the blunt instrument next to these: run both
engines and compare answers.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import partial

from .errors import InternalInconsistencyError, LatlogError, LatticeError
from .greedy import stratified_greedy_semantics
from .lattice import aggregate_atoms, build_specs, join_values, table_atoms
from .program import Call, Clause, Program
from .reference import (
    DEFAULT_FUEL,
    _AtomIndex,
    _BudgetExceeded,
    _fire_delta,
    clause_plans,
    close_answer_groups,
    evaluate_strata,
    immediate_step,
    stratified_reference_semantics,
    stratum_lfp,
)
from .terms import Atom, atom_key, atom_sorted, atom_to_str

NO_VIOLATION = "no-violation-found"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"
CONDITION = "step-commutation"


# kind: "exhaustive" | "sampled" | "trace"
CheckStrategy = namedtuple("CheckStrategy", "kind max_atoms samples seed",
                           defaults=(16, 1000, 42))

# the most atoms a sampled subset holds
MAX_SUBSET = 9

# complete: converged within fuel and within the cap; atoms: the
# universe, or the atoms seen before giving up
UniverseResult = namedtuple("UniverseResult", "complete atoms")

# condition: always CONDITION; lhs and rhs: the two sides' tables, on a
# violation; reason: set when inconclusive
CheckReport = namedtuple(
    "CheckReport", "verdict condition universe strategy tested witness lhs rhs reason",
    defaults=(None, None, None, None))

# per_key_diffs: (pred, inputs, reference value, greedy value) tuples
DiffReport = namedtuple("DiffReport", "reference greedy equal per_key_diffs")


def atom_universe(program: Program, fuel=DEFAULT_FUEL, cap=16) -> UniverseResult:
    """All atoms the join-extended fixpoint reaches, stratum by stratum.

    Complete only when every stratum converged within fuel and the
    union stayed within `cap`; otherwise the partial set still serves
    as a sampling pool.
    """
    seen = set()

    def collect(clauses, specs, fuel, lower):
        fp = stratum_lfp(clauses, specs, fuel)
        seen.update(fp.value)
        return fp, aggregate_atoms(specs, fp.value)

    outcome = evaluate_strata(program, fuel, collect)
    return UniverseResult(outcome.converged and len(seen) <= cap, frozenset(seen))


class _TableTooLarge(Exception):
    """Internal: a firing table outgrew its budget while being built."""


class _FiringTable:
    """Every firing of one immediate step over a pool of atoms.

    Each firing is kept as (body atoms read, head) and filed under one
    of its body atoms, the one whose bucket is smallest at that moment;
    bodyless firings always fire. The step on a subset X of the pool
    then collects the firings filed under X's atoms whose body lies
    inside X.

    The pool arrives in chunks, and each chunk fires only the rules
    that read one of its new atoms. A clause whose builtins raise while
    the table is built is fired directly on every subset instead, so it
    raises where a direct step would. Building stops with
    `_TableTooLarge` once a chunk leaves more than `max_firings`
    firings recorded.
    """

    def __init__(self, clauses, specs, chunks, max_firings=None):
        self.clauses = clauses
        self.specs = specs
        self.filed = {}      # pool atom -> [(body, head)]
        self.always = set()  # heads of bodyless firings
        self._canon = {}     # one object per atom, heads too
        self._seen = set()
        # Each clause fires with its head replaced by one that carries
        # the head's arguments and then those of every body call, so each
        # derived atom spells out a firing: its head and the atoms it read.
        self._recording = []
        self._decode = {}    # recording predicate -> (clause, spans)
        for i, clause in enumerate(clauses):
            args = list(clause.head.args)
            spans = []  # (predicate, start, end) of each body call's arguments
            for lit in clause.body:
                if isinstance(lit, Call):
                    spans.append((lit.pred, len(args), len(args) + len(lit.args)))
                    args.extend(lit.args)
            self._recording.append(Clause(Call(f"$fired{i}", tuple(args)), clause.body))
            self._decode[f"$fired{i}"] = (clause, spans)
        self._recording = clause_plans(self._recording)
        self._raised = set()  # the clauses left out, by position
        idx = _AtomIndex()
        self._fire(idx, None)  # over the empty pool: the bodyless firings
        for chunk in chunks:
            delta = [a for a in chunk if a not in self.filed]
            for a in delta:
                self._canon[a] = a
                self.filed[a] = []
                idx.add(a)
            if delta:
                self._fire(idx, delta)
            if max_firings is not None and len(self._seen) > max_firings:
                raise _TableTooLarge
        self._plans = clause_plans(clauses)  # for the steps taken directly
        self.direct = tuple(p for i, p in enumerate(self._plans) if i in self._raised)

        # (key, lattice, value) per atom, where abstracting it does not raise
        self.info = {}
        for atom in self._canon:
            spec = specs[atom.pred]
            try:
                self.info[atom] = (spec.key_of(atom), spec.lattice, spec.abstract_atom(atom))
            except LatticeError:
                pass

    def _fire(self, idx, delta):
        """Record the firings over `idx` that read an atom of `delta`."""
        live = [i for i in range(len(self.clauses)) if i not in self._raised]
        fired = set()
        try:
            _fire_delta([self._recording[i] for i in live], idx, fired, delta)
        except LatlogError:  # fire clause by clause, to leave out those that raise
            for i in live:
                try:
                    _fire_delta((self._recording[i],), idx, fired, delta)
                except LatlogError:
                    self._raised.add(i)
        canon = self._canon
        for firing in fired:
            clause, spans = self._decode[firing.pred]
            head = Atom(clause.head.pred, firing.args[:len(clause.head.args)])
            head = canon.setdefault(head, head)
            body = frozenset(canon[Atom(pred, firing.args[start:end])]
                             for pred, start, end in spans)
            if (body, head) in self._seen:
                continue
            self._seen.add((body, head))
            if body:
                min((self.filed[a] for a in body), key=len).append((body, head))
            else:
                self.always.add(head)

    def step(self, atoms):
        """The immediate step on `atoms`, read from the table when they
        lie in the pool and computed directly when they do not."""
        out = set(self.always)
        filed = self.filed
        for a in atoms:
            bucket = filed.get(a)
            if bucket is None:
                return immediate_step(self._plans, atoms)
            for body, head in bucket:
                if body <= atoms:
                    out.add(head)
        if self.direct:
            out |= immediate_step(self.direct, atoms)
        return frozenset(out)

    def aggregate(self, atoms):
        """`aggregate_atoms`, folding the table's cached keys and values
        in input order. An atom outside the table, or one whose
        abstraction raised, hands the whole set to `aggregate_atoms`,
        which folds it or names the error."""
        info = self.info
        entries = {}
        try:
            for a in atoms:
                key, lattice, value = info[a]
                old = entries.get(key)
                entries[key] = value if old is None else join_values(lattice, old, value)
        except KeyError:
            return aggregate_atoms(self.specs, atoms)
        return entries


def _compare(x, step, aggregate, specs, fuel, checked):
    """Both sides of the condition on one subset, as (lhs, rhs) tables.

    `step` and `aggregate` supply the immediate step and the
    aggregation of an atom set; the strategy chooses them. The left
    side is cross-checked against the join-extended step, once per
    distinct stepped set: `checked` holds the ones that have passed.
    """
    stepped = step(x)
    lhs = aggregate(stepped)
    if stepped not in checked:
        closed = close_answer_groups(specs, stepped, fuel)
        if closed is not stepped and aggregate_atoms(specs, closed) != lhs:
            raise InternalInconsistencyError(
                "plain and join-extended steps disagree under aggregation "
                f"on {{{', '.join(atom_to_str(a) for a in atom_sorted(x))}}}")
        checked.add(stepped)
    collapsed = table_atoms(specs, aggregate(x))
    if collapsed == x:
        return lhs, lhs
    return lhs, aggregate(step(collapsed))


def _trace_subsets(program, specs, fuel):
    """The subsets a greedy run actually visits, in visiting order:
    each table's extracted atoms, then their immediate consequences
    under that stratum's clauses (the set the engine aggregates next)."""
    sink = []
    stratified_greedy_semantics(program, fuel, trace_sink=sink)
    seen = set()
    out = []
    for clauses, tables in sink:
        plans = clause_plans(clauses)
        for t in tables:
            atoms = table_atoms(specs, t)
            for x in (atoms, immediate_step(plans, atoms)):
                if x not in seen:
                    seen.add(x)
                    out.append(x)
    return out


def check_greedy_soundness(program: Program, strategy: CheckStrategy,
                           fuel=DEFAULT_FUEL) -> CheckReport:
    """Test the soundness condition on the subsets the strategy picks."""
    specs = build_specs(program)
    clauses = program.clauses
    cap = strategy.max_atoms if strategy.kind == "exhaustive" else fuel
    universe = atom_universe(program, fuel, cap)

    step = partial(immediate_step, clause_plans(clauses))
    aggregate = partial(aggregate_atoms, specs)
    if strategy.kind == "exhaustive":
        if not universe.complete:
            reason = (f"universe did not converge to at most {strategy.max_atoms} "
                      f"atoms within fuel {fuel}; use sampled or trace")
            return CheckReport(INCONCLUSIVE, CONDITION, universe, strategy, 0,
                               reason=reason)
        pool = atom_sorted(universe.atoms)
        table = _FiringTable(clauses, specs, [pool])
        step, aggregate = table.step, table.aggregate
        subsets = (
            frozenset(a for i, a in enumerate(pool) if mask >> i & 1)
            for mask in range(1 << len(pool)))
    elif strategy.kind == "sampled":
        pool = atom_sorted(universe.atoms)
        rng = random.Random(strategy.seed)
        bound = min(MAX_SUBSET, len(pool))
        subsets = (
            frozenset(rng.sample(pool, rng.randint(0, bound)))
            for _ in range(strategy.samples))
    elif strategy.kind == "trace":
        subsets = _trace_subsets(program, specs, fuel)
        # Stepping every subset directly indexes each of its atoms, so a
        # table recording more firings than the subsets hold atoms saves
        # nothing. That happens when the run replaces values many times
        # under rules that read several of them at once: the pool then
        # holds every value a key ever had, and the firings combine them.
        try:
            table = _FiringTable(clauses, specs, subsets, max_firings=sum(map(len, subsets)))
            step, aggregate = table.step, table.aggregate
        except _TableTooLarge:
            pass  # step each subset directly
    else:
        raise ValueError(f"unknown strategy {strategy.kind!r}")

    tested = 0
    checked = set()
    try:
        for x in subsets:
            lhs, rhs = _compare(x, step, aggregate, specs, fuel, checked)
            tested += 1
            if lhs != rhs:
                return CheckReport(VIOLATION, CONDITION, universe, strategy, tested,
                                   witness=x, lhs=lhs, rhs=rhs)
    except _BudgetExceeded:
        reason = (f"the join closure of the step on subset {tested + 1} "
                  f"outgrew fuel {fuel}")
        return CheckReport(INCONCLUSIVE, CONDITION, universe, strategy, tested,
                           reason=reason)
    return CheckReport(NO_VIOLATION, CONDITION, universe, strategy, tested)


def diff_semantics(program: Program, fuel=DEFAULT_FUEL) -> DiffReport:
    """Run both engines and compare their final tables key by key."""
    reference = stratified_reference_semantics(program, fuel)
    greedy = stratified_greedy_semantics(program, fuel)
    diffs = []
    keys = reference.table.keys() | greedy.table.keys()
    for key in sorted(keys, key=atom_key):
        rv, gv = reference.table.get(key), greedy.table.get(key)
        if rv != gv:
            diffs.append((key[0], key[1], rv, gv))
    equal = reference.converged and greedy.converged and not diffs
    return DiffReport(reference, greedy, equal, tuple(diffs))
