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
a pool holding every subset they test and each subset's collapse
(extract . aggregate): the universe, whose answer groups are closed
under the join, or the trace subsets together with their collapses.
The resulting firing table keeps each firing with the body atoms it
read, which is the why-provenance of the step (Green, Karvounarakis
and Tannen, PODS 2007), and the step on any subset of the pool is a
containment test over it. Aggregation over the table folds in ranks
fixed once per table instead of sorting per call. A set outside the
pool is stepped directly; under `all` and `po` a collapse can be one,
since a value read back is written as a list. A clause whose builtins
raise while the table is built stays out of it and is fired directly
on each subset, so an error surfaces only at a subset whose own step
raises it, with the same message.

Where a trace table would record more firings than the trace subsets
hold atoms, the trace check steps each subset directly instead. The
sampled strategy always does: its subsets are small and drawn from
pools of up to `fuel` atoms, most of which no subset ever holds
together.

Every strategy compares the two sides with the same function. A subset
that its own collapse leaves unchanged has equal sides by definition,
so its right side is not recomputed. The left side is cross-checked
against the join-extended step, whose aggregate must be the same; a
gap is a bug in this package, not a property of the program. When the
join closure of a step outgrows `fuel`, the check is inconclusive.

`diff_semantics` is the blunt instrument next to these: run both
engines and compare answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .errors import InternalInconsistencyError, LatlogError, LatticeError
from .greedy import stratified_greedy_semantics
from .lattice import AnswerTable, aggregate_atoms, build_specs, join_values, table_atoms
from .program import Call, Clause, Program
from .reference import (
    DEFAULT_FUEL,
    EvalOutcome,
    _AtomIndex,
    _BudgetExceeded,
    _fire_delta,
    close_answer_groups,
    evaluate_strata,
    immediate_step,
    stratified_reference_semantics,
    stratum_lfp,
)
from .terms import Atom, atom_sorted, atom_to_str, term_key

NO_VIOLATION = "no-violation-found"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"
CONDITION = "step-commutation"


@dataclass(frozen=True)
class CheckStrategy:
    kind: str  # "exhaustive" | "sampled" | "trace"
    max_atoms: int = 16
    samples: int = 1000
    seed: int = 42
    max_subset: int = 9


@dataclass(frozen=True)
class UniverseResult:
    complete: bool      # converged within fuel and within the cap
    atoms: frozenset    # the universe, or the atoms seen before giving up


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    condition: str          # always CONDITION
    universe: UniverseResult
    strategy: CheckStrategy
    tested: int
    witness: frozenset = None
    lhs: object = None      # AnswerTable on a violation
    rhs: object = None
    reason: str = None      # set when inconclusive


@dataclass(frozen=True)
class DiffReport:
    reference: EvalOutcome
    greedy: EvalOutcome
    equal: bool
    per_key_diffs: tuple    # (pred, inputs, reference value, greedy value)


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
        # a stratum that ran dry is not folded: its partial model may
        # hold values its lattice rejects, and nothing reads its answers
        return fp, aggregate_atoms(specs, fp.value) if fp.converged else AnswerTable({})

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
        self.direct = tuple(c for i, c in enumerate(clauses) if i in self._raised)

        # (rank, key, lattice, value) per atom, ranks in atom_key order;
        # value None where abstracting the atom raises
        self.info = {}
        for rank, atom in enumerate(atom_sorted(self._canon)):
            spec = specs[atom.pred]
            try:
                value = spec.abstract_atom(atom)
            except LatticeError:
                value = None
            self.info[atom] = (rank, spec.key_of(atom), spec.lattice, value)

    def _fire(self, idx, delta):
        """Record the firings over `idx` that read an atom of `delta`."""
        live = [i for i in range(len(self.clauses)) if i not in self._raised]
        fired = set()
        try:
            _fire_delta([self._recording[i] for i in live], idx, fired, delta, idx)
        except LatlogError:  # fire clause by clause, to leave out those that raise
            for i in live:
                try:
                    _fire_delta((self._recording[i],), idx, fired, delta, idx)
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
                return immediate_step(self.clauses, atoms)
            for body, head in bucket:
                if body <= atoms:
                    out.add(head)
        if self.direct:
            out |= immediate_step(self.direct, atoms)
        return frozenset(out)

    def aggregate(self, atoms):
        """`aggregate_atoms`, folding in the table's ranks."""
        try:
            items = sorted([self.info[a] for a in atoms])
        except KeyError:  # an atom outside the table
            return aggregate_atoms(self.specs, atoms)
        entries = {}
        for _, key, lattice, value in items:
            if value is None:  # let the sorted fold raise its error
                return aggregate_atoms(self.specs, atoms)
            old = entries.get(key)
            entries[key] = value if old is None else join_values(lattice, old, value)
        return AnswerTable(entries)


def _compare(x, step, aggregate, specs, fuel):
    """Both sides of the condition on one subset, as (lhs, rhs) tables.

    `step` and `aggregate` supply the immediate step and the
    aggregation of an atom set; the strategy chooses them. The left
    side is cross-checked against the join-extended step.
    """
    stepped = step(x)
    lhs = aggregate(stepped)
    closed = close_answer_groups(specs, stepped, fuel)
    if closed is not stepped and aggregate_atoms(specs, closed) != lhs:
        raise InternalInconsistencyError(
            "plain and join-extended steps disagree under aggregation "
            f"on {{{', '.join(atom_to_str(a) for a in atom_sorted(x))}}}")
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
        for t in tables:
            atoms = table_atoms(specs, t)
            for x in (atoms, immediate_step(clauses, atoms)):
                if x not in seen:
                    seen.add(x)
                    out.append(x)
    return out


def _trace_chunks(specs, subsets):
    """Each trace subset, then its collapse."""
    for x in subsets:
        yield x
        try:
            yield table_atoms(specs, aggregate_atoms(specs, x))
        except LatticeError:
            pass  # raised again when the check reaches x


def check_greedy_soundness(program: Program, strategy: CheckStrategy,
                           fuel=DEFAULT_FUEL) -> CheckReport:
    """Test the soundness condition on the subsets the strategy picks."""
    specs = build_specs(program)
    clauses = program.clauses
    cap = strategy.max_atoms if strategy.kind == "exhaustive" else fuel
    universe = atom_universe(program, fuel, cap)

    step, aggregate = partial(immediate_step, clauses), partial(aggregate_atoms, specs)
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
        bound = min(strategy.max_subset, len(pool))
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
            table = _FiringTable(clauses, specs, _trace_chunks(specs, subsets),
                                 max_firings=sum(map(len, subsets)))
            step, aggregate = table.step, table.aggregate
        except _TableTooLarge:
            pass  # step each subset directly
    else:
        raise ValueError(f"unknown strategy {strategy.kind!r}")

    tested = 0
    try:
        for x in subsets:
            lhs, rhs = _compare(x, step, aggregate, specs, fuel)
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
    keys = set(reference.table.entries) | set(greedy.table.entries)
    for key in sorted(keys, key=lambda k: (k[0], tuple(term_key(t) for t in k[1]))):
        rv, gv = reference.table.get(key), greedy.table.get(key)
        if rv != gv:
            diffs.append((key[0], key[1], rv, gv))
    equal = reference.converged and greedy.converged and not diffs
    return DiffReport(reference, greedy, equal, tuple(diffs))
