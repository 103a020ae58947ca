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
run touches). Exhaustive compares only the subsets that can decide it,
key by key (see below).

The subsets of one check share almost all of their rule firings. So
each check fires the program's rules once, over a pool holding the
subsets it tests: the universe, whose answer groups are closed under
the join, or the trace subsets. The firing table keeps each firing
with the body atoms it read, which is the why-provenance of the step
(Green, Karvounarakis and Tannen, PODS 2007). Every atom set is an int
bit mask over one numbering of the atoms the check meets: for
`exhaustive` the sorted universe first, whose subset m + 1 is mask m,
then each other atom when first met. The step on a mask inside the
pool ORs the heads of the firings whose body mask lies inside it; any
other mask is stepped directly. A trace pool grows along the greedy
run, and each table's step is read off the firing table: the lower
strata's answers, and the heads of the stratum's firings inside the
table's atoms. A clause whose builtins raise while the table is built
is fired directly on each subset, so an error surfaces only at a
subset whose own step raises it, with the same message. Where a trace
table records more firings than the trace subsets hold atoms, and
always for `sampled`, whose few small subsets come from pools of up to
`fuel` atoms, the pool is empty: every step is direct.

Each atom's key and value are abstracted once, when it is numbered,
and folded in any order, since the join of two values that abstraction
accepted is always defined. A set holding an atom that abstraction
rejects is folded by `aggregate_atoms`, which names the error in atom
order. A subset's collapse (extract . aggregate) builds each atom from
its key and value, once per pair: under `all` and `po` a value read
back is written as a list, so it need not be the pool atom it came
from. A subset that its collapse leaves unchanged has equal sides by
definition. The left side is memoized per distinct stepped set, and
cross-checked then against the join-extended step, whose aggregate
must be the same; a gap is a bug in this package, not a property of
the program. The right side is memoized per distinct collapsed set.
When the join closure of a step outgrows `fuel`, the check is
inconclusive.

An exhaustive check compares the sides key by key. At an answer key k
both read only the subset's atoms in k's span, the pool atoms of the
answer groups that k's firings read: the left side reads those
firings' bodies, and the right side the groups' collapse, which works
group by group. So the least violating mask is a submask of some span,
and the check compares the spans' submasks in ascending order. The
first that violates is reported as subset mask + 1, and a clean pass
as all 2^n: `tested` counts the subsets decided, not those compared,
and the cross-check covers the compared subsets' stepped sets. Every
mask is compared in order instead when a clause is stepped directly,
an abstraction raised, a collapse can read back an atom outside the
pool (the lists of `all` and `po`), `fuel` is below the universe size,
or the key-local pass raises.

`diff_semantics` is the blunt instrument next to these: run both
engines and compare answers.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple

from .errors import InternalInconsistencyError, LatlogError, LatticeError
from .greedy import stratified_greedy_semantics
from .lattice import aggregate_atoms, build_specs, join_values, table_atoms
from .program import Call, Clause, Program
from .reference import (
    DEFAULT_FUEL,
    _AtomIndex,
    _BudgetExceeded,
    _fire_pivots,
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


class _FiringTable:
    """Every firing of one immediate step over a pool of atoms, on atom
    sets written as bit masks (see the module docstring).

    The pool starts as the atoms of `pool`, which take the first bits
    in its order, and grows by `add`. Each addition fires only the
    rules that read one of its new atoms.
    """

    def __init__(self, clauses, specs, pool=()):
        self.specs = specs
        self.atoms = {}       # single-atom mask -> atom
        self._one = {}        # atom -> its mask
        self.info = {}        # single-atom mask -> (key, lattice, value), None if abstraction raised
        self._collapsed = {}  # (key, value) -> the mask of the atom it reads back as
        self.pool = 0         # a mask with a bit outside it holds an atom outside the pool
        self.firings = set()  # (body mask, head mask)
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
        self._plans = clause_plans(clauses)  # for the steps taken directly
        self._raised = set()  # the clauses left out, by position
        self._idx = _AtomIndex()
        mask = self.mask_of(pool)
        self._fire(None)  # over the empty pool: the bodyless firings
        self.add(mask)

    def add(self, mask):
        """Add the atoms of `mask` to the pool, and record the firings
        that read one of them."""
        delta = self.atoms_of(mask & ~self.pool)
        if delta:
            self.pool |= mask
            for a in delta:
                self._idx.add(a)
            self._fire(delta)

    def one(self, atom):
        """The mask holding `atom` alone; a new atom takes the next bit."""
        one = self._one.get(atom)
        if one is None:
            one = self._one[atom] = 1 << len(self.atoms)
            self.atoms[one] = atom
            spec = self.specs[atom.pred]
            try:
                self.info[one] = (spec.key_of(atom), spec.lattice, spec.abstract_atom(atom))
            except LatticeError:
                self.info[one] = None
        return one

    def mask_of(self, atoms):
        mask = 0
        for a in atoms:
            mask |= self.one(a)
        return mask

    def atoms_of(self, mask):
        atoms = []
        while mask:
            low = mask & -mask
            atoms.append(self.atoms[low])
            mask ^= low
        return frozenset(atoms)

    def _fire(self, delta):
        """Record the firings over the pool that read an atom of `delta`."""
        live = [i for i in range(len(self._recording)) if i not in self._raised]
        fired = set()
        try:
            _fire_pivots([self._recording[i] for i in live], self._idx, fired, delta)
        except LatlogError:  # fire clause by clause, to leave out those that raise
            for i in live:
                try:
                    _fire_pivots((self._recording[i],), self._idx, fired, delta)
                except LatlogError:
                    self._raised.add(i)
        self.direct = tuple(p for i, p in enumerate(self._plans) if i in self._raised)
        for firing in fired:
            clause, spans = self._decode[firing.pred]
            head = self.one(Atom(clause.head.pred, firing.args[:len(clause.head.args)]))
            body = self.mask_of(Atom(pred, firing.args[start:end]) for pred, start, end in spans)
            self.firings.add((body, head))

    def step(self, mask):
        """The immediate step on `mask`, from the table when it lies in
        the pool."""
        if mask | self.pool != self.pool:
            return self.mask_of(immediate_step(self._plans, self.atoms_of(mask)))
        out = 0
        for body, head in self.firings:
            if body & mask == body:
                out |= head
        if self.direct:
            out |= self.mask_of(immediate_step(self.direct, self.atoms_of(mask)))
        return out

    def aggregate(self, mask):
        """`aggregate_atoms` on the atoms of `mask`, folding their cached
        keys and values. An atom whose abstraction raised hands the
        whole set to `aggregate_atoms`, which names the error."""
        info = self.info
        entries = {}
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            entry = info[low]
            if entry is None:
                return aggregate_atoms(self.specs, self.atoms_of(mask))
            key, lattice, value = entry
            old = entries.get(key)
            entries[key] = value if old is None else join_values(lattice, old, value)
        return entries

    def collapse(self, mask):
        """extract . aggregate on `mask`. Each atom is built from its key
        and value, never taken from the pool atom the value came from:
        under `all` and `po` the atom read back writes it as a list."""
        out = 0
        collapsed = self._collapsed
        for kv in self.aggregate(mask).items():
            one = collapsed.get(kv)
            if one is None:
                key, value = kv
                one = collapsed[kv] = self.one(self.specs[key[0]].atom_of(key, value))
            out |= one
        return out


def _compare(x, table, fuel, lhs_of, rhs_of):
    """Both sides of the condition on the subset `x`, a mask over
    `table`, as (lhs, rhs) tables. They are memoized per stepped set in
    `lhs_of`, the left side cross-checked when first computed, and per
    collapsed set in `rhs_of`."""
    stepped = table.step(x)
    lhs = lhs_of.get(stepped)
    if lhs is None:
        lhs = table.aggregate(stepped)
        atoms = table.atoms_of(stepped)
        closed = close_answer_groups(table.specs, atoms, fuel)
        if closed is not atoms and aggregate_atoms(table.specs, closed) != lhs:
            raise InternalInconsistencyError(
                "plain and join-extended steps disagree under aggregation on "
                f"{{{', '.join(atom_to_str(a) for a in atom_sorted(table.atoms_of(x)))}}}")
        lhs_of[stepped] = lhs
    collapsed = table.collapse(x)
    if collapsed == x:
        return lhs, lhs
    if collapsed not in rhs_of:
        rhs_of[collapsed] = table.aggregate(table.step(collapsed))
    return lhs, rhs_of[collapsed]


def _key_spans(table, fuel):
    """The span of each answer key the firings derive: the pool atoms
    of every answer group that the key's firings read. None where the
    key-local pass might not give the per-mask loop's report (see the
    module docstring)."""
    info = table.info
    size = table.pool.bit_length()
    if table.direct or fuel < size or None in info.values():
        return None
    groups = {}  # key -> {value: the bit of the pool atom holding it}
    for one in (1 << i for i in range(size)):
        if table.collapse(one) != one:  # it reads back as another atom
            return None
        key, _, value = info[one]
        groups.setdefault(key, {})[value] = one
    group_of = {}  # single-atom mask -> the mask of its answer group
    for key, bits in groups.items():
        lattice = table.specs[key[0]].lattice
        if any(join_values(lattice, u, v) not in bits for u in bits for v in bits):
            return None  # some collapse reads back an atom outside the pool
        group_of.update(dict.fromkeys(bits.values(), sum(bits.values())))
    reads = {}  # head key -> the pool atoms its firings read
    for body, head in table.firings:
        key = info[head][0]
        reads[key] = reads.get(key, 0) | body
    spans = set()
    for body in reads.values():
        span = 0
        while body:
            low = body & -body
            body ^= low
            span |= group_of[low]
        spans.add(span)
    return spans


def _submasks(span):
    """Every submask of `span`, in ascending order."""
    x = 0
    while True:
        yield x
        if x == span:
            return
        x = (x - span) & span


def _key_local_report(table, fuel, universe, strategy):
    """The exhaustive check's report from the submasks of the key spans
    alone, or None where the per-mask loop must decide: when the pass
    does not apply, or raises, since the loop then raises or reports
    exactly what it would anyway."""
    try:
        spans = _key_spans(table, fuel)
        if spans is None:
            return None
        # a span inside another adds no submask
        spans = [s for s in spans if not any(s != t and s & t == s for t in spans)]
        lhs_of, rhs_of = {}, {}
        last = None
        for x in heapq.merge(*map(_submasks, spans)):
            if x == last:
                continue
            last = x
            lhs, rhs = _compare(x, table, fuel, lhs_of, rhs_of)
            if lhs != rhs:
                return CheckReport(VIOLATION, CONDITION, universe, strategy, x + 1,
                                   witness=table.atoms_of(x), lhs=lhs, rhs=rhs)
    except (LatlogError, _BudgetExceeded):
        return None
    return CheckReport(NO_VIOLATION, CONDITION, universe, strategy, 1 << len(universe.atoms))


def _trace_subsets(program, specs, fuel):
    """The subsets a greedy run visits, in visiting order, as masks over
    a firing table that steps them: each table's atoms, then their step
    under that stratum's clauses. A table that outgrows the subsets'
    atoms in firings, as when a run keeps replacing values that rules
    read several at once, is dropped for an empty pool."""
    sink = []
    outcome = stratified_greedy_semantics(program, fuel, trace_sink=sink)
    table = _FiringTable(program.clauses, specs)
    runs = [(stratum.preds, clauses, [table.mask_of(table_atoms(specs, t)) for t in tables])
            for stratum, (clauses, tables) in zip(outcome.strata, sink)]
    seen = {x for *_, tables in runs for x in tables}  # and each stepped set
    budget = sum(map(int.bit_count, seen))
    kept = True  # the table steps the run; else each table is stepped directly
    trace = {}  # the subsets, in visiting order
    for preds, clauses, tables in runs:
        plans = clause_plans(clauses)
        lower = table.mask_of(Atom(c.head.pred, c.head.args)
                              for c in clauses if c.head.pred not in preds)
        for x in tables:
            if not kept:
                stepped = table.mask_of(immediate_step(plans, table.atoms_of(x)))
            else:  # the lower answers, and the stratum's firings inside x
                table.add(x)
                stepped = lower
                direct = [p for p in table.direct if p[0].head.pred in preds]
                if direct:
                    stepped |= table.mask_of(immediate_step(direct, table.atoms_of(x)))
                for body, head in table.firings:
                    if body & x == body and table.atoms[head].pred in preds:
                        stepped |= head
            trace[x] = trace[stepped] = None
            if stepped not in seen:
                seen.add(stepped)
                budget += stepped.bit_count()
            kept = kept and len(table.firings) <= budget
            if kept:
                table.add(stepped)
    if kept and len(table.firings) <= budget:
        return list(trace), table
    empty = _FiringTable(program.clauses, specs)
    return [empty.mask_of(table.atoms_of(x)) for x in trace], empty


def check_greedy_soundness(program: Program, strategy: CheckStrategy,
                           fuel=DEFAULT_FUEL) -> CheckReport:
    """Test the soundness condition on the subsets the strategy picks."""
    specs = build_specs(program)
    clauses = program.clauses
    cap = strategy.max_atoms if strategy.kind == "exhaustive" else fuel
    universe = atom_universe(program, fuel, cap)

    if strategy.kind == "exhaustive":
        if not universe.complete:
            reason = (f"universe did not converge to at most {strategy.max_atoms} "
                      f"atoms within fuel {fuel}; use sampled or trace")
            return CheckReport(INCONCLUSIVE, CONDITION, universe, strategy, 0,
                               reason=reason)
        # bit i is the i-th atom in atom order, so mask m is subset m + 1
        table = _FiringTable(clauses, specs, atom_sorted(universe.atoms))
        report = _key_local_report(table, fuel, universe, strategy)
        if report is not None:
            return report
        subsets = range(1 << len(universe.atoms))
    elif strategy.kind == "sampled":
        pool = atom_sorted(universe.atoms)
        rng = random.Random(strategy.seed)
        bound = min(MAX_SUBSET, len(pool))
        table = _FiringTable(clauses, specs)  # an empty pool: every step is direct
        subsets = (table.mask_of(rng.sample(pool, rng.randint(0, bound)))
                   for _ in range(strategy.samples))
    elif strategy.kind == "trace":
        subsets, table = _trace_subsets(program, specs, fuel)
    else:
        raise ValueError(f"unknown strategy {strategy.kind!r}")

    tested = 0
    lhs_of, rhs_of = {}, {}
    try:
        for x in subsets:
            lhs, rhs = _compare(x, table, fuel, lhs_of, rhs_of)
            tested += 1
            if lhs != rhs:
                return CheckReport(VIOLATION, CONDITION, universe, strategy, tested,
                                   witness=table.atoms_of(x), lhs=lhs, rhs=rhs)
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
