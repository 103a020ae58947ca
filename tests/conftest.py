import pathlib
import random

import pytest

import latlog
from latlog.checker import (
    CONDITION,
    INCONCLUSIVE,
    NO_VIOLATION,
    VIOLATION,
    CheckReport,
    CheckStrategy,
    _compare,
    _FiringTable,
    atom_universe,
    check_greedy_soundness,
)
from latlog.errors import ArithmeticTypeError, LatlogError
from latlog.greedy import stratified_greedy_semantics
from latlog.lattice import aggregate_atoms, build_specs, join_values, table_atoms
from latlog.program import Call, Var, clause_to_str, fact_clause, pattern_to_str
from latlog.reference import (
    EvalOutcome,
    FixpointResult,
    StratumResult,
    _AtomIndex,
    _BudgetExceeded,
    immediate_step,
)
from latlog.stratify import stratify, stratum_clauses
from latlog.terms import (
    MAX_INT_DIGITS,
    Atom,
    Compound,
    Int,
    ListTerm,
    Symbol,
    atom_sorted,
    term_key,
    term_to_str,
)

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
    """x below y in the lattice: their join is y. None is bottom, as
    `table.get` gives for an absent key."""
    if x is None:
        return True
    if y is None:
        return False
    return join_values(spec, x, y) == y


def table_leq(specs, f, g) -> bool:
    """Every value of table f lies below g's value at the same key."""
    return all(leq_values(specs[key[0]].lattice, value, g.get(key))
               for key, value in f.items())


def singleton_table(specs, atom) -> dict:
    """The table holding just this atom's abstracted answer."""
    spec = specs[atom.pred]
    return {spec.key_of(atom): spec.abstract_atom(atom)}


def aggregate_model(specs, atoms) -> frozenset:
    """Post-processing: aggregate the atoms per answer group, then read
    the surviving atoms back out."""
    return table_atoms(specs, aggregate_atoms(specs, atoms))


def recompute_sides(program, witness, fuel):
    """Both sides of the soundness condition on one subset, from the
    definitions: direct immediate steps and folds. This is the
    oracle for the checker's firing tables and shortcuts."""
    specs = build_specs(program)
    atoms = frozenset(witness)
    stepped = immediate_step(program.clauses, atoms)
    lhs = aggregate_atoms(specs, stepped)
    assert lhs == aggregate_atoms(specs, frontier_close_groups(specs, stepped, fuel))
    collapsed = table_atoms(specs, aggregate_atoms(specs, atoms))
    return lhs, aggregate_atoms(specs, immediate_step(program.clauses, collapsed))


# --- the term order read off the fields: the oracle for term_key ------------


def field_term_key(t):
    """The sort key of the term order, built from each term's fields."""
    if isinstance(t, Int):
        return (0, t.value)
    if isinstance(t, Symbol):
        return (1, t.name)
    if isinstance(t, Compound):
        return (2, t.functor, len(t.args), tuple(field_term_key(a) for a in t.args))
    if isinstance(t, ListTerm):
        return (3, len(t.elements), tuple(field_term_key(e) for e in t.elements))
    raise TypeError(f"not a ground term: {t!r}")


# --- the dict-binding walk: the oracle for compiled clause plans ------------
#
# A depth-first walk over the body that copies a dict of bindings at
# every literal, asks the index for candidates by the bindings it holds,
# and evaluates each builtin by walking its expression. Candidates come
# from the same `_AtomIndex` lookups in the same order, so the first
# error a walk meets is the one a plan meets.


def substitute(p, bindings):
    """Replace variables by their bindings, producing a ground term."""
    if isinstance(p, Var):
        try:
            return bindings[p.name]
        except KeyError:
            raise LatlogError(f"unbound variable {p.name}") from None
    if isinstance(p, Compound):
        return Compound(p.functor, tuple(substitute(a, bindings) for a in p.args))
    if isinstance(p, ListTerm):
        return ListTerm(tuple(substitute(e, bindings) for e in p.elements))
    return p


def _bind(pattern, term, bindings):
    if isinstance(pattern, Var):
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = term
            return True
        return bound == term
    if isinstance(pattern, Compound):
        return (isinstance(term, Compound) and term.functor == pattern.functor
                and len(term.args) == len(pattern.args)
                and all(_bind(p, t, bindings) for p, t in zip(pattern.args, term.args)))
    if isinstance(pattern, ListTerm):
        return (isinstance(term, ListTerm) and len(term.elements) == len(pattern.elements)
                and all(_bind(p, t, bindings) for p, t in zip(pattern.elements, term.elements)))
    return pattern == term


def match_seq(patterns, terms, bindings):
    """One-way matching of patterns against ground terms, pairwise: the
    extended bindings, or None."""
    out = dict(bindings)
    return out if all(_bind(p, t, out) for p, t in zip(patterns, terms)) else None


_BINOPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "min": min, "max": max}
_COMPARISONS = {"<": lambda a, b: a < b, "=<": lambda a, b: a <= b,
                ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def eval_arith(p, bindings) -> int:
    """Evaluate an arithmetic expression pattern to an integer."""
    if isinstance(p, Var):
        t = bindings.get(p.name)
        if isinstance(t, Int):
            return t.value
        if t is None:
            t = substitute(p, bindings)  # raises the unbound-variable error
        raise ArithmeticTypeError(f"arithmetic on non-integer {term_to_str(t)}")
    if isinstance(p, Compound):
        if len(p.args) == 2 and p.functor in _BINOPS:
            return _BINOPS[p.functor](eval_arith(p.args[0], bindings),
                                      eval_arith(p.args[1], bindings))
        if p.functor == "-" and len(p.args) == 1:
            return -eval_arith(p.args[0], bindings)
    elif isinstance(p, Int):
        return p.value
    raise ArithmeticTypeError(f"not an arithmetic expression: {pattern_to_str(p)}")


def eval_builtin(lit, bindings):
    """The bindings after a builtin, extended when `is` binds its left
    side, or None when it fails."""
    lhs, rhs = lit.args
    if lit.op == "is":
        n = eval_arith(rhs, bindings)
        if not -10 ** MAX_INT_DIGITS < n < 10 ** MAX_INT_DIGITS:
            raise ArithmeticTypeError(
                f"{pattern_to_str(rhs)} has more than {MAX_INT_DIGITS} digits")
        if isinstance(lhs, Var) and lhs.name not in bindings:
            return {**bindings, lhs.name: Int(n)}
        return bindings if substitute(lhs, bindings) == Int(n) else None
    if lit.op == "=":
        return bindings if substitute(lhs, bindings) == substitute(rhs, bindings) else None
    holds = _COMPARISONS[lit.op](eval_arith(lhs, bindings), eval_arith(rhs, bindings))
    return bindings if holds else None


def _candidates(idx, call, bindings, skip):
    """The atoms of `idx` that agree with the call's bound arguments and
    constants, less those in `skip`."""
    positions, key = [], []
    for i, p in enumerate(call.args):
        if isinstance(p, Var):
            p = bindings.get(p.name)
            if p is None:
                continue
        elif not isinstance(p, (Int, Symbol)):
            continue  # left to the matcher
        positions.append(i)
        key.append(p)
    pool = idx.lookup(call.pred, tuple(positions))
    if positions:
        pool = pool.get(key[0] if len(key) == 1 else tuple(key), ())
    return [a for a in pool if a not in skip]


def walk_fire_clause(clause, idx, derived, delta_idx=None, pivot=None):
    """`reference._fire_clause`, as a walk: with a pivot, that call reads
    `delta_idx`, the calls before it the atoms of `idx` outside it, and
    the calls after it all of `idx`."""
    body, heads = clause.body, set()

    def walk(i, bindings):
        if i == len(body):
            heads.add(tuple(substitute(a, bindings) for a in clause.head.args))
            return
        lit = body[i]
        if not isinstance(lit, Call):
            nb = eval_builtin(lit, bindings)
            if nb is not None:
                walk(i + 1, nb)
            return
        skip = delta_idx.by_pred.get(lit.pred, ()) if pivot is not None and i < pivot else ()
        pool = delta_idx if i == pivot else idx
        for atom in _candidates(pool, lit, bindings, skip):
            nb = match_seq(lit.args, atom.args, bindings)
            if nb is not None:
                walk(i + 1, nb)

    walk(0, {})
    derived.update(Atom(clause.head.pred, args) for args in heads)


def walk_immediate_step(clauses, atoms) -> frozenset:
    """`immediate_step` through `walk_fire_clause`."""
    derived, idx = set(), _AtomIndex(atoms)
    for clause in clauses:
        walk_fire_clause(clause, idx, derived)
    return frozenset(derived)


# --- the join closure's frontier loop: the oracle for the one-round closure ---


def frontier_close(spec, values, new_values, budget):
    """Add `new_values` to a group's closed value set and close it
    again, in place, by joining every added value with the whole set
    until nothing new appears. Returns the values the join added."""
    fresh = [v for v in new_values if v not in values]
    values.update(fresh)
    added = []
    frontier = fresh if len(values) > len(fresh) else list(values)
    while frontier:
        next_frontier = []
        for x in frontier:
            for y in list(values):
                j = join_values(spec.lattice, x, y)
                if j not in values:
                    values.add(j)
                    next_frontier.append(j)
                    added.append(j)
                    if len(values) > budget:
                        raise _BudgetExceeded
        frontier = next_frontier
    return added


def frontier_close_groups(specs, atoms, budget) -> frozenset:
    """`close_answer_groups`, with each group closed by `frontier_close`."""
    groups = {}
    for atom in atoms:
        spec = specs[atom.pred]
        if not spec.lattice.selective:
            groups.setdefault(spec.key_of(atom), set()).add(spec.abstract_atom(atom))
    added = set()
    for key, values in groups.items():
        spec = specs[key[0]]
        for v in frontier_close(spec, set(), values, budget):
            added.add(spec.atom_of(key, v))
    return frozenset(atoms).union(added) if added else atoms


# --- the reference engine's naive loop: the oracle for its delta loop --------


def join_extended_step(clauses, specs, atoms, budget) -> frozenset:
    """The immediate step, with each answer group closed under its join."""
    return frontier_close_groups(specs, immediate_step(clauses, atoms), budget)


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


# --- the per-mask loop and the trace replay: oracles for the checker ---------


def mask_loop(table, subsets, universe, strategy, fuel):
    """`check_greedy_soundness`'s loop: compare the masks of `subsets`
    over `table` in order, until one violates."""
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
        reason = f"the join closure of the step on subset {tested + 1} outgrew fuel {fuel}"
        return CheckReport(INCONCLUSIVE, CONDITION, universe, strategy, tested, reason=reason)
    return CheckReport(NO_VIOLATION, CONDITION, universe, strategy, tested)


def per_mask_check(program, strategy, fuel):
    """`check_greedy_soundness` under `exhaustive`, comparing every mask
    of the universe in ascending order until one violates."""
    universe = atom_universe(program, fuel, strategy.max_atoms)
    if not universe.complete:  # inconclusive before any subset
        return check_greedy_soundness(program, strategy, fuel)
    table = _FiringTable(program.clauses, build_specs(program), atom_sorted(universe.atoms))
    return mask_loop(table, range(1 << len(universe.atoms)), universe, strategy, fuel)


def replay_trace_subsets(program, fuel):
    """The subsets a greedy run visits, in visiting order: each table's
    extracted atoms, then their immediate consequences under that
    stratum's clauses, lower-strata answers injected as facts, each
    stepped directly."""
    specs = build_specs(program)
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


def replay_trace_check(program, fuel):
    """`check_greedy_soundness` under `trace`, on the replay's subsets,
    with every step direct."""
    universe = atom_universe(program, fuel, fuel)
    subsets = replay_trace_subsets(program, fuel)
    table = _FiringTable(program.clauses, build_specs(program))  # an empty pool
    return mask_loop(table, map(table.mask_of, subsets), universe, CheckStrategy("trace"), fuel)


# p(a,foo) makes the q rule raise, but only on subsets that hold it;
# with the a/1 rules, a witness comes before any such subset
ARITH_ERROR = """:- table p(index,min). :- table q(max).
p(a,1). p(a,foo). q(X) :- p(a,Y), X is Y+1.
"""
LAZY_ERROR = ARITH_ERROR + """:- table a(max).
a(0). a(1). a(2) :- a(X), X >= 1. a(3) :- a(X), X = 0.
"""


# e, d and best are three strata: d's steps read e's answers as
# injected facts, and best's read d's answers, not every atom d's rules
# derive
THREE_STRATA = """:- table d(index,min).
:- table best(min).
e(a,b,3). e(b,c,1). e(a,c,5). e(c,d,2).
d(Y,C) :- e(a,Y,C).
d(Y,C) :- d(X,C1), e(X,Y,C2), C is C1+C2.
best(C) :- d(c,C).
best(C) :- d(d,C1), C is C1-3.
"""

# p(a,1) and p(b,infty) are never in one subset, but both are in the
# pool, where the q rule raises on them: q is stepped directly
POOL_RAISE = """:- table p(index,lattice(max_inf/3)).
p(c,1).
p(c,2) :- p(c,1).
p(a,1) :- p(c,1).
p(a,2) :- p(c,2).
p(b,infty) :- p(a,2).
q(Z) :- p(a,1), p(b,Y), Z is Y+1.
"""

# the shape of paths_min's trace-checked programs: a 12-node chain with
# one edge from each node skipping ahead by 2-4 nodes
BENCH_MIN = """:- table p(index,index,min).
p(X,Y,1) :- e(X,Y).
p(X,Y,D) :- p(X,Z,D1), e(Z,Y), D is D1+1.
""" + "".join(f"e(n{v},n{v + 1}). " for v in range(11)) + "".join(
    f"e(n{v},n{min(11, v + 2 + v % 3)}). " for v in range(10)) + "\n"


# --- canonical program text: the printer for the parser's round trip -------


def _mode_to_str(m) -> str:
    if m.kind == "lattice":
        return f"lattice({m.relation}/3)"
    if m.kind == "po":
        return f"po({m.relation}/2)"
    return m.kind


def program_to_text(program) -> str:
    """Canonical text whose reparse is structurally identical."""
    lines = []
    for pred in sorted(program.directives):
        modes = ",".join(_mode_to_str(m) for m in program.directives[pred])
        lines.append(f":- table {pred}({modes}).")
    for relations in (program.join_relations, program.order_relations):
        for name in sorted(relations):
            for row in sorted(relations[name], key=lambda r: tuple(map(term_key, r))):
                lines.append(f"{name}({','.join(map(pattern_to_str, row))}).")
    for c in program.clauses:
        lines.append(clause_to_str(c))
    return "\n".join(lines) + ("\n" if lines else "")


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
