"""Seeded random property suites over the lattice laws and operators.

Each suite draws at least a thousand cases from its own Random. They
run against hand-built value generators (for the lattice laws) and
against small fuel-bounded atom pools taken from the corpus programs
(for the operator properties), so failures print concrete atoms. The
join closure is checked against its frontier-loop oracle with
Hypothesis, which shrinks a failing value set to a small one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_FILES,
    aggregate_model,
    frontier_close,
    join_extended_step,
    leq_values,
    load,
    singleton_table,
    table_leq,
)
from latlog.greedy import greedy_step
from latlog.lattice import (
    DUMMY,
    INFTY,
    AllLattice,
    DiscreteLattice,
    ExtendedNatLattice,
    MaxLattice,
    MinLattice,
    PoLattice,
    PredSpec,
    ProductLattice,
    UserJoinLattice,
    aggregate_atoms,
    build_specs,
    join_values,
    table_atoms,
)
from latlog.reference import (
    _BudgetExceeded,
    _close_group,
    close_answer_groups,
    immediate_step,
    stratum_lfp,
)
from latlog.parser import parse_program
from latlog.terms import Atom, Compound, Int, ListTerm, Symbol, atom_sorted, term_sorted

CASES = 1000
POOL_FUEL = 40
POOL_CAP = 20


@pytest.fixture(scope="module")
def pools(programs):
    """name -> (program, specs, bounded atom pool) for operator sampling."""
    out = {}
    for name in CORPUS_FILES:
        prog = programs[name]
        specs = build_specs(prog)
        fp = stratum_lfp(prog.clauses, specs, POOL_FUEL)
        out[name] = (prog, specs, atom_sorted(fp.value)[:POOL_CAP])
    return out


def subset_of(rng, pool):
    return frozenset(rng.sample(pool, rng.randint(0, len(pool))))


# --- suite 1: join laws per lattice kind -----------------------------------


def _term(rng):
    r = rng.random()
    if r < 0.5:
        return Int(rng.randint(-9, 9))
    if r < 0.8:
        return Symbol(rng.choice("abcdef"))
    return Compound("f", (Int(rng.randint(0, 3)), Symbol(rng.choice("ab"))))


def _small_set(rng):
    return frozenset(_term(rng) for _ in range(rng.randint(1, 3)))


DIAMOND = PoLattice("ord", frozenset({
    (Symbol("a"), Symbol("c")), (Symbol("a"), Symbol("d")),
    (Symbol("b"), Symbol("c")), (Symbol("b"), Symbol("d"))}))


def _antichain(rng):
    raw = frozenset(Symbol(rng.choice("abcd")) for _ in range(rng.randint(1, 3)))
    return DIAMOND.prune(raw)


def _kind_generators(lub):
    return [
        (MinLattice(), _term),
        (MaxLattice(), _term),
        (AllLattice(), _small_set),
        (DiscreteLattice(), _small_set),
        (DIAMOND, _antichain),
        (lub, lambda rng: Symbol(rng.choice("abcd"))),
        (ExtendedNatLattice(),
         lambda rng: INFTY if rng.random() < 0.2 else Int(rng.randint(0, 20))),
        (ProductLattice((MinLattice(), AllLattice())),
         lambda rng: (_term(rng), _small_set(rng))),
    ]


def test_join_laws_per_kind(programs):
    lub = build_specs(programs["lub_lattice.pl"])["p"].lattice
    rng = random.Random(101)
    for spec, gen in _kind_generators(lub):
        for _ in range(CASES):
            x, y, z = gen(rng), gen(rng), gen(rng)
            xy = join_values(spec, x, y)
            assert xy == join_values(spec, y, x)
            assert join_values(spec, xy, z) == join_values(spec, x, join_values(spec, y, z))
            assert join_values(spec, x, x) == x
            assert leq_values(spec, x, xy) and leq_values(spec, y, xy)
            # round trip through the term representation
            assert spec.abstract(spec.represent(x)) == x
            if isinstance(spec, PoLattice):
                assert spec.prune(xy) == xy


# --- suite 2: step monotonicity ---------------------------------------------


def test_steps_are_monotone_on_subset_pairs(pools):
    rng = random.Random(202)
    for _ in range(CASES):
        prog, specs, pool = pools[rng.choice(CORPUS_FILES)]
        big = subset_of(rng, pool)
        small = frozenset(rng.sample(sorted(big, key=str), rng.randint(0, len(big))))
        tp_small = immediate_step(prog.clauses, small)
        tp_big = immediate_step(prog.clauses, big)
        assert tp_small <= tp_big
        assert (join_extended_step(prog.clauses, specs, small, 10**6)
                <= join_extended_step(prog.clauses, specs, big, 10**6))
        # aggregation is monotone as well, in the pointwise table order
        assert table_leq(specs, aggregate_atoms(specs, small),
                         aggregate_atoms(specs, big))


# --- suite 3: continuity on finite chains -----------------------------------


def test_steps_are_continuous_on_finite_chains(pools):
    rng = random.Random(303)
    for _ in range(CASES):
        prog, specs, pool = pools[rng.choice(CORPUS_FILES)]
        chain = [subset_of(rng, pool)]
        for _ in range(rng.randint(1, 3)):
            chain.append(chain[-1] | subset_of(rng, pool))
        limit = chain[-1]
        assert immediate_step(prog.clauses, limit) == frozenset().union(
            *(immediate_step(prog.clauses, d) for d in chain))
        assert join_extended_step(prog.clauses, specs, limit, 10**6) == frozenset().union(
            *(join_extended_step(prog.clauses, specs, d, 10**6) for d in chain))


# --- suite 4: eta/rho retraction ---------------------------------------------


def test_extraction_inverts_embedding(pools):
    rng = random.Random(404)
    flat = [(specs, atom) for _, specs, pool in pools.values() for atom in pool]
    for _ in range(CASES):
        specs, atom = rng.choice(flat)
        assert table_atoms(specs, singleton_table(specs, atom)) == frozenset({atom})
        # and at table level: re-aggregating the extracted atoms is free
        _, specs2, pool2 = pools[rng.choice(CORPUS_FILES)]
        t = aggregate_atoms(specs2, subset_of(rng, pool2))
        assert aggregate_atoms(specs2, table_atoms(specs2, t)) == t


# --- suite 5: aggregation is deflationary for linear modes --------------------


LINEAR = ["simple.pl", "unsound_max.pl", "even_odd.pl", "even_odd_also.pl",
          "stratified_path.pl", "shortest_path.pl", "cyclic_path.pl",
          "longest_path.pl"]  # everything but the lub program


def test_aggregation_only_discards_for_linear_modes(pools):
    rng = random.Random(505)
    for _ in range(CASES):
        _, specs, pool = pools[rng.choice(LINEAR)]
        x = subset_of(rng, pool)
        assert aggregate_model(specs, x) <= x


def test_aggregation_can_invent_under_a_user_join(pools):
    # the counterpoint: joins that are not selections create atoms
    _, specs, _ = pools["lub_lattice.pl"]
    x = frozenset({Atom("p", (Symbol("a"),)), Atom("p", (Symbol("b"),))})
    assert aggregate_model(specs, x) == frozenset({Atom("p", (Symbol("c"),))})


# --- suite 6: the two steps agree under aggregation ---------------------------


def test_plain_and_extended_steps_agree_under_aggregation(pools):
    rng = random.Random(606)
    for _ in range(CASES):
        prog, specs, pool = pools[rng.choice(CORPUS_FILES)]
        x = subset_of(rng, pool)
        stepped = immediate_step(prog.clauses, x)
        plain = aggregate_atoms(specs, stepped)
        extended = aggregate_atoms(specs, close_answer_groups(specs, stepped, 10**6))
        assert plain == extended


# --- greedy step monotonicity where the condition holds -----------------------


def test_greedy_step_is_monotone_for_condition_satisfying_programs(pools):
    rng = random.Random(707)
    for _ in range(CASES):
        prog, specs, pool = pools[rng.choice(["simple.pl", "shortest_path.pl"])]
        big = subset_of(rng, pool)
        small = frozenset(rng.sample(sorted(big, key=str), rng.randint(0, len(big))))
        t = aggregate_atoms(specs, small)
        u = aggregate_atoms(specs, big)
        assert table_leq(specs, t, u)
        assert table_leq(specs, greedy_step(prog.clauses, specs, t),
                         greedy_step(prog.clauses, specs, u))


# --- the one-round join closure against the frontier loop ---------------------


_ints = st.integers(-6, 6).map(Int)
_syms = st.sampled_from("abcd").map(Symbol)


def _user_join(rows):
    return UserJoinLattice("j", frozenset(
        (Symbol(x), Symbol(y), Symbol(z)) for x, y, z in rows))


# (lattice, strategy for its values). The user join is the lub table
# of lub_lattice.pl.
CLOSURE_CASES = {
    "min-max": (ProductLattice((MinLattice(), MaxLattice())), st.tuples(_ints, _ints)),
    "min-max-terms": (ProductLattice((MinLattice(), MaxLattice())),
                      st.tuples(st.one_of(_ints, _syms), st.one_of(_ints, _syms))),
    "all": (AllLattice(), st.frozensets(st.one_of(_ints, _syms), min_size=1, max_size=3)),
    "po": (DIAMOND, st.frozensets(_syms, min_size=1, max_size=3).map(DIAMOND.prune)),
    "user-join": (_user_join(["abc", "acc", "add", "bcc", "bdd", "cdd"]), _syms),
}


def _close_outcome(close, spec, old, new_values, budget):
    """(closure, created values) after closing `old` with `new_values`,
    or the exception the closure raised."""
    values = set(old)
    try:
        created = close(spec, values, new_values, budget)
    except _BudgetExceeded as e:
        return type(e).__name__, str(e)
    return frozenset(values), frozenset(created)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(sorted(CLOSURE_CASES)))
def test_one_round_closure_matches_the_frontier_loop(data, case):
    # the group holds a closed set, so the old values are closed first;
    # the budget ranges from below the new closure's size to just above it
    lattice, values = CLOSURE_CASES[case]
    spec = PredSpec("p", 1, (), (0,), lattice)
    old = set()
    frontier_close(spec, old, data.draw(st.lists(values, max_size=6), "old"), 10**6)
    new_values = data.draw(st.lists(values, max_size=6, unique=True), "new")
    size = len(_close_outcome(frontier_close, spec, old, new_values, 10**6)[0])
    budget = data.draw(st.integers(0, size + 1), "budget")
    expected = _close_outcome(frontier_close, spec, old, new_values, budget)
    assert _close_outcome(_close_group, spec, old, new_values, budget) == expected
    shuffled = data.draw(st.permutations(new_values), "shuffled")
    assert _close_outcome(_close_group, spec, old, shuffled, budget) == expected
    if isinstance(expected[0], frozenset):
        closure, created = expected
        assert created == closure - old - set(new_values)


# --- per-predicate specs: keys and values placed at their positions -------------


_spec_terms = st.one_of(_ints, _syms, st.lists(_ints, max_size=2).map(
    lambda xs: ListTerm(tuple(xs))))

# mode -> (strategy for the part value, the term that represents it)
_SPEC_PARTS = {
    "min": (_spec_terms, lambda v: v),
    "max": (_spec_terms, lambda v: v),
    "all": (st.frozensets(_spec_terms, max_size=3),
            lambda v: ListTerm(tuple(term_sorted(v)))),
    "lattice(max_inf/3)": (st.one_of(_ints, st.just(INFTY)), lambda v: v),
}


@settings(max_examples=400, deadline=None)
@given(st.data(), st.lists(st.sampled_from(["index", *_SPEC_PARTS]), min_size=1, max_size=5))
def test_a_spec_reads_back_the_key_and_value_it_placed(data, modes):
    # discrete, single-output and product predicates, with the index
    # positions anywhere among the output positions
    spec = build_specs(parse_program(f":- table p({','.join(modes)}).\n"))["p"]
    inputs = tuple(data.draw(_spec_terms) for m in modes if m == "index")
    parts = [data.draw(_SPEC_PARTS[m][0]) for m in modes if m != "index"]
    value = (frozenset({DUMMY}) if not parts
             else parts[0] if len(parts) == 1 else tuple(parts))
    key = ("p", inputs)
    atom = spec.atom_of(key, value)
    ins, outs = iter(inputs), iter(parts)
    assert atom == Atom("p", tuple(
        next(ins) if m == "index" else _SPEC_PARTS[m][1](next(outs)) for m in modes))
    assert spec.key_of(atom) == key
    assert spec.abstract_atom(atom) == value
