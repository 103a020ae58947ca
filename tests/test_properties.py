"""Seeded random property suites over the lattice laws and operators.

Each suite draws at least a thousand cases from its own Random. They
run against hand-built value generators (for the lattice laws) and
against small fuel-bounded atom pools taken from the corpus programs
(for the operator properties), so failures print concrete atoms.
"""

import random

import pytest

from conftest import (
    CORPUS_FILES,
    aggregate_model,
    join_extended_step,
    leq_values,
    load,
    singleton_table,
    table_leq,
)
from latlog.greedy import greedy_step
from latlog.lattice import (
    BOTTOM,
    INF,
    AllLattice,
    DiscreteLattice,
    ExtendedNatLattice,
    MaxLattice,
    MinLattice,
    PoLattice,
    ProductLattice,
    ProductVal,
    SetVal,
    TermVal,
    UserJoinLattice,
    aggregate_atoms,
    build_specs,
    join_values,
    table_atoms,
)
from latlog.reference import (
    close_answer_groups,
    immediate_step,
    stratum_lfp,
)
from latlog.terms import Atom, Compound, Int, Symbol, atom_sorted

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
    return SetVal(frozenset(_term(rng) for _ in range(rng.randint(1, 3))))


DIAMOND = PoLattice("ord", frozenset({
    (Symbol("a"), Symbol("c")), (Symbol("a"), Symbol("d")),
    (Symbol("b"), Symbol("c")), (Symbol("b"), Symbol("d"))}))


def _antichain(rng):
    raw = frozenset(Symbol(rng.choice("abcd")) for _ in range(rng.randint(1, 3)))
    return SetVal(DIAMOND.prune(raw))


def _kind_generators(lub):
    return [
        (MinLattice(), lambda rng: TermVal(_term(rng))),
        (MaxLattice(), lambda rng: TermVal(_term(rng))),
        (AllLattice(), _small_set),
        (DiscreteLattice(), _small_set),
        (DIAMOND, _antichain),
        (lub, lambda rng: TermVal(Symbol(rng.choice("abcd")))),
        (UserJoinLattice("min", None), lambda rng: TermVal(Int(rng.randint(-9, 9)))),
        (ExtendedNatLattice(),
         lambda rng: INF if rng.random() < 0.2 else TermVal(Int(rng.randint(0, 20)))),
        (ProductLattice((MinLattice(), AllLattice())),
         lambda rng: ProductVal((TermVal(_term(rng)), _small_set(rng)))),
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
            assert join_values(spec, x, BOTTOM) == x
            assert join_values(spec, BOTTOM, x) == x
            assert leq_values(spec, x, xy) and leq_values(spec, y, xy)
            # round trip through the term representation
            assert spec.abstract(spec.represent(x)) == x
            if isinstance(spec, PoLattice):
                assert spec.prune(xy.elements) == xy.elements


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
        assert aggregate_atoms(specs2, table_atoms(specs2, t)).entries == t.entries


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
        assert plain.entries == extended.entries


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
