"""Value domains, joins, the atom/table conversions, and answer tables."""

import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leq_values, load, singleton_table, table_leq
from latlog.errors import (
    DomainError,
    JoinUndefinedError,
    LatlogError,
    LatticeLawViolationError,
)
from latlog.lattice import (
    DUMMY,
    INFTY,
    AllLattice,
    DiscreteLattice,
    ExtendedNatLattice,
    IntMaxLattice,
    IntMinLattice,
    MaxLattice,
    MinLattice,
    PoLattice,
    ProductLattice,
    UserJoinLattice,
    aggregate_atoms,
    build_specs,
    join_values,
    sorted_items,
    table_atoms,
    table_join,
    value_to_str,
)
from latlog.parser import parse_program
from latlog.terms import (
    Atom,
    Compound,
    Int,
    ListTerm,
    Symbol,
    atom_sorted,
    term_key,
    term_to_str,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def sym(*names):
    return tuple(Symbol(n) for n in names)


a, b, c, d = sym("a", "b", "c", "d")


@pytest.fixture(scope="module")
def lub():
    return build_specs(load("lub_lattice.pl"))["p"].lattice


# --- joins -------------------------------------------------------------


def test_min_join_takes_lesser():
    assert join_values(MinLattice(), Int(1), Int(2)) == Int(1)
    assert join_values(MaxLattice(), Int(1), Int(2)) == Int(2)


def test_min_max_joins_follow_the_term_order():
    # every pair, of any two kinds, is compared by term_key
    rng = random.Random(1313)

    def term():
        r = rng.random()
        if r < 0.5:
            return Int(rng.randint(-5, 5))
        if r < 0.7:
            return Symbol(rng.choice("abc"))
        if r < 0.85:
            return Compound("f", (Int(rng.randint(0, 2)),))
        return ListTerm(tuple(Int(rng.randint(0, 2)) for _ in range(rng.randint(0, 2))))

    for _ in range(300):
        x, y = term(), term()
        lesser = x if term_key(x) <= term_key(y) else y
        greater = x if term_key(x) >= term_key(y) else y
        assert MinLattice().join(x, y) is lesser
        assert MaxLattice().join(x, y) is greater


def test_user_join_lookup(lub):
    assert join_values(lub, a, b) == c
    # commuted lookup works even though only one orientation is stored
    assert lub.join(d, a) == d


def test_bottom_identity_and_idempotence(lub):
    # bottom is an absent key, so joining a table with one that lacks
    # the key leaves the value as it is
    specs = build_specs(parse_program(
        "lub(a,b,c). lub(a,c,c). lub(a,d,d). lub(b,c,c). lub(b,d,d). lub(c,d,d).\n"
        ":- table m(min). :- table j(lattice(lub/3)). :- table s(all).\n"))
    for pred, spec, v in [("m", MinLattice(), Int(1)),
                          ("j", lub, a),
                          ("s", AllLattice(), frozenset({Int(1)}))]:
        t = {(pred, ()): v}
        assert table_join(specs, [t, {}]) == t
        assert table_join(specs, [{}, t]) == t
        assert join_values(spec, v, v) == v


def test_all_join_is_union():
    x = frozenset({Int(1)})
    y = frozenset({Int(2)})
    assert join_values(AllLattice(), x, y) == frozenset({Int(1), Int(2)})


def test_extnat_join():
    spec = ExtendedNatLattice()
    assert join_values(spec, Int(3), Int(5)) == Int(5)
    assert join_values(spec, Int(3), INFTY) == INFTY
    assert join_values(spec, INFTY, INFTY) == INFTY
    # the term order's max is integer max, and puts infty above every integer
    rng = random.Random(12)
    for _ in range(300):
        x, y = (rng.choice((Int(rng.randint(-10**6, -1)), Int(0),
                            Int(rng.randint(1, 10**6)), INFTY)) for _ in range(2))
        want = INFTY if INFTY in (x, y) else Int(max(x.value, y.value))
        assert join_values(spec, x, y) == want
        assert join_values(spec, y, x) == want


def test_product_join_is_componentwise():
    spec = ProductLattice((MinLattice(), MaxLattice()))
    x = (Int(1), Int(1))
    y = (Int(2), Int(2))
    assert join_values(spec, x, y) == (Int(1), Int(2))


def _lesser(x, y):
    return x if term_key(x) <= term_key(y) else y


def _greater(x, y):
    return x if term_key(x) >= term_key(y) else y


# the parts a compiled product join is built from: mode, the join of two
# terms by term_key, and the message abstraction gives a term outside the
# domain (None where every term is in it)
_ORDERED_PARTS = {
    "min": (_lesser, None),
    "max": (_greater, None),
    "lattice(min/3)": (_lesser, "builtin join min needs integers, got {}"),
    "lattice(max/3)": (_greater, "builtin join max needs integers, got {}"),
    "lattice(max_inf/3)": (_greater, "{} is not an extended natural"),
}


def _mixed_terms(rng, n):
    """Terms of every kind, integers and symbols beside compounds, lists
    and infty, with equal pairs among them."""
    pool = [Int(rng.randint(-3, 3)) for _ in range(4)] + [
        Symbol(rng.choice("ab")), INFTY, Compound("f", (Int(1),)), Compound("f", (a,)),
        Compound("f", (Int(0), Int(1))), Compound("g", ()), ListTerm(()),
        ListTerm((Int(2),)), ListTerm((a, Int(1))), ListTerm((Compound("f", (b,)),))]
    return [rng.choice(pool) for _ in range(n)]


def _in_domain(mode, t):
    if mode in ("min", "max"):
        return True
    if mode == "lattice(max_inf/3)":
        return t[0] == 0 or t == INFTY
    return t[0] == 0


@pytest.mark.parametrize("modes", [
    *itertools.product(_ORDERED_PARTS, repeat=2),
    ("min", "max", "min"), ("max", "lattice(min/3)", "lattice(max_inf/3)"),
    ("lattice(max/3)", "min", "max"), ("lattice(max_inf/3)", "lattice(max/3)", "max"),
])
def test_compiled_joins_agree_with_the_term_key_join_part_by_part(modes):
    # every join goes through join_values, and each part of a product
    # joins as its own lattice does
    spec = build_specs(parse_program(f":- table p(index,{','.join(modes)}).\n"))["p"].lattice
    parts = spec.parts
    rng = random.Random(",".join(modes))
    for _ in range(200):
        x, y = (tuple(_mixed_terms(rng, len(modes))) for _ in range(2))
        want = tuple(_ORDERED_PARTS[m][0](u, v) for m, u, v in zip(modes, x, y))
        assert join_values(spec, x, y) == want
        for part, m, u, v in zip(parts, modes, x, y):
            assert join_values(part, u, v) is (u if u == v else _ORDERED_PARTS[m][0](u, v))
        # abstraction accepts exactly the in-domain tuples, and represents
        # them back unchanged
        if all(map(_in_domain, modes, x)):
            assert spec.abstract(spec.represent(x)) == x
            continue
        m, t = next((m, t) for m, t in zip(modes, x) if not _in_domain(m, t))
        with pytest.raises(DomainError) as err:
            spec.abstract(x)
        assert str(err.value) == _ORDERED_PARTS[m][1].format(term_to_str(t))


def test_every_join_of_a_traced_reference_run_is_counted(monkeypatch):
    # the benchmark counts lattice.join_calls by wrapping join_values; a
    # join that went around it would not be counted
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    import latlog.reference as reference

    program = parse_program(
        ":- table p(index,index,min,max).\ne(a,b). e(b,c). e(a,c). e(c,d). e(b,d).\n"
        "p(X,Y,1,1) :- e(X,Y).\n"
        "p(X,Y,D,M) :- p(X,Z,D1,M1), e(Z,Y), D is D1+1, M is M1+1.\n")

    def traced(run):
        t = tracer.Tracer()
        patches = tracer.install(t)
        try:
            return run(), t.counts
        finally:
            patches.uninstall()

    outcome, counts = traced(lambda: reference.stratified_reference_semantics(program))
    assert Atom("p", (a, d, Int(2), Int(3))) in outcome.answers
    assert counts["lattice.join_calls"] > 0
    assert counts["lattice.join_calls"] >= counts["reference.join_created"]
    # the fixpoint alone joins only in the closure, where each created
    # value comes from a join of its own; the aggregation's fold above
    # makes at least as many joins as the closure creates values, so it
    # cannot stand in for them here
    fp, counts = traced(lambda: reference.stratum_lfp(
        program.clauses, build_specs(program), 100))
    assert fp.converged
    assert counts["reference.join_created"] > 0
    assert counts["lattice.join_calls"] >= counts["reference.join_created"]


def test_join_undefined_pair_is_an_error(lub):
    # abstraction keeps e out of every group, so only a direct call gets here
    with pytest.raises(JoinUndefinedError, match=r"\(a, e\)"):
        lub.join(a, Symbol("e"))


def test_user_join_law_validation():
    with pytest.raises(LatticeLawViolationError, match="functional"):
        UserJoinLattice("j", frozenset({(a, b, c), (a, b, d)}))
    with pytest.raises(LatticeLawViolationError, match="commutative"):
        UserJoinLattice("j", frozenset({(a, b, c), (b, a, d)}))
    with pytest.raises(LatticeLawViolationError, match="idempotent"):
        UserJoinLattice("j", frozenset({(a, a, b)}))
    with pytest.raises(LatticeLawViolationError,
                       match=r"not associative on \(a, b, c\)"):
        UserJoinLattice("j", frozenset({(a, b, a), (b, c, b), (a, c, c)}))
    # a v d is undefined, which is found before (a v b) v c = d and
    # a v (b v c) = a v d could be compared
    with pytest.raises(JoinUndefinedError, match=r"undefined on \(a, d\)"):
        UserJoinLattice("j", frozenset({(a, b, b), (a, c, c), (b, c, d)}))
    # a term outside the carrier, the terms the rows mention
    with pytest.raises(DomainError, match="e is not in the carrier of join j"):
        UserJoinLattice("j", frozenset({(a, b, b)})).abstract(Symbol("e"))
    # a lone non-integer under the builtin min, which no join ever meets
    specs = build_specs(parse_program(":- table p(lattice(min/3)).\n"))
    with pytest.raises(DomainError, match="builtin join min needs integers, got foo"):
        aggregate_atoms(specs, [Atom("p", (Symbol("foo"),))])


def test_builtin_min_join_needs_integers():
    spec = IntMinLattice()
    assert join_values(spec, Int(4), Int(2)) == Int(2)
    assert join_values(IntMaxLattice(), Int(4), Int(2)) == Int(4)
    assert spec.abstract(Int(1)) == Int(1)
    with pytest.raises(DomainError, match="builtin join min needs integers, got a"):
        spec.abstract(a)
    with pytest.raises(DomainError, match="builtin join max needs integers, got a"):
        IntMaxLattice().abstract(a)


def test_only_builtin_user_joins_are_selective(lub):
    # min and max return an operand, so closing a set under them adds nothing
    assert IntMinLattice().selective
    assert IntMaxLattice().selective
    assert not lub.selective


def test_only_a_join_table_defined_on_its_whole_carrier_is_total(lub):
    # a table is accepted only when it joins every pair of its carrier,
    # and names the first pair it leaves undefined in term order
    with pytest.raises(JoinUndefinedError, match=r"undefined on \(a, c\)"):
        UserJoinLattice("j", frozenset({(a, b, c)}))
    with pytest.raises(JoinUndefinedError, match=r"undefined on \(a, b\)"):
        build_specs(parse_program("j(b,c,a).\n:- table p(index,min,lattice(j/3)).\n"))
    for x in (a, b, c, d):
        for y in (a, b, c, d):
            assert join_values(lub, x, y) in (a, b, c, d)


# --- order -------------------------------------------------------------


def test_min_order_is_reversed():
    assert leq_values(MinLattice(), Int(2), Int(1))
    assert not leq_values(MinLattice(), Int(1), Int(2))


def test_bottom_below_everything(lub):
    for spec, v in [(MinLattice(), Int(0)), (lub, d)]:
        assert leq_values(spec, None, v)
        assert not leq_values(spec, v, None)
    assert leq_values(MinLattice(), None, None)


def test_po_set_order():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    assert leq_values(spec, frozenset({a, b}), frozenset({c}))
    assert not leq_values(spec, frozenset({c}), frozenset({a}))


# --- po canonicalization and law checks ---------------------------------


def test_po_join_prunes_dominated_elements():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    got = join_values(spec, frozenset({a}), frozenset({b}))
    assert got == frozenset({a, b})
    got = join_values(spec, got, frozenset({c}))
    assert got == frozenset({c})


def test_po_abstract_canonicalizes_lists():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    assert spec.abstract(ListTerm((a, c))) == frozenset({c})


def test_po_must_be_antisymmetric():
    with pytest.raises(LatticeLawViolationError, match="antisymmetric"):
        PoLattice("ord", frozenset({(a, b), (b, a)}))


def test_po_must_be_transitive():
    with pytest.raises(LatticeLawViolationError, match="transitive"):
        PoLattice("ord", frozenset({(a, b), (b, c)}))
    PoLattice("ord", frozenset({(a, b), (b, c), (a, c)}))  # closed version is fine


# --- abstraction and representation --------------------------------------


def test_abstract_examples():
    assert AllLattice().abstract(Int(1)) == frozenset({Int(1)})
    assert ExtendedNatLattice().abstract(INFTY) == INFTY
    assert MinLattice().abstract(Int(3)) == Int(3)


def test_represent_examples():
    got = AllLattice().represent(frozenset({Int(2), Int(1)}))
    assert got == ListTerm((Int(1), Int(2)))
    assert ExtendedNatLattice().represent(INFTY) == INFTY
    assert ExtendedNatLattice().represent(Int(7)) == Int(7)


def test_extnat_domain_is_checked():
    with pytest.raises(DomainError):
        ExtendedNatLattice().abstract(a)


def test_product_abstracts_a_tuple_of_output_terms():
    spec = ProductLattice((MinLattice(), AllLattice()))
    v = spec.abstract((Int(1), ListTerm((Int(2), Int(1)))))
    assert v == (Int(1), frozenset({Int(1), Int(2)}))
    assert spec.represent(v) == (Int(1), ListTerm((Int(1), Int(2))))
    with pytest.raises(DomainError):
        ProductLattice((MinLattice(), IntMinLattice())).abstract((Int(1), a))
    # over plain min and max parts, the tuple of output terms is the value
    spec = ProductLattice((MinLattice(), MaxLattice()))
    terms = (Compound("f", (a,)), ListTerm((Int(1),)))
    assert spec.abstract(terms) is terms
    assert spec.represent(terms) is terms


def test_abstract_represent_retraction():
    cases = [
        (MinLattice(), a),
        (AllLattice(), frozenset({Int(1), Int(2)})),
        (PoLattice("ord", frozenset({(a, c)})), frozenset({b, c})),
        (ExtendedNatLattice(), INFTY),
        (ExtendedNatLattice(), Int(0)),
        (ProductLattice((MinLattice(), AllLattice())),
         (Int(1), frozenset({a}))),
    ]
    for spec, v in cases:
        assert spec.abstract(spec.represent(v)) == v


# --- specs from programs -------------------------------------------------


def test_untabled_predicates_get_the_discrete_kind(programs):
    specs = build_specs(programs["simple.pl"])
    assert isinstance(specs["p"].lattice, DiscreteLattice)
    assert specs["p"].in_positions == (0,)
    assert specs["p"].out_positions == ()


def test_output_position_split(programs):
    spec = build_specs(programs["shortest_path.pl"])["p"]
    assert spec.in_positions == (0, 1)
    assert spec.out_positions == (2,)
    assert isinstance(spec.lattice, IntMinLattice)
    assert spec.lattice.name == "min"


def test_multiple_output_modes_build_a_product():
    prog = parse_program(":- table p(index, min, max).\np(a,1,2).\n")
    spec = build_specs(prog)["p"]
    assert isinstance(spec.lattice, ProductLattice)
    assert tuple(map(type, spec.lattice.parts)) == (MinLattice, MaxLattice)
    assert spec.in_positions == (0,)
    assert spec.out_positions == (1, 2)


def test_max_inf_names_the_builtin_completion(programs):
    spec = build_specs(programs["longest_path.pl"])["p"]
    assert isinstance(spec.lattice, ExtendedNatLattice)


# --- eta, rho, aggregation ------------------------------------------------


def test_eta_on_a_min_atom(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = singleton_table(specs, Atom("p", (a, b, Int(1))))
    assert t == {("p", (a, b)): Int(1)}


def test_eta_on_an_index_only_atom_uses_the_unit_output(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = singleton_table(specs, Atom("e", (a, b, Symbol("nt"))))
    assert t == {("e", (a, b, Symbol("nt"))): frozenset({DUMMY})}


def test_eta_on_an_all_mode_atom():
    specs = build_specs(parse_program(":- table p(all).\np(1).\n"))
    t = singleton_table(specs, Atom("p", (Int(1),)))
    assert t == {("p", ()): frozenset({Int(1)})}


def test_rho_inverts_eta_on_atoms(programs):
    specs = build_specs(programs["shortest_path.pl"])
    atom = Atom("p", (a, b, Int(1)))
    assert table_atoms(specs, singleton_table(specs, atom)) == frozenset({atom})
    assert table_atoms(specs, {}) == frozenset()


def test_rho_represents_the_stored_value(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = {("p", (a, c)): Int(1)}
    assert table_atoms(specs, t) == frozenset({Atom("p", (a, c, Int(1)))})


def test_rho_drops_the_unit_output_of_discrete_entries(programs):
    specs = build_specs(programs["simple.pl"])
    t = {("p", (a,)): frozenset({DUMMY})}
    assert table_atoms(specs, t) == frozenset({Atom("p", (a,))})


def test_table_join_examples(programs):
    specs = build_specs(parse_program(":- table p(max).\np(1).\n"))
    one = {("p", ()): Int(1)}
    two = {("p", ()): Int(2)}
    assert table_join(specs, [one, two]) == two
    assert table_join(specs, []) == {}


def test_aggregating_the_path_model_collapses_the_longer_distance(programs):
    # the 7-atom fixpoint carries both p(a,c,1) and p(a,c,2);
    # folding eta over it keeps the minimum per key
    specs = build_specs(programs["shortest_path.pl"])
    nt = Symbol("nt")
    model = [
        Atom("e", (a, b, nt)), Atom("e", (b, c, nt)), Atom("e", (a, c, nt)),
        Atom("p", (a, b, Int(1))), Atom("p", (b, c, Int(1))),
        Atom("p", (a, c, Int(1))), Atom("p", (a, c, Int(2))),
    ]
    t = aggregate_atoms(specs, model)
    assert t == {
        ("e", (a, b, nt)): frozenset({DUMMY}),
        ("e", (b, c, nt)): frozenset({DUMMY}),
        ("e", (a, c, nt)): frozenset({DUMMY}),
        ("p", (a, b)): Int(1),
        ("p", (b, c)): Int(1),
        ("p", (a, c)): Int(1),
    }
    joined = table_join(specs, [singleton_table(specs, x) for x in model])
    assert joined == t


def test_table_pointwise_order(programs):
    specs = build_specs(parse_program(":- table p(min).\np(1).\n"))
    f = {("p", ()): Int(2)}
    g = {("p", ()): Int(1)}
    assert table_leq(specs, f, g)
    assert not table_leq(specs, g, f)
    assert table_join(specs, [f, g]) == g
    # absent key means bottom, so the empty table is below everything
    assert table_leq(specs, {}, f)
    assert not table_leq(specs, f, {})


def test_sorted_items_orders_by_pred_then_inputs():
    t = {
        ("q", (Int(1),)): Int(0),
        ("p", (b,)): Int(0),
        ("p", (a,)): Int(0),
    }
    assert [k for k, _ in sorted_items(t)] == [
        ("p", (a,)), ("p", (b,)), ("q", (Int(1),))]


# --- fold order -------------------------------------------------------------


FOLD_SPECS = build_specs(parse_program(
    "lub(a,b,c). lub(a,c,c). lub(a,d,d). lub(b,c,c). lub(b,d,d). lub(c,d,d).\n"
    "better(lo,mid). better(mid,hi). better(lo,hi). better(lo,alt).\n"
    ":- table pmin(index,min). :- table pmax(index,max).\n"
    ":- table pall(index,all). :- table ppo(index,po(better/2)).\n"
    ":- table pinf(index,lattice(max_inf/3)). :- table pjoin(index,lattice(lub/3)).\n"
    ":- table pbmin(index,lattice(min/3)). :- table pprod(index,min,max).\n"
    ":- table flat(index,index).\n"))

_ints = st.integers(-2, 3).map(Int)
_syms = st.sampled_from(sym("a", "b", "c", "d", "e", "lo", "mid", "hi", "alt", "infty"))
_terms = st.one_of(_ints, _syms)
_labels = st.sampled_from(sym("lo", "mid", "hi", "alt"))

# the output terms each predicate can meet, a few outside its domain
# (a symbol under max_inf or builtin min, e outside the lub carrier)
_OUTPUTS = {
    "pmin": st.tuples(_terms),
    "pmax": st.tuples(_terms),
    "pall": st.tuples(st.one_of(_terms, st.lists(_terms, max_size=3).map(
        lambda xs: ListTerm(tuple(xs))))),
    "ppo": st.tuples(st.one_of(_labels, st.lists(_labels, max_size=3).map(
        lambda xs: ListTerm(tuple(xs))))),
    "pinf": st.tuples(st.one_of(_ints, _ints, st.sampled_from(sym("infty", "foo")))),
    "pjoin": st.tuples(st.sampled_from(sym("a", "b", "c", "d", "a", "b", "e"))),
    "pbmin": st.tuples(st.one_of(_ints, _ints, _ints, st.just(Symbol("foo")))),
    "pprod": st.tuples(_terms, _terms),
    "flat": st.tuples(_syms),
}

_fold_atoms = st.lists(st.sampled_from(sorted(_OUTPUTS)).flatmap(
    lambda pred: st.tuples(st.sampled_from(sym("k1", "k2")), _OUTPUTS[pred]).map(
        lambda kv: Atom(pred, (kv[0],) + kv[1]))), max_size=14)


def fold_outcome(atoms):
    """The folded table, or the error the fold raised."""
    try:
        return aggregate_atoms(FOLD_SPECS, atoms)
    except LatlogError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data(), _fold_atoms)
def test_aggregation_ignores_the_order_of_its_input(data, atoms):
    expected = fold_outcome(atom_sorted(atoms))
    assert fold_outcome(data.draw(st.permutations(atoms))) == expected
    assert fold_outcome(frozenset(atoms)) == expected


def test_a_fold_names_the_first_rejected_atom_in_atom_order():
    # z and y lie outside the carrier {a, b}: the fold in input order
    # meets z first, and the sorted fold that follows names y
    specs = build_specs(parse_program("j(a,b,b).\n:- table p(lattice(j/3)).\n"))
    with pytest.raises(DomainError, match="^y is not in the carrier of join j$"):
        aggregate_atoms(specs, [Atom("p", (t,)) for t in (a, Symbol("z"), b, Symbol("y"))])


# --- rendering ------------------------------------------------------------


def test_value_to_str():
    assert value_to_str(None) == "bottom"
    assert value_to_str(Int(3)) == "3"
    assert value_to_str(INFTY) == "infty"
    assert value_to_str(frozenset({DUMMY})) == "true"
    assert value_to_str(frozenset({b, a})) == "{a, b}"
    assert value_to_str((Int(1), INFTY)) == "(1, infty)"
