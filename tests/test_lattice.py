"""Value domains, joins, the atom/table conversions, and answer tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leq_values, load, represent_output, singleton_table, table_leq
from latlog.errors import (
    DomainError,
    JoinUndefinedError,
    LatlogError,
    LatticeLawViolationError,
)
from latlog.lattice import (
    BOTTOM,
    DUMMY,
    INFTY,
    AllLattice,
    AnswerTable,
    DiscreteLattice,
    ExtendedNatLattice,
    MaxLattice,
    MinLattice,
    PoLattice,
    ProductLattice,
    UserJoinLattice,
    aggregate_atoms,
    build_specs,
    empty_table,
    join_values,
    table_atoms,
    table_join,
    value_to_str,
)
from latlog.parser import parse_program
from latlog.terms import Atom, Int, ListTerm, Symbol, atom_sorted


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


def test_user_join_lookup(lub):
    assert join_values(lub, a, b) == c
    # commuted lookup works even though only one orientation is stored
    assert lub.join(d, a) == d


def test_bottom_identity_and_idempotence(lub):
    for spec, v in [(MinLattice(), Int(1)),
                    (lub, a),
                    (AllLattice(), frozenset({Int(1)}))]:
        assert join_values(spec, v, BOTTOM) == v
        assert join_values(spec, BOTTOM, v) == v
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


def test_join_undefined_pair_is_an_error():
    spec = UserJoinLattice("j", frozenset({(a, b, c)}))
    with pytest.raises(JoinUndefinedError):
        spec.join(a, c)


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
    # (a v b) v c = d, but a v (b v c) = a v d is undefined: not a violation
    UserJoinLattice("j", frozenset({(a, b, b), (a, c, c), (b, c, d)}))


def test_builtin_min_join_needs_integers():
    spec = UserJoinLattice("min", None)
    assert spec.join(Int(4), Int(2)) == Int(2)
    with pytest.raises(DomainError):
        spec.join(Int(1), a)


def test_only_builtin_user_joins_are_selective():
    # min and max return an operand, so closing a set under them adds nothing
    assert UserJoinLattice("min", None).selective
    assert UserJoinLattice("max", None).selective
    assert not UserJoinLattice("j", frozenset({(a, b, c)})).selective


def test_only_a_join_table_defined_on_its_whole_carrier_is_total(lub):
    partial = UserJoinLattice("j", frozenset({(a, b, c)}))
    assert lub.total
    assert UserJoinLattice("min", None).total
    assert not partial.total
    assert not ProductLattice((MinLattice(), partial)).total
    assert ProductLattice((MinLattice(), lub)).total
    for kind in (MinLattice(), MaxLattice(), AllLattice(), DiscreteLattice(),
                 ExtendedNatLattice(), PoLattice("o", frozenset({(a, b)}))):
        assert kind.total


# --- order -------------------------------------------------------------


def test_min_order_is_reversed():
    assert leq_values(MinLattice(), Int(2), Int(1))
    assert not leq_values(MinLattice(), Int(1), Int(2))


def test_bottom_below_everything(lub):
    for spec, v in [(MinLattice(), Int(0)), (lub, d)]:
        assert leq_values(spec, BOTTOM, v)
        assert not leq_values(spec, v, BOTTOM)
    assert leq_values(MinLattice(), BOTTOM, BOTTOM)


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
    got = represent_output(AllLattice(), frozenset({Int(2), Int(1)}))
    assert got == ListTerm((Int(1), Int(2)))
    assert represent_output(ExtendedNatLattice(), INFTY) == INFTY
    assert represent_output(ExtendedNatLattice(), Int(7)) == Int(7)


def test_represent_rejects_bottom():
    with pytest.raises(DomainError):
        represent_output(MinLattice(), BOTTOM)


def test_extnat_domain_is_checked():
    with pytest.raises(DomainError):
        ExtendedNatLattice().abstract(a)


def test_product_abstract_needs_matching_tuple():
    spec = ProductLattice((MinLattice(), MaxLattice()))
    v = spec.abstract(ListTerm((Int(1), Int(2))))
    assert v == (Int(1), Int(2))
    assert spec.represent(v) == ListTerm((Int(1), Int(2)))
    with pytest.raises(DomainError):
        spec.abstract(Int(1))
    with pytest.raises(DomainError):
        spec.abstract(ListTerm((Int(1),)))


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
    assert specs["p"].lattice.kind == "discrete"
    assert specs["p"].in_positions == (0,)
    assert specs["p"].out_positions == ()


def test_output_position_split(programs):
    spec = build_specs(programs["shortest_path.pl"])["p"]
    assert spec.in_positions == (0, 1)
    assert spec.out_positions == (2,)
    assert spec.lattice.kind == "userjoin"
    assert spec.lattice.name == "min"


def test_multiple_output_modes_build_a_product():
    prog = parse_program(":- table p(index, min, max).\np(a,1,2).\n")
    spec = build_specs(prog)["p"]
    assert spec.lattice.kind == "product"
    assert tuple(part.kind for part in spec.lattice.parts) == ("min", "max")
    assert spec.in_positions == (0,)
    assert spec.out_positions == (1, 2)


def test_max_inf_names_the_builtin_completion(programs):
    spec = build_specs(programs["longest_path.pl"])["p"]
    assert spec.lattice.kind == "extnat"


# --- eta, rho, aggregation ------------------------------------------------


def test_eta_on_a_min_atom(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = singleton_table(specs, Atom("p", (a, b, Int(1))))
    assert t.entries == {("p", (a, b)): Int(1)}


def test_eta_on_an_index_only_atom_uses_the_unit_output(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = singleton_table(specs, Atom("e", (a, b, Symbol("nt"))))
    assert t.entries == {("e", (a, b, Symbol("nt"))): frozenset({DUMMY})}


def test_eta_on_an_all_mode_atom():
    specs = build_specs(parse_program(":- table p(all).\np(1).\n"))
    t = singleton_table(specs, Atom("p", (Int(1),)))
    assert t.entries == {("p", ()): frozenset({Int(1)})}


def test_rho_inverts_eta_on_atoms(programs):
    specs = build_specs(programs["shortest_path.pl"])
    atom = Atom("p", (a, b, Int(1)))
    assert table_atoms(specs, singleton_table(specs, atom)) == frozenset({atom})
    assert table_atoms(specs, empty_table()) == frozenset()


def test_rho_represents_the_stored_value(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = AnswerTable({("p", (a, c)): Int(1)})
    assert table_atoms(specs, t) == frozenset({Atom("p", (a, c, Int(1)))})


def test_rho_drops_the_unit_output_of_discrete_entries(programs):
    specs = build_specs(programs["simple.pl"])
    t = AnswerTable({("p", (a,)): frozenset({DUMMY})})
    assert table_atoms(specs, t) == frozenset({Atom("p", (a,))})


def test_table_join_examples(programs):
    specs = build_specs(parse_program(":- table p(max).\np(1).\n"))
    one = AnswerTable({("p", ()): Int(1)})
    two = AnswerTable({("p", ()): Int(2)})
    assert table_join(specs, [one, two]).entries == two.entries
    assert table_join(specs, []).entries == {}


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
    assert t.entries == {
        ("e", (a, b, nt)): frozenset({DUMMY}),
        ("e", (b, c, nt)): frozenset({DUMMY}),
        ("e", (a, c, nt)): frozenset({DUMMY}),
        ("p", (a, b)): Int(1),
        ("p", (b, c)): Int(1),
        ("p", (a, c)): Int(1),
    }
    joined = table_join(specs, [singleton_table(specs, x) for x in model])
    assert joined.entries == t.entries


def test_table_pointwise_order(programs):
    specs = build_specs(parse_program(":- table p(min).\np(1).\n"))
    f = AnswerTable({("p", ()): Int(2)})
    g = AnswerTable({("p", ()): Int(1)})
    assert table_leq(specs, f, g)
    assert not table_leq(specs, g, f)
    assert table_join(specs, [f, g]).entries == g.entries
    # absent key means bottom, so the empty table is below everything
    assert table_leq(specs, empty_table(), f)
    assert not table_leq(specs, f, empty_table())


def test_sorted_items_orders_by_pred_then_inputs():
    t = AnswerTable({
        ("q", (Int(1),)): Int(0),
        ("p", (b,)): Int(0),
        ("p", (a,)): Int(0),
    })
    assert [k for k, _ in t.sorted_items()] == [
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
        return aggregate_atoms(FOLD_SPECS, atoms).entries
    except LatlogError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data(), _fold_atoms)
def test_aggregation_ignores_the_order_of_its_input(data, atoms):
    # every lattice here is total, so the fold takes the atoms as they come
    assert all(spec.lattice.total for spec in FOLD_SPECS.values())
    expected = fold_outcome(atom_sorted(atoms))
    assert fold_outcome(data.draw(st.permutations(atoms))) == expected
    assert fold_outcome(frozenset(atoms)) == expected


def test_a_partial_join_table_folds_in_sorted_order():
    # b v c = a is all the table says: folding b, c, a in that order
    # would give a, but the sorted fold meets a and b first, and they
    # have no join
    specs = build_specs(parse_program("j(b,c,a).\n:- table p(lattice(j/3)).\n"))
    assert not specs["p"].lattice.total
    with pytest.raises(JoinUndefinedError, match=r"\(a, b\)"):
        aggregate_atoms(specs, [Atom("p", (t,)) for t in (b, c, a)])


# --- rendering ------------------------------------------------------------


def test_value_to_str():
    assert value_to_str(BOTTOM) == "bottom"
    assert value_to_str(Int(3)) == "3"
    assert value_to_str(INFTY) == "infty"
    assert value_to_str(frozenset({DUMMY})) == "true"
    assert value_to_str(frozenset({b, a})) == "{a, b}"
    assert value_to_str((Int(1), INFTY)) == "(1, infty)"
