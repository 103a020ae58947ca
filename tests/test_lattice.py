"""Value domains, joins, the atom/table conversions, and answer tables."""

import pytest

from conftest import load
from latlog.errors import (
    DomainError,
    JoinUndefinedError,
    LatticeLawViolationError,
)
from latlog.lattice import (
    BOTTOM,
    DUMMY,
    INF,
    INFTY,
    AllLattice,
    AnswerTable,
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
    abstract_output,
    aggregate_atoms,
    build_specs,
    empty_table,
    join_values,
    leq_values,
    represent_output,
    singleton_table,
    table_atoms,
    table_join,
    table_leq,
    value_to_str,
)
from latlog.parser import parse_program
from latlog.terms import Atom, Int, ListTerm, Symbol


def sym(*names):
    return tuple(Symbol(n) for n in names)


a, b, c, d = sym("a", "b", "c", "d")


@pytest.fixture(scope="module")
def lub():
    return build_specs(load("lub_lattice.pl"))["p"].lattice


# --- joins -------------------------------------------------------------


def test_min_join_takes_lesser():
    assert join_values(MinLattice(), TermVal(Int(1)), TermVal(Int(2))) == TermVal(Int(1))
    assert join_values(MaxLattice(), TermVal(Int(1)), TermVal(Int(2))) == TermVal(Int(2))


def test_user_join_lookup(lub):
    assert join_values(lub, TermVal(a), TermVal(b)) == TermVal(c)
    # commuted lookup works even though only one orientation is stored
    assert lub.join_terms(d, a) == d


def test_bottom_identity_and_idempotence(lub):
    for spec, v in [(MinLattice(), TermVal(Int(1))),
                    (lub, TermVal(a)),
                    (AllLattice(), SetVal(frozenset({Int(1)})))]:
        assert join_values(spec, v, BOTTOM) == v
        assert join_values(spec, BOTTOM, v) == v
        assert join_values(spec, v, v) == v


def test_all_join_is_union():
    x = SetVal(frozenset({Int(1)}))
    y = SetVal(frozenset({Int(2)}))
    assert join_values(AllLattice(), x, y) == SetVal(frozenset({Int(1), Int(2)}))


def test_extnat_join():
    spec = ExtendedNatLattice()
    assert join_values(spec, TermVal(Int(3)), TermVal(Int(5))) == TermVal(Int(5))
    assert join_values(spec, TermVal(Int(3)), INF) == INF
    assert join_values(spec, INF, INF) == INF


def test_product_join_is_componentwise():
    spec = ProductLattice((MinLattice(), MaxLattice()))
    x = ProductVal((TermVal(Int(1)), TermVal(Int(1))))
    y = ProductVal((TermVal(Int(2)), TermVal(Int(2))))
    assert join_values(spec, x, y) == ProductVal((TermVal(Int(1)), TermVal(Int(2))))


def test_join_undefined_pair_is_an_error():
    spec = UserJoinLattice("j", frozenset({(a, b, c)}))
    with pytest.raises(JoinUndefinedError):
        spec.join_terms(a, c)


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
    assert spec.join_terms(Int(4), Int(2)) == Int(2)
    with pytest.raises(DomainError):
        spec.join_terms(Int(1), a)


def test_only_builtin_user_joins_are_selective():
    # min and max return an operand, so closing a set under them adds nothing
    assert UserJoinLattice("min", None).selective
    assert UserJoinLattice("max", None).selective
    assert not UserJoinLattice("j", frozenset({(a, b, c)})).selective


# --- order -------------------------------------------------------------


def test_min_order_is_reversed():
    assert leq_values(MinLattice(), TermVal(Int(2)), TermVal(Int(1)))
    assert not leq_values(MinLattice(), TermVal(Int(1)), TermVal(Int(2)))


def test_bottom_below_everything(lub):
    for spec, v in [(MinLattice(), TermVal(Int(0))), (lub, TermVal(d))]:
        assert leq_values(spec, BOTTOM, v)
        assert not leq_values(spec, v, BOTTOM)
    assert leq_values(MinLattice(), BOTTOM, BOTTOM)


def test_po_set_order():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    assert leq_values(spec, SetVal(frozenset({a, b})), SetVal(frozenset({c})))
    assert not leq_values(spec, SetVal(frozenset({c})), SetVal(frozenset({a})))


# --- po canonicalization and law checks ---------------------------------


def test_po_join_prunes_dominated_elements():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    got = join_values(spec, SetVal(frozenset({a})), SetVal(frozenset({b})))
    assert got == SetVal(frozenset({a, b}))
    got = join_values(spec, got, SetVal(frozenset({c})))
    assert got == SetVal(frozenset({c}))


def test_po_abstract_canonicalizes_lists():
    spec = PoLattice("ord", frozenset({(a, c), (b, c)}))
    assert spec.abstract(ListTerm((a, c))) == SetVal(frozenset({c}))


def test_po_must_be_antisymmetric():
    with pytest.raises(LatticeLawViolationError, match="antisymmetric"):
        PoLattice("ord", frozenset({(a, b), (b, a)}))


def test_po_must_be_transitive():
    with pytest.raises(LatticeLawViolationError, match="transitive"):
        PoLattice("ord", frozenset({(a, b), (b, c)}))
    PoLattice("ord", frozenset({(a, b), (b, c), (a, c)}))  # closed version is fine


# --- abstraction and representation --------------------------------------


def test_abstract_examples():
    assert abstract_output(AllLattice(), Int(1)) == SetVal(frozenset({Int(1)}))
    assert abstract_output(ExtendedNatLattice(), INFTY) == INF
    assert abstract_output(MinLattice(), Int(3)) == TermVal(Int(3))


def test_represent_examples():
    got = represent_output(AllLattice(), SetVal(frozenset({Int(2), Int(1)})))
    assert got == ListTerm((Int(1), Int(2)))
    assert represent_output(ExtendedNatLattice(), INF) == INFTY
    assert represent_output(ExtendedNatLattice(), TermVal(Int(7))) == Int(7)


def test_represent_rejects_bottom():
    with pytest.raises(DomainError):
        represent_output(MinLattice(), BOTTOM)


def test_extnat_domain_is_checked():
    with pytest.raises(DomainError):
        abstract_output(ExtendedNatLattice(), a)


def test_product_abstract_needs_matching_tuple():
    spec = ProductLattice((MinLattice(), MaxLattice()))
    v = spec.abstract(ListTerm((Int(1), Int(2))))
    assert v == ProductVal((TermVal(Int(1)), TermVal(Int(2))))
    assert spec.represent(v) == ListTerm((Int(1), Int(2)))
    with pytest.raises(DomainError):
        spec.abstract(Int(1))
    with pytest.raises(DomainError):
        spec.abstract(ListTerm((Int(1),)))


def test_abstract_represent_retraction():
    cases = [
        (MinLattice(), TermVal(a)),
        (AllLattice(), SetVal(frozenset({Int(1), Int(2)}))),
        (PoLattice("ord", frozenset({(a, c)})), SetVal(frozenset({b, c}))),
        (ExtendedNatLattice(), INF),
        (ExtendedNatLattice(), TermVal(Int(0))),
        (ProductLattice((MinLattice(), AllLattice())),
         ProductVal((TermVal(Int(1)), SetVal(frozenset({a}))))),
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
    assert t.entries == {("p", (a, b)): TermVal(Int(1))}


def test_eta_on_an_index_only_atom_uses_the_unit_output(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = singleton_table(specs, Atom("e", (a, b, Symbol("nt"))))
    assert t.entries == {("e", (a, b, Symbol("nt"))): SetVal(frozenset({DUMMY}))}


def test_eta_on_an_all_mode_atom():
    specs = build_specs(parse_program(":- table p(all).\np(1).\n"))
    t = singleton_table(specs, Atom("p", (Int(1),)))
    assert t.entries == {("p", ()): SetVal(frozenset({Int(1)}))}


def test_rho_inverts_eta_on_atoms(programs):
    specs = build_specs(programs["shortest_path.pl"])
    atom = Atom("p", (a, b, Int(1)))
    assert table_atoms(specs, singleton_table(specs, atom)) == frozenset({atom})
    assert table_atoms(specs, empty_table()) == frozenset()


def test_rho_represents_the_stored_value(programs):
    specs = build_specs(programs["shortest_path.pl"])
    t = AnswerTable({("p", (a, c)): TermVal(Int(1))})
    assert table_atoms(specs, t) == frozenset({Atom("p", (a, c, Int(1)))})


def test_rho_drops_the_unit_output_of_discrete_entries(programs):
    specs = build_specs(programs["simple.pl"])
    t = AnswerTable({("p", (a,)): SetVal(frozenset({DUMMY}))})
    assert table_atoms(specs, t) == frozenset({Atom("p", (a,))})


def test_table_join_examples(programs):
    specs = build_specs(parse_program(":- table p(max).\np(1).\n"))
    one = AnswerTable({("p", ()): TermVal(Int(1))})
    two = AnswerTable({("p", ()): TermVal(Int(2))})
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
        ("e", (a, b, nt)): SetVal(frozenset({DUMMY})),
        ("e", (b, c, nt)): SetVal(frozenset({DUMMY})),
        ("e", (a, c, nt)): SetVal(frozenset({DUMMY})),
        ("p", (a, b)): TermVal(Int(1)),
        ("p", (b, c)): TermVal(Int(1)),
        ("p", (a, c)): TermVal(Int(1)),
    }
    joined = table_join(specs, [singleton_table(specs, x) for x in model])
    assert joined.entries == t.entries


def test_table_pointwise_order(programs):
    specs = build_specs(parse_program(":- table p(min).\np(1).\n"))
    f = AnswerTable({("p", ()): TermVal(Int(2))})
    g = AnswerTable({("p", ()): TermVal(Int(1))})
    assert table_leq(specs, f, g)
    assert not table_leq(specs, g, f)
    assert table_join(specs, [f, g]).entries == g.entries
    # absent key means bottom, so the empty table is below everything
    assert table_leq(specs, empty_table(), f)
    assert not table_leq(specs, f, empty_table())


def test_sorted_items_orders_by_pred_then_inputs():
    t = AnswerTable({
        ("q", (Int(1),)): TermVal(Int(0)),
        ("p", (b,)): TermVal(Int(0)),
        ("p", (a,)): TermVal(Int(0)),
    })
    assert [k for k, _ in t.sorted_items()] == [
        ("p", (a,)), ("p", (b,)), ("q", (Int(1),))]


# --- rendering ------------------------------------------------------------


def test_value_to_str():
    assert value_to_str(BOTTOM) == "bottom"
    assert value_to_str(TermVal(Int(3))) == "3"
    assert value_to_str(INF) == "infty"
    assert value_to_str(SetVal(frozenset({DUMMY}))) == "true"
    assert value_to_str(SetVal(frozenset({b, a}))) == "{a, b}"
    assert value_to_str(ProductVal((TermVal(Int(1)), INF))) == "(1, infty)"
