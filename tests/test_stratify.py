from conftest import load
from latlog.parser import parse_program
from latlog.stratify import dependency_graph, stratify, stratum_clauses


def test_single_stratum_when_everything_is_mutual():
    s = stratify(load("even_odd.pl"))
    assert s.strata == (frozenset({"even", "odd"}),)
    assert s.edges == frozenset()


def test_downstream_predicate_lands_later():
    s = stratify(load("even_odd_also.pl"))
    assert s.strata == (frozenset({"even", "odd"}), frozenset({"also_odd"}))
    assert s.edges == frozenset({(0, 1)})


def test_stratified_path_layers():
    s = stratify(load("stratified_path.pl"))
    assert s.strata == (frozenset({"e"}), frozenset({"p"}), frozenset({"s"}))
    assert s.edges == frozenset({(0, 1), (1, 2)})


def test_edge_relation_precedes_path():
    s = stratify(load("shortest_path.pl"))
    assert s.strata == (frozenset({"e"}), frozenset({"p"}))


def test_order_is_deterministic_under_reordering():
    a = parse_program("p(1).\nq(2).\nr(X) :- p(X).\nr(X) :- q(X).\n")
    b = parse_program("q(2).\nr(X) :- q(X).\nr(X) :- p(X).\np(1).\n")
    assert stratify(a).strata == stratify(b).strata
    # independent strata come out in name order
    assert stratify(a).strata[:2] == (frozenset({"p"}), frozenset({"q"}))


def test_dependency_graph_contents():
    deps = dependency_graph(load("even_odd.pl"))
    assert deps["even"] == {"odd"}
    assert deps["odd"] == {"even"}


def test_stratum_clauses_filters_by_head():
    prog = load("stratified_path.pl")
    s = stratify(prog)
    own = stratum_clauses(prog, s.strata[1])
    assert {c.head.pred for c in own} == {"p"}
    assert len(own) == 2


def test_declared_but_undefined_predicate_still_gets_a_stratum():
    prog = parse_program(":- table r/1.\np(X) :- r(X).\n")
    s = stratify(prog)
    assert s.strata == (frozenset({"r"}), frozenset({"p"}))
