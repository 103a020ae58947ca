import pytest

from conftest import CORPUS_FILES, corpus_text, load
from latlog.errors import (
    ArityError,
    ParseError,
    RangeRestrictionError,
    UnsupportedModeError,
)
from latlog.parser import parse_program, program_to_text
from latlog.program import INDEX, Builtin, Call, Mode, Var
from latlog.terms import MAX_INT_DIGITS, Int, Symbol


def test_corpus_parses(programs):
    assert set(programs) == set(CORPUS_FILES)
    for prog in programs.values():
        assert prog.clauses or prog.directives


def test_facts_rules_and_builtins():
    prog = parse_program("p(0).\nq(X,Y) :- p(X), Y is X + 1, Y < 5.\n")
    assert len(prog.clauses) == 2
    fact, rule = prog.clauses
    assert fact.head == Call("p", (Int(0),)) and fact.body == ()
    assert rule.head.pred == "q"
    calls = [b for b in rule.body if isinstance(b, Call)]
    builtins = [b for b in rule.body if isinstance(b, Builtin)]
    assert [c.pred for c in calls] == ["p"]
    assert [b.op for b in builtins] == ["is", "<"]


def test_zero_arity_and_negative_ints():
    prog = parse_program("go.\np(-3).\nq :- go, p(X), X < 0.\n")
    assert prog.clauses[0].head == Call("go", ())
    assert prog.clauses[1].head.args == (Int(-3),)


def test_comments_are_skipped():
    prog = parse_program("% nothing here\np(a). % trailing\n% done\n")
    assert len(prog.clauses) == 1


# --- directives ------------------------------------------------------


def test_directive_mode_spellings():
    prog = parse_program(
        ":- table p(index, +, _, nt, min).\n"
        "p(a,b,c,d,0).\n")
    assert prog.directives["p"] == (INDEX, INDEX, INDEX, INDEX, Mode("min"))


def test_directive_plain_arity_form():
    prog = parse_program(":- table e/3.\ne(a,b,nt).\n")
    assert prog.directives["e"] == (INDEX, INDEX, INDEX)


def test_directive_spread_lattice_form():
    spread = parse_program(corpus_text("shortest_path.pl"))
    assert spread.directives["p"] == (INDEX, INDEX, Mode("lattice", "min"))
    # and the explicit per-argument spelling means the same thing
    explicit = parse_program(
        ":- table p(index, index, lattice(min/3)).\n"
        "p(a,b,1).\n")
    assert explicit.directives["p"] == spread.directives["p"]


def test_directive_po_mode():
    prog = parse_program(
        ":- table p(po(ord/2)).\n"
        "ord(a,b).\n"
        "p(a).\n")
    assert prog.directives["p"] == (Mode("po", "ord"),)
    assert prog.order_relations["ord"] == frozenset({(Symbol("a"), Symbol("b"))})


def test_join_relation_facts_are_extracted():
    prog = load("lub_lattice.pl")
    assert "lub" in prog.join_relations
    assert len(prog.join_relations["lub"]) == 7
    # the lub facts are data for the join, not clauses to evaluate
    assert all(c.head.pred != "lub" for c in prog.clauses)


def test_builtin_join_needs_no_facts():
    prog = load("longest_path.pl")
    assert prog.directives["p"][2] == Mode("lattice", "max_inf")
    assert prog.join_relations == {}


@pytest.mark.parametrize("mode", ["first", "last", "sum"])
def test_order_sensitive_modes_rejected(mode):
    with pytest.raises(UnsupportedModeError):
        parse_program(f":- table p({mode}).\np(1).\n")


def test_builtin_plus_join_rejected_at_parse_time():
    for ref in ("plus/3", "+/3"):
        with pytest.raises(UnsupportedModeError, match="plus is not idempotent"):
            parse_program(f":- table p(lattice({ref})).\np(1).\n")
    # a plus/3 defined by facts is an ordinary join table
    prog = parse_program(":- table p(lattice(plus/3)).\nplus(a,b,b).\np(a).\np(b).\n")
    assert prog.join_relations["plus"] == frozenset({(Symbol("a"), Symbol("b"), Symbol("b"))})


def test_conflicting_directives_rejected():
    with pytest.raises(ParseError, match="conflicting"):
        parse_program(":- table p(min).\n:- table p(max).\np(1).\n")
    # repeating the same directive is harmless
    prog = parse_program(":- table p(min).\n:- table p(min).\np(1).\n")
    assert prog.directives["p"] == (Mode("min"),)


def test_join_relation_must_be_ground_facts():
    with pytest.raises(ParseError, match="ground facts"):
        parse_program(
            ":- table p(lattice(j/3)).\n"
            "j(X,Y,Y) :- k(X,Y).\n"
            "k(a,b).\n"
            "p(a).\n")


def test_unknown_join_relation_rejected():
    with pytest.raises(ParseError, match="not defined"):
        parse_program(":- table p(lattice(mystery/3)).\np(a).\n")


def test_relation_cannot_be_both_join_and_order():
    with pytest.raises(ParseError):
        parse_program(
            ":- table p(lattice(r/3)).\n"
            ":- table q(po(r/2)).\n"
            "r(a,b,b).\n"
            "p(a).\nq(a).\n")


def test_join_relation_cannot_be_tabled():
    with pytest.raises(ParseError, match="tabled"):
        parse_program(
            ":- table p(lattice(j/3)).\n"
            ":- table j/3.\n"
            "j(a,a,a).\n"
            "p(a).\n")


def test_relation_ref_arity_checked():
    with pytest.raises(ArityError):
        parse_program(":- table p(lattice(j/2)).\nj(a,a).\np(a).\n")
    with pytest.raises(ArityError):
        parse_program(":- table p(po(ord/3)).\nord(a,b,c).\np(a).\n")


# --- static checks ----------------------------------------------------


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError, match="arities"):
        parse_program("p(a).\nq(X) :- p(X, X).\n")


def test_unbound_head_variable_rejected():
    with pytest.raises(RangeRestrictionError):
        parse_program("p(X) :- q(a).\nq(a).\n")


def test_non_ground_fact_rejected():
    with pytest.raises(RangeRestrictionError, match="non-ground fact"):
        parse_program("p(X).\n")


def test_unbound_arithmetic_rejected():
    with pytest.raises(RangeRestrictionError):
        parse_program("p(Y) :- Y is X + 1.\n")
    with pytest.raises(RangeRestrictionError):
        parse_program("p(a) :- q(X), X < Y.\nq(1).\n")


def test_is_binds_its_left_side():
    prog = parse_program("p(Y) :- q(X), Y is X * 2 + 1.\nq(3).\n")
    rule = prog.clauses[0]
    assert isinstance(rule.body[1], Builtin)
    assert rule.body[1].args[0] == Var("Y")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p(a).\nq(b)\nr(c).\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_program("p(a) ?\n")


def test_integer_tokens_are_bounded():
    widest = "9" * MAX_INT_DIGITS
    prog = parse_program(f"p({widest}). q(-{widest}).\n")
    assert prog.clauses[0].head.args == (Int(int(widest)),)
    assert prog.clauses[1].head.args == (Int(-int(widest)),)
    wider = "1" + widest
    for text in (f"p({wider}).\n", f"p(-{wider}).\n", f"p(X) :- q(Y), X is Y + {wider}.\n",
                 f":- table p/{wider}.\n", f":- table p(lattice(j/{wider})).\n"):
        with pytest.raises(ParseError, match=f"integer longer than {MAX_INT_DIGITS} digits"):
            parse_program(text)


# --- round trip --------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_canonical_text_round_trips(name, programs):
    prog = programs[name]
    text = program_to_text(prog)
    again = parse_program(text)
    assert again.clauses == prog.clauses
    assert again.directives == prog.directives
    assert again.join_relations == prog.join_relations
    assert again.order_relations == prog.order_relations
    # and the canonical form is a fixed point
    assert program_to_text(again) == text
