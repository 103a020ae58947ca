import pytest

import latlog
from conftest import CORPUS_FILES, corpus_text, load, program_to_text
from latlog.errors import (
    ArityError,
    ParseError,
    RangeRestrictionError,
    UnsupportedModeError,
)
from latlog.parser import MAX_TERM_DEPTH, parse_program
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


ANONYMOUS = "p(1,a,b). p(2,c,c).\nq(X) :- p(X,_,_).\n"


def test_each_underscore_is_a_variable_of_its_own():
    rule = parse_program(ANONYMOUS).clauses[2]
    x, y = rule.body[0].args[1:]
    assert isinstance(x, Var) and isinstance(y, Var) and x != y
    assert program_to_text(parse_program(ANONYMOUS)).endswith("q(X) :- p(X,_,_).\n")
    prog = parse_program(ANONYMOUS)
    for run in (latlog.stratified_reference_semantics, latlog.stratified_greedy_semantics):
        answers = {latlog.atom_to_str(a) for a in run(prog).answers}
        assert {"q(1)", "q(2)"} <= answers, run.__name__


@pytest.mark.parametrize("text, message", [
    ("p(1).\nq(_) :- p(X).\n", "unbound head variable _ in: q(_) :- p(X)."),
    ("p(1).\nq(_).\n", "non-ground fact _ in: q(_)."),
    ("p(1,2).\nq(X) :- p(X,_), _ > 1.\n", "variable _ unbound in: q(X) :- p(X,_), _ > 1."),
    ("p(1,2).\nq(Y) :- p(X,_), Y is _ + X.\n",
     "variable _ unbound in arithmetic in: q(Y) :- p(X,_), Y is (_ + X)."),
])
def test_an_underscore_in_a_head_or_builtin_is_unbound(text, message):
    with pytest.raises(RangeRestrictionError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_underscores_in_modes_still_mark_index_positions():
    prog = parse_program(":- table q(_, min). :- table r(lattice(_,_,min/3)).\n"
                         "p(1,a,2). q(X,Y) :- p(Y,X,_). r(X,X,Y) :- p(Y,X,_).\n")
    assert prog.directives["q"] == (INDEX, Mode("min"))
    assert prog.directives["r"] == (INDEX, INDEX, Mode("lattice", "min"))


def test_is_binds_its_left_side():
    prog = parse_program("p(Y) :- q(X), Y is X * 2 + 1.\nq(3).\n")
    rule = prog.clauses[0]
    assert isinstance(rule.body[1], Builtin)
    assert rule.body[1].args[0] == Var("Y")


def test_a_call_named_is_never_equals_the_builtin():
    # `is(X,1)` calls a predicate named `is`; `X is 1` is the builtin
    _, call, builtin = parse_program("q(X) :- r(X), is(X,1), X is 1.\n").clauses[0].body
    assert isinstance(call, Call) and isinstance(builtin, Builtin)
    assert tuple(call) == tuple(builtin)
    assert call != builtin and builtin != call and not call == builtin
    assert len({call, builtin}) == 2
    assert Call("p", ()) == Call("p", ()) and not Call("p", ()) != Call("p", ())


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p(a).\nq(b)\nr(c).\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_program("p(a) ?\n")


# Every raise site of the parser, with the exact class, message and
# position each reports: (id, program text, class, message).
_DEEP_CALL = "p(" + "f(" * 200 + "a" + ")" * 200 + ")."
_LONG_SUM = "p(X) :- q(Y), X is Y" + "+1" * 101 + ".\nq(1).\n"
PARSE_ERRORS = [
    ("char-line-start", "p(a).\n?p(b).\n", ParseError,
     "unexpected character '?' at line 2, column 1"),
    ("char-mid-line", "p(a) ?\n", ParseError, "unexpected character '?' at line 1, column 6"),
    ("char-after-crlf", "p(a).\r\nq(b) ?\n", ParseError,
     "unexpected character '?' at line 2, column 6"),
    ("char-after-comment", "p(a). % note\n\t?", ParseError,
     "unexpected character '?' at line 2, column 2"),
    ("long-int", f"p(a).\nq(-{'9' * (MAX_INT_DIGITS + 1)}).", ParseError,
     f"integer longer than {MAX_INT_DIGITS} digits at line 2, column 4"),
    ("end-of-input", "p(a)\n% trailing\n", ParseError,
     "expected '.', found 'end of input' at line 3, column 1"),
    ("end-of-input-in-args", "p(a", ParseError,
     "expected ')', found 'end of input' at line 1, column 4"),
    ("end-of-input-in-modes", ":- table p(", ParseError,
     "expected a mode, found 'end of input' at line 1, column 12"),
    ("end-of-input-in-relation", ":- table p(lattice(", ParseError,
     "expected a relation name, found 'end of input' at line 1, column 20"),
    ("expected-punct", "p(a) :- q(a) r.\n", ParseError,
     "expected '.', found 'r' at line 1, column 14"),
    ("expected-ident", ":- table 1.\n", ParseError,
     "expected ident, found '1' at line 1, column 10"),
    ("expected-int", ":- table p/a.\n", ParseError,
     "expected int, found 'a' at line 1, column 12"),
    ("expected-term", "p(,).\n", ParseError, "expected a term, found ',' at line 1, column 3"),
    ("expected-call", "p(a) :- 1.\n", ParseError,
     "expected a predicate call or builtin at line 1, column 9"),
    ("head-not-call", "X = 1.\n", ParseError,
     "clause head must be a predicate call at line 1, column 1"),
    ("deep-compound", _DEEP_CALL, ParseError,
     f"term nested deeper than {MAX_TERM_DEPTH} levels at line 1, column 205"),
    ("deep-minus", "p(" + "-" * 200 + "a).", ParseError,
     f"term nested deeper than {MAX_TERM_DEPTH} levels at line 1, column 104"),
    ("deep-list", "p(" + "[" * 200 + "]" * 200 + ").", ParseError,
     f"term nested deeper than {MAX_TERM_DEPTH} levels at line 1, column 104"),
    ("deep-literal", _LONG_SUM, ParseError,
     f"term nested deeper than {MAX_TERM_DEPTH} levels at line 1, column 15"),
    ("unknown-directive", ":- foo p/1.\n", ParseError,
     "unknown directive 'foo' at line 1, column 4"),
    ("spread-first", ":- table p(lattice(_, min/3), min).\n", ParseError,
     "spread lattice mode must be the only mode at line 1, column 29"),
    ("spread-first-no-comma", ":- table p(lattice(_, min/3) min).\n", ParseError,
     "spread lattice mode must be the only mode at line 1, column 30"),
    ("spread-later", ":- table p(min, lattice(_, min/3)).\n", ParseError,
     "spread lattice mode must be the only mode at line 1, column 34"),
    ("spread-placeholders-only", ":- table p(lattice(_, _)).\n", ParseError,
     "expected ',', found ')' at line 1, column 24"),
    ("variable-mode", ":- table p(X).\n", ParseError,
     "unexpected variable 'X' in mode at line 1, column 12"),
    ("expected-mode", ":- table p(1).\n", ParseError,
     "expected a mode, found '1' at line 1, column 12"),
    ("order-mode", ":- table p(first).\n", UnsupportedModeError,
     "mode 'first' depends on answer order and is not supported at line 1, column 12"),
    ("unknown-mode", ":- table p(foo).\n", ParseError, "unknown mode 'foo' at line 1, column 12"),
    ("expected-relation", ":- table p(lattice(1/3)).\n", ParseError,
     "expected a relation name, found '1' at line 1, column 20"),
    ("lattice-arity", ":- table p(lattice(j/2)).\n", ArityError,
     "relation j must have arity 3 at line 1, column 22"),
    ("po-arity", ":- table p(po(o/3)).\n", ArityError,
     "relation o must have arity 2 at line 1, column 17"),
    ("po-unclosed", ":- table p(po(j/2).\n", ParseError,
     "expected ')', found '.' at line 1, column 19"),
    ("conflicting-directives", ":- table p(min).\n:- table p(max).\n", ParseError,
     "conflicting directives for p at line 2, column 10"),
    ("lattice-after-po", ":- table q(po(r/2)).\n:- table p(lattice(r/3)).\n", ParseError,
     "r used as both join and order relation"),
    ("po-after-lattice", ":- table p(lattice(r/3)).\n:- table q(po(r/2)).\n", ParseError,
     "r used as both join and order relation"),
    ("tabled-relation", ":- table p(lattice(j/3)).\n:- table j/3.\nj(a,a,a).\n", ParseError,
     "relation j cannot itself be tabled"),
    ("builtin-plus", ":- table p(lattice(plus/3)).\np(1).\n", UnsupportedModeError,
     "builtin join plus is not idempotent and is not supported; define plus/3 by facts"),
    ("undefined-relation", ":- table p(lattice(j/3)).\np(a).\n", ParseError,
     "relation j/3 is not defined by facts"),
    ("relation-rule", ":- table p(lattice(j/3)).\nj(X,Y,Y) :- k(X,Y).\nk(a,b).\n", ParseError,
     "relation j/3 must be defined by ground facts"),
    ("predicate-arity", "p(a).\nq(X) :- p(X, X).\n", ArityError,
     "predicate p used with arities 1 and 2"),
    ("unbound-head", "p(X) :- q(a).\nq(a).\n", RangeRestrictionError,
     "unbound head variable X in: p(X) :- q(a)."),
    ("unbound-arithmetic", "p(Y) :- Y is X + 1.\n", RangeRestrictionError,
     "variable X unbound in arithmetic in: p(Y) :- Y is (X + 1)."),
]


@pytest.mark.parametrize("text, cls, message", [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_each_parse_error_keeps_its_class_message_and_position(text, cls, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert type(exc.value) is cls
    assert str(exc.value) == message


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


# inline programs, beside the corpus: a relation row holding an operator term
ROUND_TRIP_TEXTS = ["j(1+2,a,a). :- table p(lattice(j/3)). p(a).",
                    "p(1,a,[b]). q(X) :- p(X,_,[_]), p(_,_,_)."]


@pytest.mark.parametrize("name", CORPUS_FILES + ROUND_TRIP_TEXTS)
def test_canonical_text_round_trips(name, programs):
    prog = programs[name] if name in programs else parse_program(name)
    text = program_to_text(prog)
    again = parse_program(text)
    assert again.clauses == prog.clauses
    assert again.directives == prog.directives
    assert again.join_relations == prog.join_relations
    assert again.order_relations == prog.order_relations
    # and the canonical form is a fixed point
    assert program_to_text(again) == text
