"""CLI behaviour: golden output, JSON reports, exit codes, errors."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CORPUS, GOLDEN
from golden_cases import CASES, resolved_argv
from latlog import errors
from latlog.cli import _answer_strs, main
from latlog.parser import MAX_TERM_DEPTH
from latlog.terms import (
    MAX_INT_DIGITS,
    Atom,
    Compound,
    Int,
    ListTerm,
    Symbol,
    atom_sorted,
    atom_to_str,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def corpus_path(name):
    return str(CORPUS / name)


@pytest.mark.parametrize("golden,argv,expected", CASES,
                         ids=[c[0][:-4] for c in CASES])
def test_golden_output(golden, argv, expected, capsys):
    code, out, err = run(capsys, *resolved_argv(argv, CORPUS))
    assert code == expected
    assert err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latlog.cli",
         "eval", corpus_path("simple.pl"), "--fuel", "200"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "eval_simple_greedy.txt").read_text(encoding="utf-8")


# --- JSON reports ----------------------------------------------------------


def test_eval_json_matches_the_text_answers(capsys):
    code, out, _ = run(capsys, "eval", corpus_path("shortest_path.pl"),
                       "--fuel", "200", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["engine"] == "greedy"
    assert data["converged"] is True
    golden = (GOLDEN / "eval_shortest_path_greedy.txt").read_text(encoding="utf-8")
    assert data["answers"] == golden.splitlines()
    assert data["table"]["p(a,c)"] == "1"
    assert data["table"]["e(a,b,nt)"] == "true"


def test_eval_json_divergence(capsys):
    code, out, _ = run(capsys, "eval", corpus_path("even_odd.pl"),
                       "--engine", "reference", "--fuel", "200", "--json")
    assert code == 2
    data = json.loads(out)
    assert data["converged"] is False
    assert data["diverged_stratum"] == ["even", "odd"]
    assert "even(0)" in data["answers"]  # partial answers are still reported


def test_divergence_on_the_first_step_keeps_the_lower_answers(capsys, tmp_path):
    # the join closure of p(k,_) outgrows fuel 5 in p's first step, so
    # p's stratum ends with an empty model; q's answers still count
    f = write(tmp_path, ":- table p(index,all). q(a).\n"
                        "p(k,1). p(k,2). p(k,3). p(k,4). p(k,X) :- q(X).\n")
    code, out, _ = run(capsys, "eval", f, "--engine", "reference", "--fuel", "5", "--json")
    assert code == 2
    data = json.loads(out)
    assert data["answers"] == ["q(a)"]
    assert data["table"] == {"q(a)": "true"}
    assert data["steps"] == 2
    assert data["diverged_stratum"] == ["p"]


def test_check_json_violation(capsys):
    code, out, _ = run(capsys, "check", corpus_path("unsound_max.pl"),
                       "--fuel", "200", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "violation"
    assert data["witness"] == ["p(0)", "p(1)"]
    assert data["lhs"] == {"p": "3"}
    assert data["rhs"] == {"p": "2"}
    assert data["universe"] == {"complete": True,
                                "atoms": ["p(0)", "p(1)", "p(2)", "p(3)"]}


def test_a_diverging_universe_rejects_a_value_outside_its_lattice(capsys, tmp_path):
    # p's stratum diverges, but p(a,foo) lies outside the integers of
    # min/3, and the universe rejects it in the step that derives it
    f = write(tmp_path, ":- table p(index,lattice(min/3)).\n"
                        "p(a,foo). p(b,0). p(b,X) :- p(b,Y), X is Y+1.\n"
                        "p(a,X) :- p(b,X), X = 5.\n")
    _one_error(capsys, f, ("check", "--strategy", "sampled", "--samples", "5", "--fuel", "100"),
               4, "domain", "builtin join min needs integers, got foo")


def test_check_json_inconclusive(capsys):
    code, out, _ = run(capsys, "check", corpus_path("even_odd.pl"),
                       "--fuel", "200", "--json")
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "inconclusive"
    assert "sampled or trace" in data["reason"]
    assert "witness" not in data


def test_diff_json(capsys):
    code, out, _ = run(capsys, "diff", corpus_path("unsound_max.pl"),
                       "--fuel", "200", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert data["diffs"] == [{"key": "p", "reference": "3", "greedy": "2"}]
    assert data["reference"]["answers"] == ["p(3)"]
    assert data["greedy"]["answers"] == ["p(2)"]


def test_strata_json(capsys):
    code, out, _ = run(capsys, "strata", corpus_path("stratified_path.pl"),
                       "--fuel", "200", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["strata"] == [["e"], ["p"], ["s"]]
    assert data["edges"] == [[0, 1], [1, 2]]


# --- errors -----------------------------------------------------------------


# every error class, with the kind a JSON report names, the exit code,
# and the words for it in that code's row of README's exit-code table
ERROR_CLASSES = [
    (errors.LatlogError, "internal", 4, "internal error"),
    (errors.ParseError, "parse", 3, "parse"),
    (errors.UnsupportedModeError, "unsupported-mode", 3, "mode"),
    (errors.RangeRestrictionError, "range-restriction", 3, "range-restriction"),
    (errors.ArityError, "arity", 3, "arity"),
    (errors.ArithmeticTypeError, "arithmetic-type", 3, "arithmetic type"),
    (errors.LatticeError, "lattice", 4, "lattice trouble"),
    (errors.JoinUndefinedError, "join-undefined", 4, "undefined join"),
    (errors.LatticeLawViolationError, "lattice-law", 4, "law violation"),
    (errors.DomainError, "domain", 4, "domain error"),
    (errors.InternalInconsistencyError, "internal", 4, "internal error"),
]


@pytest.mark.parametrize("cls, kind, code, words", ERROR_CLASSES,
                         ids=[c.__name__ for c, *_ in ERROR_CLASSES])
def test_an_error_carries_its_kind_and_exit_code(cls, kind, code, words):
    assert (cls.kind, cls.exit_code) == (kind, code)
    rows = dict(re.findall(r"^\| (\d) +\| (.*) \|$", README.read_text(encoding="utf-8"), re.M))
    assert words in rows[str(code)]


def test_every_error_class_is_pinned():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.LatlogError)}
    assert classes == {c for c, *_ in ERROR_CLASSES}


def write(tmp_path, text):
    f = tmp_path / "prog.pl"
    f.write_text(text, encoding="utf-8")
    return str(f)


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "eval", str(tmp_path / "nope.pl"))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot read")


def test_parse_error_names_the_position(capsys, tmp_path):
    f = write(tmp_path, "p(a).\nq(b)\nr(c).\n")
    code, _, err = run(capsys, "eval", f)
    assert code == 3
    assert "line 3" in err


def test_rejected_mode_is_a_program_error(capsys, tmp_path):
    f = write(tmp_path, ":- table p(sum).\np(1).\n")
    code, out, err = run(capsys, "eval", f, "--json")
    assert code == 3
    assert err == ""
    data = json.loads(out)
    assert set(data) == {"status", "kind", "detail"}
    assert data["status"] == "error"
    assert data["kind"] == "unsupported-mode"
    assert "sum" in data["detail"]


def test_builtin_plus_join_is_an_unsupported_mode(capsys, tmp_path):
    f = write(tmp_path, ":- table p(lattice(plus/3)).\np(1).\np(2).\n")
    code, out, _ = run(capsys, "eval", f, "--json")
    assert code == 3
    data = json.loads(out)
    assert data["kind"] == "unsupported-mode"
    assert "plus" in data["detail"]


def test_non_associative_user_join_is_a_lattice_error(capsys, tmp_path):
    # a v (b v c) = a but (a v b) v c = c: only the fold order would
    # decide the answer
    f = write(tmp_path, "j(a,b,a). j(b,c,b). j(a,c,c).\n"
                        ":- table p(lattice(j/3)).\np(a). p(b). p(c).\n")
    for command in ("eval", "check", "diff"):
        code, out, _ = run(capsys, command, f, "--json")
        assert code == 4
        data = json.loads(out)
        assert data["kind"] == "lattice-law"
        assert data["detail"] == "join j is not associative on (a, b, c)"


def _nested_fact(depth):
    return "p(" + "[" * depth + "a" + "]" * depth + ").\n"


def test_term_at_the_nesting_bound_runs_everywhere(capsys, tmp_path):
    f = write(tmp_path, ":- table p(all).\n" + _nested_fact(MAX_TERM_DEPTH))
    for argv in (("eval",), ("eval", "--engine", "reference"), ("check",),
                 ("check", "--strategy", "trace"), ("diff",), ("strata",)):
        code, _, err = run(capsys, argv[0], f, *argv[1:])
        assert (code, err) == (0, ""), argv


def _nested(depth, leaf):
    return "[" * depth + leaf + "]" * depth


# a rule builds or tests a term at the nesting bound whose innermost
# argument is a variable, so its plan cannot take the term as a constant
DEEP_RULES = {
    "head": "q(a).\np(" + _nested(MAX_TERM_DEPTH, "X") + ") :- q(X).\n",
    "equality": "q(a).\nr(" + _nested(MAX_TERM_DEPTH, "a") + ").\n"
                "p(Y) :- q(X), r(Y), Y = " + _nested(MAX_TERM_DEPTH, "X") + ".\n",
    "arithmetic": "q(1).\np(Y) :- q(X), Y is X" + " + 1" * (MAX_TERM_DEPTH - 1) + ".\n",
}


@pytest.mark.parametrize("where", DEEP_RULES)
def test_a_rule_at_the_nesting_bound_evaluates_and_checks(where, capsys, tmp_path):
    f = write(tmp_path, DEEP_RULES[where])
    answer = {"head": "p(" + _nested(MAX_TERM_DEPTH, "a") + ")",
              "equality": "p(" + _nested(MAX_TERM_DEPTH, "a") + ")",
              "arithmetic": f"p({MAX_TERM_DEPTH})"}[where]
    for engine in ("reference", "greedy"):
        code, out, err = run(capsys, "eval", f, "--engine", engine)
        assert (code, err) == (0, ""), engine
        assert answer in out.splitlines(), engine
    code, out, err = run(capsys, "check", f)
    assert (code, err) == (0, "")
    assert "verdict: no-violation-found" in out


@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 3000])
def test_term_nested_too_deep_is_a_parse_error(depth, capsys, tmp_path):
    f = write(tmp_path, _nested_fact(depth))
    code, out, err = run(capsys, "eval", f)
    assert code == 3
    assert out == ""
    assert err.startswith("error: term nested deeper than 100 levels")


def test_deep_nesting_exits_without_a_traceback(tmp_path):
    f = write(tmp_path, _nested_fact(3000))
    proc = subprocess.run([sys.executable, "-m", "latlog.cli", "eval", f],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _chain(calls):
    """A clause of `calls` body calls over one fact, each call binding the
    variable the next one reads."""
    return "q(a,a).\np(X0) :- " + ", ".join(f"q(X{i},X{i + 1})" for i in range(calls)) + ".\n"


@pytest.mark.parametrize("calls", [1000, 5000])
def test_a_long_body_evaluates_and_checks(calls, capsys, tmp_path):
    # one Python frame per body call overflowed the stack at about 1 000
    f = write(tmp_path, _chain(calls))
    for engine in ("reference", "greedy"):
        assert run(capsys, "eval", f, "--engine", engine) == (0, "p(a)\nq(a,a)\n", "")
    code, out, err = run(capsys, "check", f)
    assert (code, err) == (0, "")
    assert out.endswith("universe: 2 atoms, complete\nverdict: no-violation-found\ntested: 4\n")


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "prog.pl"
    f.write_bytes(b"p(1).\n% caf\xe9\n")
    code, out, err = run(capsys, "eval", str(f))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1
    code, out, _ = run(capsys, "eval", str(f), "--json")
    assert code == 3
    assert json.loads(out)["kind"] == "parse"


def _one_error(capsys, f, argv, code, kind, detail):
    """The run exits with `code` and names the error in one line, in
    text and in JSON alike."""
    assert run(capsys, argv[0], f, *argv[1:]) == (code, "", f"error: {detail}\n"), argv
    got, out, _ = run(capsys, argv[0], f, *argv[1:], "--json")
    assert (got, json.loads(out)) == (
        code, {"status": "error", "kind": kind, "detail": detail}), argv


def test_an_integer_literal_past_the_digit_bound_is_a_parse_error(capsys, tmp_path):
    f = write(tmp_path, "p(" + "9" * (MAX_INT_DIGITS + 1000) + ").\n")
    _one_error(capsys, f, ("eval",), 3, "parse",
               f"integer longer than {MAX_INT_DIGITS} digits at line 1, column 3")


def test_arithmetic_past_the_digit_bound_is_a_program_error(capsys, tmp_path):
    # p squares its value each step: 2**(2**14) has 4933 digits
    f = write(tmp_path, ":- table p(max).\np(2).\np(X) :- p(Y), X is Y*Y.\n")
    for argv in (("eval", "--fuel", "16"), ("eval", "--fuel", "16", "--engine", "reference"),
                 ("diff", "--fuel", "16")):
        _one_error(capsys, f, argv, 3, "arithmetic-type",
                   f"(Y * Y) has more than {MAX_INT_DIGITS} digits")


def test_partial_join_relation_is_a_lattice_error(capsys, tmp_path):
    # j joins a and b, so its carrier is {a, b}, and c lies outside it
    f = write(tmp_path,
              "j(a,b,b).\n"
              ":- table p(lattice(j/3)).\n"
              "p(a).\np(c).\n")
    for argv in (("eval",), ("eval", "--engine", "reference")):
        _one_error(capsys, f, argv, 4, "domain", "c is not in the carrier of join j")


# Runs the CLI in-process on each argv of the JSON list it reads, and
# prints the list of their (exit code, stdout, stderr).
_RUN_EACH = ("import json, sys; from output_sweep import run_cli; "
             "json.dump([run_cli(argv) for argv in json.load(sys.stdin)], sys.stdout)")

EVERY = (("eval", "--engine", "reference"), ("eval", "--engine", "greedy"), ("diff",),
         ("check",), ("check", "--strategy", "trace"))

# Atoms are folded, and rules fired, in set order, and the order of a
# set of symbols moves with the string hash seed. Each program below
# fails; every command must print one message at every seed. Each case
# is (program, commands, exit code, the message all of them print, or
# one per command): one message wherever both engines fail at a
# lattice's boundary, or on a join table when the program is built.
# An arithmetic error can differ by engine: greedy folds p(2) and
# p(foo) into p([2,foo]) before the rule reads either, and the
# reference fires on all three, in atom order.
HASH_SEED_CASES = [
    (":- table p(lattice(max_inf/3)).\np(1). p(foo). p(bar).\n",
     EVERY, 4, "bar is not an extended natural"),
    ("j(a,b,c).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
     EVERY, 4, "join j is undefined on (a, c)"),
    ("j(b,c,a).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
     EVERY, 4, "join j is undefined on (a, b)"),
    ("j(a,b,b).\n:- table p(lattice(j/3)).\np(a). p(b). p(z). p(y).\n",
     EVERY, 4, "y is not in the carrier of join j"),
    (":- table p(index,lattice(min/3),all).\np(k,a,x). p(k,b,y). p(k,3,z).\n",
     EVERY, 4, "builtin join min needs integers, got a"),
    (":- table p(index,lattice(min/3)).\np(a,foo).\n",
     EVERY, 4, "builtin join min needs integers, got foo"),
    ("p(a). p(b). p(1).\nq(X) :- p(Y), X is Y+1.\n",
     EVERY, 3, "arithmetic on non-integer a"),
    (":- table p(all).\np(2). p(foo).\np(X) :- p(Y), X is Y*Y.\n",
     EVERY, 3, tuple(f"arithmetic on non-integer {t}"
                     for t in ("foo", "[2,foo]", "foo", "foo", "foo"))),
]


@pytest.mark.parametrize("text,commands,code,message", HASH_SEED_CASES, ids=[
    "max-inf-domain", "partial-join", "partial-join-error", "outside-carrier",
    "builtin-min-domain", "builtin-min-lone-symbol", "arithmetic", "arithmetic-on-a-set"])
def test_fold_outcome_does_not_depend_on_the_hash_seed(text, commands, code, message, tmp_path):
    f = write(tmp_path, text)
    argvs = [[command[0], f, *command[1:]] for command in commands]
    outputs = {command: set() for command in commands}
    path = os.pathsep.join([str(pathlib.Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    for seed in ("1", "2", "3", "4", "5", "6"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_EACH], input=json.dumps(argvs), check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
        for command, run_ in zip(commands, json.loads(proc.stdout)):
            outputs[command].add(tuple(run_))
    messages = (message,) * len(commands) if isinstance(message, str) else message
    for command, expected in zip(commands, messages):
        assert len(outputs[command]) == 1, (command, outputs[command])
        assert outputs[command].pop() == (code, "", f"error: {expected}\n"), command


def test_a_domain_error_comes_before_arithmetic_on_the_rejected_term(capsys, tmp_path):
    # p(a,foo) is rejected in the step that derives it, before the rule
    # that adds 1 to it fires in the same stratum
    f = write(tmp_path, ":- table p(index,lattice(max_inf/3)).\n"
                        "p(a,foo). p(b,X) :- p(a,Y), X is Y+1.\n")
    for engine in ("reference", "greedy"):
        code, out, err = run(capsys, "eval", f, "--engine", engine)
        assert (code, out, err) == (4, "", "error: foo is not an extended natural\n"), engine


def test_arithmetic_on_symbols_is_a_program_error(capsys, tmp_path):
    f = write(tmp_path, "p(a).\nq(Y) :- p(X), Y is X + 1.\n")
    code, out, _ = run(capsys, "eval", f, "--json")
    assert code == 3
    assert json.loads(out)["kind"] == "arithmetic-type"


def test_join_closure_over_fuel_is_inconclusive(capsys, tmp_path):
    # the (min, max) join of the three facts creates values, and the
    # closure of the first tested step outgrows fuel 4
    f = write(tmp_path, ":- table p(index,min,max).\np(a,1,1). p(a,2,5). p(a,3,2).\n")
    reason = "the join closure of the step on subset 1 outgrew fuel 4"
    for strategy in ("trace", "sampled"):
        code, out, err = run(capsys, "check", f, "--strategy", strategy, "--fuel", "4")
        assert (code, err) == (2, "")
        assert "verdict: inconclusive\ntested: 0\n" in out
        assert out.endswith(f"reason: {reason}\n")
        code, out, _ = run(capsys, "check", f, "--strategy", strategy, "--fuel", "4", "--json")
        assert code == 2
        data = json.loads(out)
        assert (data["verdict"], data["tested"], data["reason"]) == ("inconclusive", 0, reason)
    for fuel in ("1", "2", "3"):
        code, out, _ = run(capsys, "check", f, "--strategy", "sampled", "--fuel", fuel)
        assert code == 2
        assert out.endswith(f"outgrew fuel {fuel}\n")


_ERR = (":- table p(index,min). :- table q(max).\n"
        "p(a,1). p(a,foo). q(X) :- p(a,Y), X is Y+1.\n")


def test_arithmetic_error_in_a_tested_step_is_a_program_error(capsys, tmp_path):
    f = write(tmp_path, _ERR)
    for strategy in ("exhaustive", "trace", "sampled"):
        code, out, err = run(capsys, "check", f, "--strategy", strategy)
        assert (code, out) == (3, ""), strategy
        assert err == "error: arithmetic on non-integer foo\n"


def test_an_arithmetic_error_no_subset_reaches_before_the_witness(capsys, tmp_path):
    # the exhaustive enumeration finds the a/1 witness at subset 4,
    # before any subset holds p(a,foo); the error must not surface
    f = write(tmp_path, _ERR + ":- table a(max).\n"
                               "a(0). a(1). a(2) :- a(X), X >= 1. a(3) :- a(X), X = 0.\n")
    code, out, err = run(capsys, "check", f)
    assert (code, err) == (1, "")
    assert "verdict: violation\ntested: 4\nwitness: a(0), a(1)\n" in out


def test_usage_errors_follow_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", corpus_path("simple.pl"), "--fuel", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate", corpus_path("simple.pl")])
    capsys.readouterr()  # swallow argparse usage noise


USAGE_ERRORS = [
    (["eval", "--fuel", "abc"], "latlog eval: error: argument --fuel: invalid int value: 'abc'"),
    (["eval", "--fuel", "0"], "latlog eval: error: argument --fuel: must be at least 1"),
    (["check", "--samples", "x"],
     "latlog check: error: argument --samples: invalid int value: 'x'"),
    (["check", "--samples", "0"], "latlog check: error: argument --samples: must be at least 1"),
    (["check", "--max-atoms", "x"],
     "latlog check: error: argument --max-atoms: invalid int value: 'x'"),
    (["check", "--max-atoms", "25"], "latlog check: error: argument --max-atoms: must be in 1..24"),
    (["check", "--seed", "x"], "latlog check: error: argument --seed: invalid int value: 'x'"),
]


def usage_error(capsys, argv):
    """The exit code and the last line of stderr of a run that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return exc.value.code, err.splitlines()[-1]


@pytest.mark.parametrize("argv,line", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_a_bad_option_value_names_no_helper(capsys, argv, line):
    assert usage_error(capsys, [argv[0], corpus_path("simple.pl"), *argv[1:]]) == (2, line)


def test_repeated_calls_share_nothing_but_the_parser(capsys):
    f = corpus_path("unsound_max.pl")
    assert run(capsys, "check", "--strategy", "trace", "--json", f)[0] == 1
    code, out, _ = run(capsys, "check", f)
    assert code == 1
    assert "strategy: exhaustive (max-atoms=16)\n" in out
    # fuel 3 runs dry; the next call runs at the default fuel again
    assert run(capsys, "eval", "--engine", "reference", "--fuel", "3", f)[0] == 2
    greedy = run(capsys, "eval", f)
    assert greedy == (0, (GOLDEN / "eval_unsound_max_greedy.txt").read_text(encoding="utf-8"), "")
    # a usage error after a successful call, and a successful call after one
    assert usage_error(capsys, ["eval", f, "--fuel", "0"]) == (2, USAGE_ERRORS[1][1])
    assert run(capsys, "eval", f) == greedy


def test_a_program_without_answers_prints_nothing(capsys, tmp_path):
    f = write(tmp_path, "p(X) :- q(X). q(X) :- p(X).\n")
    for engine in ("greedy", "reference"):
        assert run(capsys, "eval", f, "--engine", engine) == (0, "", "")


# one arity per predicate, as the parser allows
ARITIES = {"p": 1, "q": 2, "r": 0, "s": 3}
FLAT_TERMS = st.one_of(st.integers(-12, 12).map(Int),
                       st.sampled_from(("a", "ab", "b", "B")).map(Symbol))
TERMS = st.recursive(FLAT_TERMS, lambda sub: st.one_of(
    st.builds(lambda f, args: Compound(f, tuple(args)),
              st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3)),
    st.lists(sub, max_size=3).map(lambda es: ListTerm(tuple(es)))), max_leaves=4)


@st.composite
def answer_sets(draw):
    """Atoms over integers and symbols only, half the time; else over any terms."""
    terms = draw(st.sampled_from((FLAT_TERMS, TERMS)))
    atom = st.sampled_from(sorted(ARITIES)).flatmap(
        lambda p: st.tuples(*[terms] * ARITIES[p]).map(lambda args: Atom(p, args)))
    return draw(st.frozensets(atom, max_size=12))


@given(answer_sets())
def test_answers_print_in_atom_order(atoms):
    assert _answer_strs(atoms) == [atom_to_str(a) for a in atom_sorted(atoms)]
