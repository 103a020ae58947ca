"""CLI behaviour: golden output, JSON reports, exit codes, errors."""

import json
import os
import subprocess
import sys

import pytest

from conftest import CORPUS, GOLDEN
from golden_cases import CASES, resolved_argv
from latlog.cli import main
from latlog.parser import MAX_TERM_DEPTH
from latlog.terms import MAX_INT_DIGITS


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


def test_a_diverging_universe_is_not_folded(capsys, tmp_path):
    # p(a,foo) and p(a,5) cannot be joined under min/3, but p's stratum
    # diverges, so the universe never folds them and serves as a pool
    f = write(tmp_path, ":- table p(index,lattice(min/3)).\n"
                        "p(a,foo). p(b,0). p(b,X) :- p(b,Y), X is Y+1.\n"
                        "p(a,X) :- p(b,X), X = 5.\n")
    code, out, _ = run(capsys, "check", f, "--strategy", "sampled", "--samples", "5",
                       "--fuel", "100", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "no-violation-found"
    assert data["tested"] == 5
    assert data["universe"]["complete"] is False
    assert {"p(a,foo)", "p(a,5)", "p(b,0)"} <= set(data["universe"]["atoms"])


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
    f = write(tmp_path,
              "j(a,b,b).\n"
              ":- table p(lattice(j/3)).\n"
              "p(a).\np(c).\n")
    code, out, _ = run(capsys, "eval", f, "--json")
    assert code == 4
    data = json.loads(out)
    assert data["kind"] == "join-undefined"
    assert "(a, c)" in data["detail"]


# Atoms are folded in set order, and the order of a set of symbols
# moves with the string hash seed. An error must still name the same
# atoms, and a join table with an undefined pair must still be folded
# in sorted order, where p(a), p(b), p(c) give p(c) under the first
# table and fail on (a, b) under the second.
HASH_SEED_CASES = [
    (":- table p(lattice(max_inf/3)).\np(1). p(foo). p(bar).\n",
     ("reference", "greedy"), (4, "", "error: bar is not an extended natural\n")),
    ("j(a,b,c).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
     ("greedy",), (0, "p(c)\n", "")),
    ("j(b,c,a).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
     ("greedy",), (4, "", "error: join j is undefined on (a, b)\n")),
]


@pytest.mark.parametrize("text,engines,expected", HASH_SEED_CASES,
                         ids=["max-inf-domain", "partial-join", "partial-join-error"])
def test_fold_outcome_does_not_depend_on_the_hash_seed(text, engines, expected, tmp_path):
    f = write(tmp_path, text)
    for engine in engines:
        for seed in ("1", "2", "3", "4", "5"):
            proc = subprocess.run(
                [sys.executable, "-m", "latlog.cli", "eval", f, "--engine", engine],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert (proc.returncode, proc.stdout, proc.stderr) == expected, (engine, seed)


def test_join_closure_error_does_not_depend_on_the_hash_seed(tmp_path):
    # the reference closes p's group under j, which is undefined on
    # (a, c); the closure walks the values in term order, so it names
    # the same pair at every seed, through eval and through the
    # checker's universe alike
    f = write(tmp_path, "j(a,b,c).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n")
    for argv in (["eval", f, "--engine", "reference"], ["check", f]):
        for seed in ("1", "2", "3", "4", "5", "6"):
            proc = subprocess.run(
                [sys.executable, "-m", "latlog.cli", *argv],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                4, "", "error: join j is undefined on (c, a)\n"), (argv[0], seed)


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
