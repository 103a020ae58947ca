"""The benchmark's oracles on programs whose answers are known by hand.

    python3 -m pytest bench

The corpus programs `shortest_path.pl` and `unsound_max.pl` are small
enough to solve on paper; each oracle must give those answers, accept
latlog's output on them, and reject output that is wrong.
"""

import contextlib
import io
import random
import re
import sys
from pathlib import Path

import pytest

import workloads as w

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "latlog" / "corpus"
sys.path.insert(0, str(ROOT / "src"))

from latlog import cli  # noqa: E402

# shortest_path.pl: e(a,b). e(b,c). e(a,c). with nodes a, b, c as 0, 1, 2
SHORTEST = w.PathProgram(3, ((0, 1), (0, 2), (1, 2)), "min")
# unsound_max.pl: p(0). p(1). p(2) :- p(X), X = 1. p(3) :- p(X), X = 0.
UNSOUND = w.ThresholdProgram((0, 1), ((2, "=", 1), (3, "=", 0)))


def latlog(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def test_hop_distances_of_shortest_path():
    assert w.hop_distances(3, SHORTEST.successors()) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


@pytest.mark.parametrize("engine", ["greedy", "reference"])
def test_both_engines_match_the_hop_distances(engine):
    code, out = latlog("eval", CORPUS / "shortest_path.pl", "--engine", engine)
    names = {"n0": "a", "n1": "b", "n2": "c"}
    expected = sorted(re.sub(r"n\d", lambda m: names[m.group()], line)
                      for line in SHORTEST.expected_answers() if line.startswith("p("))
    assert code == 0
    assert sorted(line for line in out.splitlines() if line.startswith("p(")) == expected


def test_universe_of_shortest_path_and_its_exhaustive_check():
    # e(a,b), e(b,c), e(a,c), p(a,b,1), p(b,c,1), p(a,c,1), p(a,c,2)
    assert SHORTEST.universe_size() == 7
    verify = w.check_clean_report(7, tested=2 ** 7)
    assert verify(*latlog("check", CORPUS / "shortest_path.pl")) is None
    assert verify(0, "verdict: violation\n") is not None
    assert w.check_clean_report(8, tested=2 ** 8)(
        *latlog("check", CORPUS / "shortest_path.pl")) is not None


def test_threshold_oracle_on_unsound_max():
    assert UNSOUND.universe() == {0, 1, 2, 3}
    assert UNSOUND.reference_answer() == 3
    assert UNSOUND.greedy_answer() == 2
    assert UNSOUND.first_violation() == ({0, 1}, 4)
    assert UNSOUND.sides({0, 1}) == (3, 2)
    assert UNSOUND.text() == (":- table p(max).\np(0). p(1).\n"
                              "p(2) :- p(X), X = 1.\np(3) :- p(X), X = 0.\n")


def test_violation_checker_accepts_latlog_and_rejects_a_wrong_side():
    verify = w.check_violation_report(UNSOUND)
    code, out = latlog("check", CORPUS / "unsound_max.pl")
    assert verify(code, out) is None
    assert verify(code, out.replace("p -> 2", "p -> 3")) is not None
    assert verify(0, out) is not None


@pytest.mark.parametrize("engine,answer", [("greedy", 2), ("reference", 3)])
def test_engines_on_unsound_max(engine, answer):
    code, out = latlog("eval", CORPUS / "unsound_max.pl", "--engine", engine)
    assert w.check_answers([f"p({answer})"])(code, out) is None
    assert w.check_answers([f"p({5 - answer})"])(code, out) is not None


def test_minmax_oracle_by_hand():
    prog = w.PathProgram(3, ((0, 1), (0, 2), (1, 2)), "minmax")
    assert w.path_length_bounds(3, prog.edges) == {(0, 1): (1, 1), (1, 2): (1, 1),
                                                   (0, 2): (1, 2)}
    # (0,2) holds (1,1), (2,2) and their join (1,2)
    assert prog.universe_size() == 3 + 1 + 1 + 3


def test_generation_is_seeded():
    for workload in w.WORKLOADS:
        def texts(seed):
            return {k: p.text() for k, (p, _) in w.generate(workload, seed).items()}
        assert texts(7) == texts(7)
        assert texts(7) != texts(8)


def test_small_dags_have_the_requested_universe():
    rng = random.Random(0)
    for _ in range(20):
        assert w.small_dag(rng, 12).universe_size() == 12
