"""The trace check's firing table against a replay of every table.

The trace check reads each stepped set off its firing table: the lower
strata's answers, injected as facts, and the heads of the stratum's
firings whose bodies lie in the table's atoms. `replay_trace_subsets`
in conftest.py steps each table directly instead. The subsets must be
the same, and so must the whole report, or the error raised.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import (
    BENCH_MIN,
    CORPUS_FILES,
    POOL_RAISE,
    THREE_STRATA,
    corpus_text,
    random_dag_program,
    replay_trace_check,
    replay_trace_subsets,
)
from latlog import checker
from latlog.checker import CheckStrategy, check_greedy_soundness
from latlog.errors import LatlogError
from latlog.lattice import build_specs
from latlog.parser import parse_program

TRACE = CheckStrategy("trace")


def guard_programs():
    """{name: (program, fuel)} for the differential guard."""
    out = {}
    for fuel in (50, 200):
        for name in CORPUS_FILES:
            out[f"{name}@{fuel}"] = (parse_program(corpus_text(name)), fuel)
    for lattice in ("min", "minmax", "all", "po"):
        for seed in range(6):
            out[f"dag-{lattice}-{seed}"] = (random_dag_program(lattice, seed), 200)
    out["three-strata"] = (parse_program(THREE_STRATA), 200)
    out["pool-raise"] = (parse_program(POOL_RAISE), 200)
    return out


def outcome(run):
    """What `run()` returns, or the type and message of the error it raises."""
    try:
        return run()
    except LatlogError as exc:
        return type(exc).__name__, str(exc)


def guard():
    """Run the guard: the programs whose trace subsets or report are not
    the replay's, and how many programs kept their firing table, stepped
    a clause directly, or fell back to an empty pool."""
    differ, paths = [], {"table": 0, "direct": 0, "fallback": 0}
    for name, (program, fuel) in guard_programs().items():
        got = outcome(lambda: checker._trace_subsets(program, build_specs(program), fuel))
        if isinstance(got, tuple) and isinstance(got[1], checker._FiringTable):
            masks, table = got
            subsets = [table.atoms_of(x) for x in masks]
            paths["table" if table.pool else "fallback"] += 1
            paths["direct"] += bool(table.direct)
        else:
            subsets = got
        if subsets != outcome(lambda: replay_trace_subsets(program, fuel)):
            differ.append(f"{name}: subsets")
        report = outcome(lambda: check_greedy_soundness(program, TRACE, fuel))
        if report != outcome(lambda: replay_trace_check(program, fuel)):
            differ.append(f"{name}: report")
    return differ, paths


@pytest.mark.parametrize("seed", ["0", "1"])
def test_trace_checks_are_the_replays(seed):
    here = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(here), os.environ.get("PYTHONPATH", "")])
    script = "import json, test_trace; print(json.dumps(test_trace.guard()))"
    proc = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    differ, paths = json.loads(proc.stdout)
    assert differ == []
    # every path runs, so a silent fallback would show here as well
    assert paths["table"] >= 25 and paths["direct"] >= 1 and paths["fallback"] >= 4, paths


# --- pins ---------------------------------------------------------------------


@pytest.mark.parametrize("text", [corpus_text("shortest_path.pl"), BENCH_MIN],
                         ids=["shortest_path.pl", "bench-min-dag"])
def test_a_trace_check_steps_nothing_directly(monkeypatch, text):
    calls = []
    step = checker.immediate_step

    def spy(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(checker, "immediate_step", spy)
    program = parse_program(text)
    report = check_greedy_soundness(program, TRACE, 1000)
    assert report.verdict == checker.NO_VIOLATION and report.tested >= 4
    assert calls == []


def test_longest_path_still_falls_back_to_an_empty_pool(programs):
    program = programs["longest_path.pl"]
    subsets, table = checker._trace_subsets(program, build_specs(program), 200)
    assert table.pool == 0 and subsets
    report = check_greedy_soundness(program, TRACE, 200)
    assert report == replay_trace_check(program, 200)
    assert (report.verdict, report.tested) == (checker.NO_VIOLATION, len(subsets))
