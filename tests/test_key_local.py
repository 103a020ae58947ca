"""The exhaustive check's key-local pass against the per-mask loop.

The key-local pass compares only the submasks of each answer key's
span, yet must report exactly what comparing every mask in order
reports: verdict, subset count, witness, both sides and reason, or the
same error. `per_mask_check` in conftest.py is that loop.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (
    ARITH_ERROR,
    CORPUS_FILES,
    DAG_PROGRAMS,
    LAZY_ERROR,
    corpus_text,
    per_mask_check,
)
from latlog import checker
from latlog.checker import NO_VIOLATION, CheckStrategy, check_greedy_soundness
from latlog.errors import LatlogError
from latlog.parser import parse_program

EXHAUSTIVE = CheckStrategy("exhaustive", max_atoms=12)
FUEL = 60

LUB_ROWS = "lub(a,b,c). lub(a,c,c). lub(a,d,d). lub(b,c,c). lub(b,d,d). lub(c,d,d).\n"
# rules over the lub table: one reads a join-created value, one copies
# a group into another, one reads a value no group may hold
LUB_RULES = ("p(K,d) :- p(K,c).", "p(k2,V) :- p(k1,V).", "q(K) :- p(K,a).",
             "p(k3,b) :- p(k1,d).")
THRESHOLD_OPS = ("=", "<", ">=", ">", "=<")


def small_dag_program(lattice, seed):
    """Three or four nodes, a few forward edges, the rules of one of
    conftest's DAG programs: small universes, under every lattice."""
    rng = random.Random(f"small:{lattice}:{seed}")
    size = rng.randint(3, 4)
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges = sorted(rng.sample(pairs, rng.randint(2, min(4, len(pairs)))))
    header, rules = DAG_PROGRAMS[lattice]
    labels = ("lo", "mid", "hi", "alt")
    facts = "".join(f"e(n{i},n{j},{rng.choice(labels)}).\n" for i, j in edges)
    return f"{header}\n{facts}{rules}"


def lub_program(seed):
    """Facts over up to three keys under the lub table, and some rules."""
    rng = random.Random(f"lub:{seed}")
    facts = sorted(rng.sample([f"p(k{k},{v})." for k in (1, 2, 3) for v in "abcd"],
                              rng.randint(2, 5)))
    rules = rng.sample(LUB_RULES, rng.randint(0, 3))
    return (LUB_ROWS + ":- table p(index,lattice(lub/3)).\n"
            + " ".join(facts) + "\n" + "\n".join(rules) + "\n")


def threshold_program(seed):
    """`p(K,H) :- p(K,X), X op T.` rules over small random integers, for
    two keys under min or max: the shape of the paper's unsound example."""
    rng = random.Random(f"threshold:{seed}")
    lines = [f":- table p(index,{rng.choice(('min', 'max'))})."]
    for k in "ab":
        lines.append(" ".join(f"p({k},{v})." for v in rng.sample(range(10), 2)))
        lines += [f"p({k},{rng.randrange(10)}) :- p({k},X), X {rng.choice(THRESHOLD_OPS)} "
                  f"{rng.randrange(10)}." for _ in range(rng.randint(1, 3))]
    return "\n".join(lines) + "\n"


def guard_programs():
    """{name: program text} for the differential guard."""
    out = {name: corpus_text(name) for name in CORPUS_FILES}
    out["arith-error"] = ARITH_ERROR
    out["lazy-error"] = LAZY_ERROR
    out["all-one-value"] = ":- table p(index,all).\np(k,a). p(k,[a]).\nq(X) :- p(k,X).\n"
    for lattice in sorted(DAG_PROGRAMS):
        for seed in range(8):
            out[f"dag-{lattice}-{seed}"] = small_dag_program(lattice, seed)
    for seed in range(16):
        out[f"lub-{seed}"] = lub_program(seed)
        out[f"threshold-{seed}"] = threshold_program(seed)
    return out


def outcome(check, program):
    """What a check reports, or the type and message of the error it raises."""
    try:
        return check(program, EXHAUSTIVE, FUEL)
    except LatlogError as exc:
        return type(exc).__name__, str(exc)


def guard():
    """Run the guard: the programs whose key-local outcome is not the
    per-mask loop's, and how many programs each path decided."""
    decided = []
    key_local = checker._key_local_report

    def spy(*args):
        report = key_local(*args)
        decided.append(report is not None)
        return report

    checker._key_local_report = spy
    try:
        differ, paths = [], {"key-local": 0, "per-mask": 0}
        for name, text in guard_programs().items():
            program = parse_program(text)
            decided.clear()
            if outcome(check_greedy_soundness, program) != outcome(per_mask_check, program):
                differ.append(name)
            if decided:
                paths["key-local" if decided[0] else "per-mask"] += 1
    finally:
        checker._key_local_report = key_local
    return differ, paths


@pytest.mark.parametrize("seed", ["0", "1"])
def test_key_local_reports_are_the_per_mask_loops(seed):
    here = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(here), os.environ.get("PYTHONPATH", "")])
    script = "import json, test_key_local; print(json.dumps(test_key_local.guard()))"
    proc = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    differ, paths = json.loads(proc.stdout)
    assert differ == []
    # both paths run, so a silent hand-over would show here as well
    assert paths["key-local"] >= 30 and paths["per-mask"] >= 10, paths


# --- the fast path and the fallback, by their compares --------------------------

# check_small's 12-atom shape: the chain n0 -> n1 -> n2 -> n3 and a skip edge
SMALL_MIN = """:- table p(index,index,min).
p(X,Y,1) :- e(X,Y).
p(X,Y,D) :- p(X,Z,D1), e(Z,Y), D is D1+1.
e(n0,n1). e(n0,n2). e(n1,n2). e(n2,n3).
"""

# two strata whose universe holds 8 atoms, converging at fuel 5
STRATA_PAST_FUEL = """:- table p(index,min).
p(k,1). p(k,2). p(k,3). p(k,4). p(k,5).
q(a) :- p(k,1). q(b) :- p(k,1). q(c) :- p(k,1). q(d) :- p(k,2).
"""


def compares(monkeypatch, text, fuel=FUEL):
    """(the report, or the error raised; the masks `_compare` saw, in
    order; whether the key-local pass decided the check)."""
    masks, decided = [], []
    compare, key_local = checker._compare, checker._key_local_report

    def recording(x, *args):
        masks.append(x)
        return compare(x, *args)

    def spy(*args):
        report = key_local(*args)
        decided.append(report is not None)
        return report

    monkeypatch.setattr(checker, "_compare", recording)
    monkeypatch.setattr(checker, "_key_local_report", spy)
    try:
        report = check_greedy_soundness(parse_program(text), CheckStrategy("exhaustive"), fuel)
    except LatlogError as exc:
        report = exc
    return report, masks, decided == [True]


def test_a_check_small_program_compares_at_most_30_subsets(monkeypatch):
    report, masks, key_local = compares(monkeypatch, SMALL_MIN)
    assert (report.verdict, len(report.universe.atoms), report.tested) == (
        NO_VIOLATION, 12, 4096)
    assert key_local
    assert len(masks) <= 30
    assert masks == sorted(set(masks))


@pytest.mark.parametrize("text,fuel", [
    (":- table p(index,all).\np(k,a). p(k,b). p(j,c).\n", FUEL),
    (":- table p(index,po(better/2)).\nbetter(a,c). better(b,c).\np(k,a). p(k,b). p(k,c).\n",
     FUEL),
    (small_dag_program("all", 2), FUEL),
    # p(k,a) and p(k,[a]) hold the same value, {a}
    (":- table p(index,all).\np(k,a). p(k,[a]).\nq(X) :- p(k,X).\n", FUEL),
    (ARITH_ERROR, FUEL),
    (STRATA_PAST_FUEL, 5),
], ids=["all", "po", "dag-all", "all-one-value", "arith-error", "fuel-below-universe"])
def test_the_per_mask_loop_still_decides_where_key_local_may_differ(monkeypatch, text, fuel):
    report, masks, key_local = compares(monkeypatch, text, fuel)
    assert not key_local
    assert masks == list(range(len(masks)))  # every mask, in order
    if isinstance(report, LatlogError):  # raised by the last mask compared
        assert masks
    else:
        assert report.universe.complete
        assert len(masks) == report.tested
