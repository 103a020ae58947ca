"""Workload programs and the oracles that check latlog's answers on them.

Everything here is plain Python and never imports latlog: the expected
answers come from computations of the benchmark's own (BFS, DAG dynamic
programming, a direct evaluation of the threshold program), so a fault
in the package cannot make its own output look right.

A workload is a list of operations. Each operation is one `latlog`
command line plus a checker that takes the exit code and the captured
standard output and returns None when they are right, or a message.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

FUEL = "1000000"

NO_VIOLATION = "no-violation-found"
VIOLATION = "violation"


@dataclass(frozen=True)
class Op:
    kind: str                       # "greedy" | "reference" | "check"
    file: str                       # program file name inside the work dir
    args: tuple                     # command-line arguments after the file
    verify: Callable[[int, str], str | None]

    def argv(self, workdir):
        command = "check" if self.kind == "check" else "eval"
        engine = () if self.kind == "check" else ("--engine", self.kind)
        return [command, f"{workdir}/{self.file}", *engine, *self.args]


# --- path programs ------------------------------------------------------------


@dataclass(frozen=True)
class PathProgram:
    """A DAG over nodes n0..n{size-1} (edges go from lower to higher
    index) and the linear rule that extends a path by one edge, under
    `min` (shortest hop count) or under the product of `min` and `max`
    (shortest and longest hop count)."""

    size: int
    edges: tuple        # sorted (a, b) pairs with a < b
    lattice: str        # "min" | "minmax"

    def text(self):
        if self.lattice == "min":
            head = [":- table p(index,index,min).",
                    "p(X,Y,1) :- e(X,Y).",
                    "p(X,Y,D) :- p(X,Z,D1), e(Z,Y), D is D1+1."]
        else:
            head = [":- table p(index,index,min,max).",
                    "p(X,Y,1,1) :- e(X,Y).",
                    "p(X,Y,A,B) :- p(X,Z,A1,B1), e(Z,Y), A is A1+1, B is B1+1."]
        facts = [f"e(n{a},n{b})." for a, b in self.edges]
        return "\n".join(head + facts) + "\n"

    def successors(self):
        succ = {v: [] for v in range(self.size)}
        for a, b in self.edges:
            succ[a].append(b)
        return succ

    def expected_answers(self):
        """The answer lines `latlog eval` must print, as a sorted list."""
        lines = [f"e(n{a},n{b})" for a, b in self.edges]
        if self.lattice == "min":
            for (x, y), d in hop_distances(self.size, self.successors()).items():
                lines.append(f"p(n{x},n{y},{d})")
        else:
            for (x, y), (lo, hi) in path_length_bounds(self.size, self.edges).items():
                lines.append(f"p(n{x},n{y},{lo},{hi})")
        return sorted(lines)

    def universe_size(self):
        """Atoms the reference fixpoint reaches: the edge facts plus one
        `p` atom per value of each (x, y) group, closed under the join."""
        succ = self.successors()
        total = len(self.edges)
        for x in range(self.size):
            groups = {y: set() for y in range(self.size)}
            for y in succ[x]:
                groups[y].add((1, 1))
            for z in range(x + 1, self.size):
                if self.lattice == "minmax":
                    groups[z] = _minmax_closure(groups[z])
                total += len(groups[z])
                for y in succ[z]:
                    groups[y].update((a + 1, b + 1) for a, b in groups[z])
        return total


def hop_distances(size, succ):
    """All-pairs hop distance by breadth-first search from every node."""
    out = {}
    for x in range(size):
        dist = {x: 0}
        frontier = [x]
        while frontier:
            nxt = []
            for z in frontier:
                for y in succ[z]:
                    if y not in dist:
                        dist[y] = dist[z] + 1
                        nxt.append(y)
            frontier = nxt
        for y, d in dist.items():
            if y != x:
                out[(x, y)] = d
    return out


def path_length_bounds(size, edges):
    """Shortest and longest path length of every connected pair, by
    dynamic programming over the nodes in topological (index) order."""
    preds = {v: [] for v in range(size)}
    for a, b in edges:
        preds[b].append(a)
    out = {}
    for x in range(size):
        bounds = {x: (0, 0)}
        for y in range(x + 1, size):
            reach = [bounds[z] for z in preds[y] if z in bounds]
            if reach:
                bounds[y] = (min(lo for lo, _ in reach) + 1,
                             max(hi for _, hi in reach) + 1)
                out[(x, y)] = bounds[y]
    return out


def _minmax_closure(values):
    """Close a set of (lo, hi) pairs under componentwise (min, max)."""
    closed = set(values)
    frontier = list(closed)
    while frontier:
        fresh = []
        for u in frontier:
            for v in list(closed):
                j = (min(u[0], v[0]), max(u[1], v[1]))
                if j not in closed:
                    closed.add(j)
                    fresh.append(j)
        frontier = fresh
    return closed


def random_dag(rng, size, diameter, lattice="min"):
    """A chain n0 -> ... -> n{size-1} plus, from every node that has
    room for one, one edge skipping ahead by 2..REACH nodes, drawn
    again until the longest shortest path has `diameter` edges."""
    while True:
        edges = {(v, v + 1) for v in range(size - 1)}
        for v in range(size - 2):
            edges.add((v, rng.randint(v + 2, min(size - 1, v + REACH))))
        prog = PathProgram(size, tuple(sorted(edges)), lattice)
        if max(hop_distances(size, prog.successors()).values()) == diameter:
            return prog


def small_dag(rng, atoms):
    """The chain n0 -> n1 -> n2 -> n3 plus a random set of skip edges,
    drawn again until the reference universe holds exactly `atoms` atoms."""
    skips = [(0, 2), (0, 3), (1, 3)]
    while True:
        edges = {(0, 1), (1, 2), (2, 3)} | set(rng.sample(skips, rng.randint(0, 3)))
        prog = PathProgram(4, tuple(sorted(edges)), "min")
        if prog.universe_size() == atoms:
            return prog


# --- the threshold program -----------------------------------------------


_COMPARE = {"=": lambda x, k: x == k, "<": lambda x, k: x < k,
            ">=": lambda x, k: x >= k}


@dataclass(frozen=True)
class ThresholdProgram:
    """`:- table p(max).` over integer facts and rules of the form
    `p(H) :- p(X), X op K.` The shape of the paper's unsound example:
    a value below a threshold derives a larger value than the values
    above it do, so greedy evaluation, which keeps only the largest
    value seen, can lose it."""

    facts: tuple        # ints
    rules: tuple        # (head, op, threshold)

    def text(self):
        lines = [":- table p(max).", " ".join(f"p({v})." for v in self.facts)]
        lines += [f"p({h}) :- p(X), X {op} {k}." for h, op, k in self.rules]
        return "\n".join(lines) + "\n"

    def step(self, values):
        """The immediate consequences of a set of p-values."""
        out = set(self.facts)
        for h, op, k in self.rules:
            if any(_COMPARE[op](x, k) for x in values):
                out.add(h)
        return out

    def universe(self):
        values = set()
        while True:
            nxt = values | self.step(values)
            if nxt == values:
                return values
            values = nxt

    def reference_answer(self):
        return max(self.universe())

    def greedy_answer(self):
        """Keep only the largest value: best := max(best, step({best}))."""
        best = max(self.step(set()))
        while True:
            nxt = max(best, *self.step({best}))
            if nxt == best:
                return best
            best = nxt

    def sides(self, witness):
        """Both sides of the soundness condition on a set of values:
        max of the step of the set, and max of the step of its max."""
        lhs = max(self.step(witness), default=None)
        collapsed = {max(witness)} if witness else set()
        rhs = max(self.step(collapsed), default=None)
        return lhs, rhs

    def first_violation(self):
        """The first subset, in the order of the bit masks over the
        sorted universe, on which the two sides differ, and its rank."""
        pool = sorted(self.universe())
        for mask in range(1 << len(pool)):
            subset = {v for i, v in enumerate(pool) if mask >> i & 1}
            lhs, rhs = self.sides(subset)
            if lhs != rhs:
                return subset, mask + 1
        return None, 1 << len(pool)


def threshold_program(rng):
    a, b, c, d = sorted(rng.sample(range(0, 100), 4))
    return ThresholdProgram((a, b), ((c, ">=", b), (d, "<", b)))


# --- output checkers ---------------------------------------------------------


def check_answers(expected):
    def verify(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        got = sorted(out.splitlines())
        if got != expected:
            missing = sorted(set(expected) - set(got))[:3]
            extra = sorted(set(got) - set(expected))[:3]
            return (f"{len(got)} answer lines, expected {len(expected)}; "
                    f"missing {missing}, unexpected {extra}")
        return None
    return verify


def parse_check_report(out):
    """The `key: value` lines of a text `latlog check` report, plus the
    table rows under `lhs:` and `rhs:`."""
    fields, tables, current = {}, {}, None
    for line in out.splitlines():
        if line.startswith("  ") and current is not None:
            tables[current].append(line.strip())
            continue
        key, _, value = line.partition(":")
        value = value.strip()
        if not value and key in ("lhs", "rhs"):
            current = key
            tables[key] = []
        else:
            current = None
            fields[key] = value
    return fields, tables


def check_clean_report(universe, tested=None):
    """A clean verdict over a complete universe of the given size."""
    def verify(code, out):
        fields, _ = parse_check_report(out)
        if code != 0 or fields.get("verdict") != NO_VIOLATION:
            return f"exit code {code}, verdict {fields.get('verdict')}; expected 0, {NO_VIOLATION}"
        if fields.get("universe") != f"{universe} atoms, complete":
            return f"universe {fields.get('universe')!r}, expected {universe} atoms, complete"
        if tested is not None and fields.get("tested") != str(tested):
            return f"tested {fields.get('tested')}, expected {tested}"
        return None
    return verify


_P_INT = re.compile(r"p\((-?\d+)\)$")


def check_violation_report(prog: ThresholdProgram):
    witness, rank = prog.first_violation()
    universe = len(prog.universe())

    def verify(code, out):
        fields, tables = parse_check_report(out)
        if code != 1 or fields.get("verdict") != VIOLATION:
            return f"exit code {code}, verdict {fields.get('verdict')}; expected 1, {VIOLATION}"
        if fields.get("universe") != f"{universe} atoms, complete":
            return f"universe {fields.get('universe')!r}, expected {universe} atoms, complete"
        got = set()
        for item in fields.get("witness", "").split(", "):
            m = _P_INT.match(item)
            if m is None:
                return f"unreadable witness {fields.get('witness')!r}"
            got.add(int(m.group(1)))
        if got != witness or fields.get("tested") != str(rank):
            return (f"witness {sorted(got)} after {fields.get('tested')} subsets, "
                    f"expected {sorted(witness)} after {rank}")
        lhs, rhs = prog.sides(got)
        if tables.get("lhs") != [f"p -> {lhs}"] or tables.get("rhs") != [f"p -> {rhs}"]:
            return f"sides {tables.get('lhs')} / {tables.get('rhs')}, expected {lhs} / {rhs}"
        return None
    return verify


# --- the workloads -----------------------------------------------------------

WORKLOADS = ("paths_min", "paths_minmax", "check_small")

# (program count, DAG size, DAG diameter, what runs on each program).
# Each diameter is the most common one for its size; fixing it fixes
# greedy's step count, so one DAG costs about what another does.
_PATH_WORKLOADS = {
    "paths_min": ("min", [(8, 20, 7, ("greedy", "reference")), (4, 12, 4, ("trace",))]),
    "paths_minmax": ("minmax", [(24, 12, 4, ("greedy", "reference")),
                                (4, 8, 3, ("trace",))]),
}
CHECK_SMALL_ATOMS = (2, 12)
CHECK_SMALL_TRACE = (4, 12, 4)
REACH = 4


def generate(workload, seed):
    """The workload's programs for a seed: {file name: (program, ops)},
    where ops names what runs on the program in each round."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in _PATH_WORKLOADS:
        lattice, groups = _PATH_WORKLOADS[workload]
        return {f"dag{size}_{i}.pl": (random_dag(rng, size, diameter, lattice), ops)
                for count, size, diameter, ops in groups for i in range(count)}
    if workload == "check_small":
        count, atoms = CHECK_SMALL_ATOMS
        progs = {f"small{i}.pl": (small_dag(rng, atoms), ("greedy", "reference", "exhaustive"))
                 for i in range(count)}
        count, size, diameter = CHECK_SMALL_TRACE
        progs.update((f"dag{size}_{i}.pl", (random_dag(rng, size, diameter),
                                            ("greedy", "reference", "trace")))
                     for i in range(count))
        progs["threshold.pl"] = (threshold_program(rng), ("greedy", "reference", "exhaustive"))
        return progs
    raise ValueError(f"unknown workload {workload!r}")


def _op(name, prog, what):
    """One operation on a program, with the oracle for its output."""
    if what in ("greedy", "reference"):
        if isinstance(prog, ThresholdProgram):
            answer = prog.greedy_answer() if what == "greedy" else prog.reference_answer()
            return Op(what, name, (), check_answers([f"p({answer})"]))
        return Op(what, name, ("--fuel", FUEL), check_answers(prog.expected_answers()))
    if isinstance(prog, ThresholdProgram):
        return Op("check", name, (), check_violation_report(prog))
    size = prog.universe_size()
    if what == "exhaustive":
        return Op("check", name, (), check_clean_report(size, tested=2 ** size))
    return Op("check", name, ("--strategy", "trace", "--fuel", FUEL),
              check_clean_report(size))


def operations(progs):
    """One round of the workload: every operation, each with its oracle."""
    return [_op(name, prog, what)
            for name, (prog, whats) in progs.items() for what in whats]


def write_programs(progs, workdir):
    for name, (prog, _) in progs.items():
        with open(f"{workdir}/{name}", "w", encoding="utf-8") as handle:
            handle.write(prog.text())
