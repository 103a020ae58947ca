"""Per-layer spans and counts, recorded from outside the package.

`install` replaces latlog functions with timing wrappers under every
name a caller looks them up by (each module's global that is bound to
the function, and the class attribute for `_AtomIndex` methods), and
`uninstall` puts the originals back. Spans nest: each keeps its
inclusive time and its self time (inclusive minus the spans directly
inside it). Nothing here is imported by latlog and nothing in `src/`
changes.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []        # child time accumulated by each open span
        self._open = defaultdict(int)

    def timed(self, name, fn, count=None):
        """Wrap `fn` in a span. `count(args, result)` returns a list of
        (counter, amount) pairs recorded after each call."""
        stack, open_, inclusive, self_time, counts = (
            self._stack, self._open, self.inclusive, self.self_time, self.counts)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                open_[name] -= 1
                self_time[name] += elapsed - children
                if not open_[name]:
                    inclusive[name] += elapsed
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                for counter, amount in count(args, result):
                    counts[counter] += amount
            return result

        return wrapper

    def counted(self, counter, fn):
        """Wrap `fn` to count its calls, without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "latlog" or n.startswith("latlog."))]


class Patches:
    """The replacements made by `install`, undone by `uninstall`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, wrapper):
        """Rebind every latlog module global that names `original`."""
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap each layer of the loaded latlog package; see README.md for
    the layer each span belongs to."""
    checker, cli, greedy, lattice, parser, reference, stratify = (
        importlib.import_module(f"latlog.{name}") for name in
        ("checker", "cli", "greedy", "lattice", "parser", "reference", "stratify"))
    p = Patches()
    t = tracer

    p.everywhere(parser.parse_program, t.timed("parser.parse", parser.parse_program))
    p.everywhere(stratify.stratify, t.timed("stratify.stratify", stratify.stratify))

    # _AtomIndex: building calls add once per atom; both are one span name,
    # so self times add up to the layer's time without double counting.
    index = reference._AtomIndex
    p.set(index, "__init__", t.timed("reference.index", index.__init__))
    p.set(index, "add", t.timed("reference.index", index.add,
                                lambda a, r: (("reference.index_adds", 1),)))
    p.set(reference, "_fire_clause", t.timed("reference.fire", reference._fire_clause))
    p.everywhere(reference.immediate_step, t.timed(
        "reference.immediate_step", reference.immediate_step,
        lambda a, r: (("reference.derived_atoms", len(r)),)))
    p.set(reference, "_close_group", t.timed(
        "reference.close", reference._close_group,
        lambda a, r: (("reference.join_created", 0 if a[0].lattice.selective else len(r)),)))
    p.everywhere(reference.stratified_reference_semantics, t.timed(
        "reference.eval", reference.stratified_reference_semantics,
        lambda a, r: (("reference.steps", r.steps),)))

    p.everywhere(lattice.join_values, t.counted("lattice.join_calls", lattice.join_values))
    p.everywhere(lattice.aggregate_atoms, t.timed(
        "lattice.aggregate", lattice.aggregate_atoms,
        lambda a, r: (("lattice.aggregated_atoms", len(a[1])),)))
    p.everywhere(lattice.table_join, t.timed("lattice.table_join", lattice.table_join))
    p.everywhere(lattice.table_atoms, t.timed("lattice.table_atoms", lattice.table_atoms))

    p.everywhere(greedy.greedy_step, t.timed("greedy.step", greedy.greedy_step))
    greedy_eval = greedy.stratified_greedy_semantics
    p.everywhere(greedy_eval, t.timed(
        "greedy.eval", greedy_eval, lambda a, r: (("greedy.steps", r.steps),)))

    p.everywhere(checker.atom_universe, t.timed("checker.universe", checker.atom_universe))
    # the greedy run that the trace strategy replays: the checker's own
    # name for the (already wrapped) greedy evaluation
    p.set(checker, "stratified_greedy_semantics",
          t.timed("checker.trace_replay", checker.stratified_greedy_semantics))
    p.everywhere(checker.check_greedy_soundness, t.timed(
        "checker.check", checker.check_greedy_soundness,
        lambda a, r: (("checker.subsets_tested", r.tested),)))

    # what cli.main does around the engine or checker call is rendering
    for name in ("stratified_reference_semantics", "stratified_greedy_semantics",
                 "check_greedy_soundness"):
        p.set(cli, name, t.timed("cli.engine", getattr(cli, name)))
    return p


# Per-layer metrics, per traced round: (metric, "self" | "inclusive" |
# "count", span or counter name).
LAYER_METRICS = (
    ("parser.parse_s", "self", "parser.parse"),
    ("stratify.stratify_s", "self", "stratify.stratify"),
    ("reference.index_s", "self", "reference.index"),
    ("reference.index_adds", "count", "reference.index_adds"),
    ("reference.fire_s", "self", "reference.fire"),
    ("reference.immediate_step_s", "inclusive", "reference.immediate_step"),
    ("reference.derived_atoms", "count", "reference.derived_atoms"),
    ("reference.close_s", "self", "reference.close"),
    ("reference.join_created", "count", "reference.join_created"),
    ("reference.steps", "count", "reference.steps"),
    ("lattice.aggregate_s", "self", "lattice.aggregate"),
    ("lattice.aggregated_atoms", "count", "lattice.aggregated_atoms"),
    ("lattice.table_join_s", "self", "lattice.table_join"),
    ("lattice.table_atoms_s", "self", "lattice.table_atoms"),
    ("lattice.join_calls", "count", "lattice.join_calls"),
    ("greedy.step_s", "inclusive", "greedy.step"),
    ("greedy.steps", "count", "greedy.steps"),
    ("checker.universe_s", "inclusive", "checker.universe"),
    ("checker.subsets_tested", "count", "checker.subsets_tested"),
    ("checker.trace_replay_s", "inclusive", "checker.trace_replay"),
    ("cli.render_s", "self", "cli.main"),
)


def layer_metrics(tracer: Tracer, rounds):
    """{metric: (value per round, unit)}, plus the checker's cost per
    subset outside the universe and the replayed greedy run."""
    tables = {"self": tracer.self_time, "inclusive": tracer.inclusive,
              "count": tracer.counts}
    out = {name: (tables[kind][key] / rounds, "count" if kind == "count" else "s")
           for name, kind, key in LAYER_METRICS}
    incl, tested = tracer.inclusive, tracer.counts["checker.subsets_tested"]
    per_subset = incl["checker.check"] - incl["checker.universe"] - incl["checker.trace_replay"]
    out["checker.subset_ms"] = (1000 * per_subset / tested if tested else 0.0, "ms")
    return out
