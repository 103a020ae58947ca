"""The names the benchmark's tracer (`bench/tracer.py`) binds.

The tracer wraps latlog functions by module global and class attribute
at install time, so renaming or removing one of them breaks only
traced benchmark runs. This test installs it and takes it out again.
"""

import pathlib
import sys

import latlog.cli  # noqa: F401 (loaded before the snapshot; the tracer wraps it)
import latlog.reference

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# (module, global) pairs the tracer must rebind while installed
HOOKED = [
    ("latlog.checker", "atom_universe"),
    ("latlog.checker", "check_greedy_soundness"),
    ("latlog.checker", "stratified_greedy_semantics"),
    ("latlog.cli", "check_greedy_soundness"),
    ("latlog.cli", "stratified_greedy_semantics"),
    ("latlog.cli", "stratified_reference_semantics"),
    ("latlog.greedy", "greedy_step"),
    ("latlog.lattice", "aggregate_atoms"),
    ("latlog.lattice", "join_values"),
    ("latlog.lattice", "table_atoms"),
    ("latlog.lattice", "table_join"),
    ("latlog.parser", "parse_program"),
    ("latlog.reference", "_close_group"),
    ("latlog.reference", "_fire_clause"),
    ("latlog.reference", "immediate_step"),
    ("latlog.reference", "stratified_reference_semantics"),
    ("latlog.stratify", "stratify"),
]


def _bindings():
    """Every latlog module global, and `_AtomIndex`'s own attributes."""
    out = {(name, attr): value
           for name, module in sys.modules.items()
           if module is not None and (name == "latlog" or name.startswith("latlog."))
           for attr, value in vars(module).items()}
    for attr, value in vars(latlog.reference._AtomIndex).items():
        out[("latlog.reference._AtomIndex", attr)] = value
    return out


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    before = _bindings()
    patches = tracer.install(tracer.Tracer())
    try:
        during = _bindings()
    finally:
        patches.uninstall()
    after = _bindings()

    rebound = {k for k in before if during[k] is not before[k]}
    assert set(HOOKED) <= rebound
    assert {("latlog.reference._AtomIndex", "__init__"),
            ("latlog.reference._AtomIndex", "add")} <= rebound
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
