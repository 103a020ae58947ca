"""The names `import latlog` gives, the README that documents them, the
names each module imports, and the records the modules define."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import latlog
from latlog import checker, parser, program, reference, stratify

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_documents_every_exported_name():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library use"):text.index("## Development")]
    for name in latlog.__all__:
        assert re.search(rf"\b{name}\b", library), name
        assert getattr(latlog, name) is not None


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names to re-export them, which is their use
    unused = []
    for path in sorted(pathlib.Path(latlog.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(imported.items()) if name not in used]
    assert not unused


# every record, with its fields in order
RECORDS = [
    (program.Var, "name"),
    (program.Call, "pred args"),
    (program.Builtin, "op args"),
    (program.Clause, "head body"),
    (program.Mode, "kind relation"),
    (program.Program, "clauses directives join_relations order_relations"),
    (stratify.Stratification, "strata edges"),
    (reference.FixpointResult, "converged value steps"),
    (reference.StratumResult, "preds atoms steps converged"),
    (reference.EvalOutcome, "converged answers table steps strata diverged_stratum"),
    (checker.CheckStrategy, "kind max_atoms samples seed"),
    (checker.UniverseResult, "complete atoms"),
    (checker.CheckReport, "verdict condition universe strategy tested witness lhs rhs reason"),
    (checker.DiffReport, "reference greedy equal per_key_diffs"),
    (parser._Tok, "kind value at"),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_record_keeps_its_fields_and_refuses_assignment(record, fields):
    assert record._fields == tuple(fields.split())
    r = record(*range(len(record._fields)))
    for i, name in enumerate(record._fields):
        assert getattr(r, name) == i
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        r.extra = None  # no record carries a __dict__
    assert type(r) is not tuple


def test_record_defaults():
    assert latlog.CheckStrategy("trace") == latlog.CheckStrategy("trace", 16, 1000, 42)
    assert program.Mode("min").relation is None
    assert reference.EvalOutcome(True, frozenset(), {}, 0, ()).diverged_stratum is None
    report = checker.CheckReport("violation", checker.CONDITION, None, None, 0)
    assert (report.witness, report.lhs, report.rhs, report.reason) == (None,) * 4


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # each costs milliseconds of every command's start-up; -S keeps site
    # packages, which may import them, out of the interpreter
    src = pathlib.Path(latlog.__file__).resolve().parent.parent
    code = ("import latlog.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
