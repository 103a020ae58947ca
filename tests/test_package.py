"""The names `import latlog` gives, the README that documents them, and
the names each module imports."""

import ast
import pathlib
import re

import latlog

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
