"""The names `import latlog` gives, and the README that documents them."""

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
