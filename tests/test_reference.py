"""tests/reference.py stays apart from the library it checks."""

import ast
from pathlib import Path

import reference


def library_imports(source):
    """(line, module) of every import of lieideal, and of every relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [(node.lineno, m) for m in names if m.startswith(".") or m.split(".")[0] == "lieideal"]
    return found


def test_reference_imports_nothing_from_lieideal():
    assert library_imports(Path(reference.__file__).read_text(encoding="utf-8")) == []
    # the scan sees each form of import
    source = "import fractions\nimport lieideal.exactlin as x\nfrom lieideal import liealg\nfrom . import y\n"
    assert library_imports(source) == [(2, "lieideal.exactlin"), (3, "lieideal"), (4, ".")]
