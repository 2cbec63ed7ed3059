"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "recurfit"


def unused_imports(source: str) -> list:
    """Names that `source` imports and never reads, sorted; the
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom json import dumps, loads\n"
              "os.path.join(loads('1'))\n")
    assert unused_imports(source) == ["dumps", "np"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
