"""Every imported name in the package, the tests and the scripts is read.

Each module is parsed with ast. A name an import statement binds must be
read somewhere in its module, as a name or the base of an attribute, or
be listed in the module's __all__; __future__ imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/ctproute", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def unread_imports(source: str) -> list[str]:
    """The names source's imports bind that it never reads, by line."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional, Sequence\n"
        "__all__ = ['Sequence']\n"
        "print(os.sep)\n"
    )
    assert unread_imports(source) == ["line 2: osp", "line 3: Optional"]
