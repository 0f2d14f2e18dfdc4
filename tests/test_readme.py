"""The README's library quick start runs as printed and gives the numbers
its comments state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated(block: str, expression: str):
    """The literal a comment gives for a line holding only expression: the
    comment on that line up to any colon, or else the next line's."""
    lines = block.splitlines()
    for i, line in enumerate(lines):
        code, _, comment = line.partition("#")
        if code.strip() == expression:
            comment = comment.strip() or lines[i + 1].strip().lstrip("#")
            return ast.literal_eval(comment.split(":")[0].strip())
    raise AssertionError(f"the quick start has no line {expression!r}")


def test_library_quick_start_gives_its_numbers():
    block = quick_start()
    namespace: dict = {}
    exec(block, namespace)

    def got(expression: str):
        return eval(expression, namespace)

    value, failure = "result.value", "result.failure_probability"
    assert got(value) == pytest.approx(stated(block, value), abs=1e-12)
    assert got(failure) == stated(block, failure) == 0.0
    assert stated(block, value) == 10.6

    rows = "[(row.edge_id, row.cbc) for row in table.rows]"
    want = stated(block, rows)
    assert want == [("a", 0.0), ("b", 0.0), ("d", 2.0)]
    assert [edge for edge, _ in got(rows)] == [edge for edge, _ in want]
    assert [cbc for _, cbc in got(rows)] == pytest.approx(
        [cbc for _, cbc in want], abs=1e-12
    )

    # "~10.6, within 3 standard errors"
    dist = namespace["dist"]
    assert abs(dist.mean - 10.6) <= 3 * dist.stderr
