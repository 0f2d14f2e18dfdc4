"""Deterministic text rendering for analysis outputs.

Floats are rendered with 12 significant digits everywhere an analysis
artifact is written, so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Iterable, Sequence

_INDENT = 2  # spaces per JSON nesting level


def fmt(x: float) -> str:
    """12 significant digit rendering of a float."""
    return format(float(x), ".12g")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a header row and the rows after it, newline terminated
    lines, quoted as the csv module quotes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(obj: Any, out: list[str], level: int) -> None:
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _write(item, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(inner + json.dumps(str(key)) + ": ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")


def render_json(obj: Any) -> str:
    """JSON text with floats at 12 significant digits, newline terminated."""
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out) + "\n"
