"""Every artifact format used by the CLI: the JSON encoding of result
records, the quarter-labelled CSV layout of frames (``write_frame``) and the
two text-table primitives, ``sig6`` and ``format_table``. Which table shows
which columns, under which title and with which marks, is laid out in
``cli`` next to the CSV rows each table is printed from; no result record
formats itself.

One encoder, ``to_jsonable``, encodes any record by its fields, so a
record's field names are its artifact's keys. Only ``cli`` encodes; the
estimation modules import nothing from here.

Text tables print numbers at 6 significant digits; JSON and CSV artifacts
keep full precision.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .quarterly import QUARTER_COLUMN, Frame, QuarterIndex


def sig6(x: float) -> str:
    """Format at 6 significant digits, plain decimal where reasonable."""
    if x is None:
        return ""
    if not math.isfinite(x):
        return str(x)
    if x == 0:
        return "0"
    if 1e-4 <= abs(x) < 1e7:
        s = f"{x:.6g}"
    else:
        s = f"{x:.5e}"
    return s


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None) -> str:
    """Left-align the first column and right-align the rest under a dashed
    rule; every cell is shown as ``str`` gives it."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(cells, widths)))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def to_jsonable(value):
    """The JSON form of a result value: a quarter becomes its label, an
    array a nested list, a tuple or list a list, a dict is mapped item by
    item and any other dataclass becomes a dict of its fields."""
    if isinstance(value, QuarterIndex):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(c)) if isinstance(c, float) else c for c in row])
    return path


def write_frame(frame: Frame, path: str | Path) -> Path:
    """Write a frame as CSV, each row led by its quarter's label;
    load_frame(write_frame(f, path)) == f."""
    rows = ([str(q), *row] for q, row in zip(frame.quarters(), frame.values))
    return write_csv(path, [QUARTER_COLUMN, *frame.names], rows)
