"""Quarterly panel data model: quarter arithmetic, CSV ingestion,
differencing and lagging, summary statistics, the quarterly output proxy,
and location quotients. ``formatting.write_frame`` writes a frame back to CSV.

Frames are immutable after construction and every operation here is a pure
function, so values can be shared freely between concurrent readers.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyInputError,
    InsufficientDataError,
    MissingColumnError,
    NonNumericCellError,
    QuarterGapError,
    QuarterParseError,
)
from .numerics import _float_array

# Column order fixed at ingestion; it also fixes the Cholesky ordering used
# by orthogonalized impulse responses downstream.
DEFAULT_SCHEMA: tuple[str, ...] = (
    "output",
    "price",
    "employment",
    "wages",
    "exchange_rate",
    "num_firms",
)

QUARTER_COLUMN = "quarter"

_QUARTER_RE = re.compile(r"^(\d{1,4})Q([1-4])$")


@dataclass(frozen=True, order=True)
class QuarterIndex:
    """A calendar quarter, ordered lexicographically on (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if self.quarter not in (1, 2, 3, 4):
            raise QuarterParseError(f"quarter must be in 1..4, got {self.quarter}")

    @property
    def ordinal(self) -> int:
        return self.year * 4 + (self.quarter - 1)

    def shift(self, n: int) -> "QuarterIndex":
        """Quarter n steps ahead (or behind for negative n)."""
        o = self.ordinal + n
        return QuarterIndex(o // 4, o % 4 + 1)

    def next(self) -> "QuarterIndex":
        return self.shift(1)

    def distance(self, other: "QuarterIndex") -> int:
        """Signed number of quarters from self to other."""
        return other.ordinal - self.ordinal

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


def parse_quarter(text: str) -> QuarterIndex:
    """Decode a "YYYYQn" label; round-trips through str()."""
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise QuarterParseError(f"not a quarter label (expected YYYYQn): {text!r}")
    return QuarterIndex(int(m.group(1)), int(m.group(2)))


def _as_readonly(values) -> np.ndarray:
    """A read-only float copy of ``values``: the one conversion of the
    values a ``Series`` or ``Frame`` is built from."""
    out = np.array(_float_array(values, NonNumericCellError, "values"))
    if not np.all(np.isfinite(out)):
        raise NonNumericCellError("values must be finite (no NaN/inf)")
    out.setflags(write=False)
    return out


class _Quarterly:
    """Content equality and quarter arithmetic shared by Series and Frame.

    Two values of the same class are equal when their start, label(s),
    shape and every value's bytes agree. A Series never equals a Frame.
    Neither is hashable.
    """

    def _key(self) -> tuple:
        labels = (v for k, v in vars(self).items() if k != "values")
        return (*labels, self.values.shape, self.values.tobytes())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def end(self) -> QuarterIndex:
        return self.start.shift(len(self) - 1)

    def quarters(self) -> list[QuarterIndex]:
        return [self.start.shift(i) for i in range(len(self))]


@dataclass(frozen=True, eq=False)
class Series(_Quarterly):
    """A named quarterly series with no missing values."""

    name: str
    start: QuarterIndex
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_1d(_as_readonly(self.values))
        if vals.ndim != 1 or vals.size < 1:
            raise EmptyInputError(f"series {self.name!r} must hold at least one value")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class Frame(_Quarterly):
    """An aligned panel of quarterly series; column order is significant."""

    start: QuarterIndex
    names: tuple[str, ...]
    values: np.ndarray  # T x K, read-only

    def __post_init__(self) -> None:
        vals = _as_readonly(self.values)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise EmptyInputError("frame must be a nonempty T x K panel")
        if len(self.names) != vals.shape[1]:
            raise MissingColumnError(
                f"{len(self.names)} names for {vals.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            raise MissingColumnError("column names must be unique")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", vals)

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise MissingColumnError(f"no column named {name!r}")
        return self.values[:, self.names.index(name)]

    def series(self, name: str) -> Series:
        return Series(name, self.start, self.column(name))

    def select(self, names: Sequence[str]) -> "Frame":
        """New frame with the given columns in the given order."""
        idx = []
        for n in names:
            if n not in self.names:
                raise MissingColumnError(f"no column named {n!r}")
            idx.append(self.names.index(n))
        return Frame(self.start, tuple(names), self.values[:, idx])

    def drop(self, name: str) -> "Frame":
        return self.select([n for n in self.names if n != name])

    def head(self, n: int) -> "Frame":
        return Frame(self.start, self.names, self.values[:n])


def load_frame(path: str | Path, schema: Sequence[str] = DEFAULT_SCHEMA) -> Frame:
    """Read a quarterly CSV panel, reordering data columns to schema order.

    The first column must be the quarter label; quarters must be contiguous
    ascending. Each malformed input is rejected with an error naming the
    offending row or column.
    """
    source = str(Path(path))
    with open(source, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{source}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != QUARTER_COLUMN:
            raise MissingColumnError(
                f"{source}: first header column must be {QUARTER_COLUMN!r}, got {header[:1]!r}"
            )
        positions = {}
        for name in schema:
            if name not in header[1:]:
                raise MissingColumnError(f"{source}: missing column {name!r}")
            positions[name] = header.index(name)

        quarters: list[QuarterIndex] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            q = parse_quarter(row[0])
            if quarters and quarters[-1].next() != q:
                raise QuarterGapError(
                    f"{source}: row {lineno}: expected {quarters[-1].next()}, got {q}"
                )
            quarters.append(q)
            parsed = []
            for name in schema:
                if positions[name] >= len(row):
                    raise NonNumericCellError(f"{source}: row {lineno}, column {name!r}: missing cell")
                cell = row[positions[name]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericCellError(
                        f"{source}: row {lineno}, column {name!r}: non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise NonNumericCellError(
                        f"{source}: row {lineno}, column {name!r}: non-finite cell {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)

        if not rows:
            raise EmptyInputError(f"{source}: no data rows")
        return Frame(quarters[0], tuple(schema), rows)


def first_difference(frame: Frame) -> Frame:
    """x_t - x_{t-1} for every column; length shrinks by one quarter."""
    if len(frame) < 2:
        raise InsufficientDataError("first difference needs at least 2 rows")
    return Frame(frame.start.next(), frame.names, np.diff(frame.values, axis=0))


def _lag_blocks(values: np.ndarray, p: int) -> list[np.ndarray]:
    """The lag blocks X_{t-1} .. X_{t-p} of a T x K array, lag 1 first, as
    views of T - p rows each; p = 0 gives none.

    This is the one lag layout of every lagged design (VAR, VECM, VARX and
    ADF regressions; Lütkepohl 2005, §3.2 and §10.3): row i is aligned with
    values[p + i], and block j - 1 holds lag j, so its row i is
    values[p + i - j]. Designs splice the blocks after their constant in
    one ``np.hstack``.
    """
    t = values.shape[0]
    return [values[p - j : t - j] for j in range(1, p + 1)]


@dataclass(frozen=True)
class ColumnStats:
    name: str
    mean: float
    sd: float
    minimum: float
    maximum: float
    count: int


@dataclass(frozen=True)
class StatsReport:
    """Per-column summary statistics (sample sd, divisor n-1)."""

    start: QuarterIndex
    end: QuarterIndex
    columns: tuple[ColumnStats, ...]


def summary_stats(frame: Frame) -> StatsReport:
    """Mean, sample sd, min, max, and count for every column."""
    cols = []
    for j, name in enumerate(frame.names):
        v = frame.values[:, j]
        n = v.size
        sd = float(np.std(v, ddof=1)) if n > 1 else 0.0
        cols.append(
            ColumnStats(
                name=name,
                mean=float(np.mean(v)),
                sd=sd,
                minimum=float(np.min(v)),
                maximum=float(np.max(v)),
                count=int(n),
            )
        )
    return StatsReport(frame.start, frame.end, tuple(cols))


def proxy_quarterly_output(
    us_quarterly: Series,
    region_annual: Mapping[int, float],
    nation_annual: Mapping[int, float],
    name: str = "output",
) -> Series:
    """Scale a national quarterly series by the region's annual share.

    Each quarter is multiplied by region_annual[year] / nation_annual[year];
    the share is constant across the four quarters of a year. This is the
    paper's data-construction step, run once to build the output column
    before the panel CSV exists, so it is a library function only: every
    command reads the finished panel, and none takes annual inputs.
    """
    out = np.empty(len(us_quarterly))
    for i, q in enumerate(us_quarterly.quarters()):
        year = q.year
        if year not in region_annual or year not in nation_annual:
            raise DomainError(f"no annual value for year {year}")
        try:
            region = float(region_annual[year])
            nation = float(nation_annual[year])
        except (TypeError, ValueError):
            raise DomainError(f"annual values must be real numbers (year {year})") from None
        if region <= 0 or nation <= 0:
            raise DomainError(f"annual values must be positive (year {year})")
        out[i] = us_quarterly.values[i] * (region / nation)
    return Series(name, us_quarterly.start, out)


def location_quotient(
    industry_region: float,
    employment_region: float,
    industry_nation: float,
    employment_nation: float,
) -> float:
    """Regional industry employment share over the national share.

    Values above 1 mark regional specialization in the industry. Every
    input must be finite and positive, or ``DomainError`` is raised.
    """
    inputs = (industry_region, employment_region, industry_nation, employment_nation)
    try:
        if not all(map(math.isfinite, inputs)):
            raise DomainError(f"location quotient needs finite inputs, got {inputs}")
        if any(x <= 0 for x in inputs):
            raise DomainError(f"location quotient needs positive inputs, got {inputs}")
    except TypeError:
        raise DomainError(f"location quotient needs real inputs, got {inputs}") from None
    return (industry_region / employment_region) / (industry_nation / employment_nation)
