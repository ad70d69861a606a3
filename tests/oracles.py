"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately independent of the package under test
and of numpy: plain Python floats, plain loops, ``math.log``. Slow and
obvious beats fast and clever for an oracle.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal

LN2 = math.log(2.0)
MONEY_GRID = Decimal("0.0001")


def entropy_nats(probs) -> float:
    """-sum p log p over the support, natural log."""
    total = 0.0
    for p in probs:
        if p < 0:
            raise ValueError(f"negative probability {p}")
        if p > 0:
            total -= p * math.log(p)
    return total


def entropy_bits(probs) -> float:
    return entropy_nats(probs) / LN2


def x_marginal(cells) -> list[float]:
    """Row sums of a joint table given as a list of rows."""
    return [sum(row) for row in cells]


def s_marginal(cells) -> list[float]:
    """Column sums of a joint table given as a list of rows."""
    return [sum(row[j] for row in cells) for j in range(len(cells[0]))]


def conditional_entropy_nats(cells) -> float:
    """H(S | X) for rows indexed by x and columns by s."""
    total = 0.0
    for row in cells:
        px = sum(row)
        if px == 0:
            continue
        for p in row:
            if p > 0:
                total += p * (math.log(px) - math.log(p))
    return total


def mi_nats(cells) -> float:
    """I(X;S) in the Kullback-Leibler form, cell by cell."""
    px = x_marginal(cells)
    ps = s_marginal(cells)
    total = 0.0
    for i, row in enumerate(cells):
        for j, p in enumerate(row):
            if p > 0:
                total += p * math.log(p / (px[i] * ps[j]))
    return total


def mi_bits(cells) -> float:
    return mi_nats(cells) / LN2


def collapse_columns(cells, groups) -> list[list[float]]:
    """Merge columns; ``groups`` lists the column indices of each merged
    column. Used to project a joint table onto an attribute subset."""
    return [[sum(row[j] for j in group) for group in groups] for row in cells]


def gaussian_mi_nats(rho: float) -> float:
    """Mutual information of a bivariate normal with correlation rho."""
    return -0.5 * math.log(1.0 - rho * rho)


def gaussian_kernel_density(train, h: float, point: float) -> float:
    """Kernel density estimate at one point, the textbook sum."""
    total = 0.0
    for t in train:
        z = (point - t) / h
        total += math.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
    return total / len(train)


def silverman_h(values) -> float:
    """1.06 * sample standard deviation (ddof=1) * n^(-1/5)."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.06 * math.sqrt(var) * n ** (-0.2)


def trapezoid(xs, ys) -> float:
    """Trapezoid quadrature over an ordered grid."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        total += 0.5 * (y0 + y1) * (x1 - x0)
    return total


def linear_price(production_cost: Decimal, rate: float, nats: float) -> Decimal:
    """c_p + rate * leakage, each float by its shortest repr, unrounded."""
    return production_cost + Decimal(repr(rate)) * Decimal(repr(nats))


def ledger_surcharge(rate: float, leakages) -> Decimal:
    """The sum of per-event surcharges, each rate * leakage rounded half-even
    onto the four-decimal money grid."""
    total = Decimal("0")
    for nats in leakages:
        total += (Decimal(repr(rate)) * Decimal(repr(nats))).quantize(MONEY_GRID, ROUND_HALF_EVEN)
    return total


# Worked tables kept verbatim in one place so every test file agrees on
# the inputs. Rows are observable levels, columns protected labels.

SINGLE_TABLE = [
    [0.30, 0.10],
    [0.20, 0.40],
]
SINGLE_X = ("morning", "evening")
SINGLE_S = ("male", "female")

INTERSECT_TABLE = [
    [0.25, 0.05, 0.05, 0.05],
    [0.15, 0.05, 0.25, 0.15],
]
INTERSECT_X = ("morning", "evening")
INTERSECT_S = ("male+abled", "male+disabled", "female+abled", "female+disabled")

# column groups projecting INTERSECT_TABLE onto single attributes
SEX_GROUPS = [(0, 1), (2, 3)]
DISABILITY_GROUPS = [(0, 2), (1, 3)]


# Sample ingestion, row by row, as the library read and checked samples
# before it stored them column by column. A column is described as
# ``(name, levels, lower, upper)``: ``levels`` is a tuple of strings for a
# categorical column and None for a continuous one with closed bounds.


class Rejected(Exception):
    """A rejection by the reference reader; ``kind`` is "parse" or "validation"."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def check_sample_rows(columns, rows, where: str = "") -> tuple:
    """Check every value row by row in column order and return the rows
    as tuples; the first bad value is rejected by its row index."""
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise Rejected("validation", "sample set must contain at least one row")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise Rejected("validation", f"row {i}: expected {len(columns)} values, got {len(row)}")
        for (name, levels, lower, upper), value in zip(columns, row):
            at = f"{where}row {i}, attribute {name!r}"
            if levels is not None:
                if value not in levels:
                    raise Rejected(
                        "validation",
                        f"{at}: value {value!r} is not a declared level {list(levels)}",
                    )
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise Rejected("validation", f"{at}: expected a number, got {value!r}")
            elif not math.isfinite(float(value)):
                raise Rejected("validation", f"{at}: value must be finite, got {value!r}")
            elif not lower <= float(value) <= upper:
                raise Rejected(
                    "validation",
                    f"{at}: value {float(value)} outside bounds [{lower}, {upper}]",
                )
    return rows


def _nonblank_rows(path):
    """``(line number, cells)`` of each row with a non-blank cell, as read."""
    import csv

    width = None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if not any(cell.strip() for cell in cells):
                continue
            width = width or len(cells)
            if len(cells) != width:
                raise Rejected(
                    "parse", f"{path}:{reader.line_num}: expected {width} cells, got {len(cells)}"
                )
            yield reader.line_num, cells


def read_sample_rows(path, columns) -> tuple:
    """Read a sample file in one pass: bind the header to the columns by
    name, parse each row's cells as the row is read, then check the rows."""
    numbered = _nonblank_rows(path)
    _, header = next(numbered, (None, None))
    if header is None:
        raise Rejected("parse", f"{path}: empty sample file")
    header = [h.strip() for h in header]
    names = [column[0] for column in columns]
    if len(set(header)) != len(header):
        raise Rejected("validation", f"{path}: duplicate column in header")
    for h in header:
        if h not in names:
            raise Rejected("validation", f"{path}: unknown column {h!r}")
    for name in names:
        if name not in header:
            raise Rejected("validation", f"{path}: missing column {name!r}")
    rows = []
    for lineno, cells in numbered:
        row = []
        for name, levels, _, _ in columns:
            cell = cells[header.index(name)].strip()
            if levels is not None:
                row.append(cell)
                continue
            try:
                row.append(float(cell))
            except ValueError:
                raise Rejected(
                    "parse",
                    f"{path}:{lineno}: non-numeric value {cell!r} for attribute {name!r}",
                ) from None
        rows.append(tuple(row))
    if not rows:
        raise Rejected("parse", f"{path}: sample file has a header but no data rows")
    return check_sample_rows(columns, rows, f"{path}: ")


def joint_counts(rows) -> dict:
    """How often each (observable, protected...) combination occurs, with
    the observable taken from the last value of each row."""
    counts: dict = {}
    for row in rows:
        key = (row[-1], *row[:-1])
        counts[key] = counts.get(key, 0) + 1
    return counts
