"""Dellac configurations, their inversion-length statistic, and its
generating polynomial.

A configuration on an n-column, 2n-row grid marks two boxes per column and
one per row, with every marked box (l, j) satisfying l <= j <= n + l.  The
number of configurations is h(n); the generating polynomial of the length
statistic is the q-analogue h_n(q).  The walk yields plain row-pair tuples
and nothing else; the polynomial comes from a transfer sweep of the same
layers over used-row masks, which visits no configuration.

DellacConfig validates a configuration where one is built, in one pass: each
column's pair must lie in the band _row_window gives at that moment, and the
used rows, kept as a bitmask, must number 2n at the end.  Only a rejected
configuration is walked again box by box, for the message of its first
fault.  json_line writes the compact JSON line directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from . import limits
from .exactalg import ONE, ZERO, IntPoly
from .walk import layered_sweep, layered_walk


@dataclass(frozen=True)
class DellacConfig:
    """Marked boxes, stored per column as the ordered row pair (low, high)."""

    n: int
    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # one pass: each pair inside its column's band, then no row used twice
        n, columns = self.n, self.columns
        used = 0
        try:
            for col, (lo, hi) in enumerate(columns, start=1):
                win_lo, win_hi = _row_window(n, col)
                if not win_lo <= lo < hi <= win_hi:
                    break
                used |= 1 << lo | 1 << hi
            else:
                if len(columns) == n and used.bit_count() == 2 * n:
                    return
        except (TypeError, ValueError):
            pass  # a malformed column: the box loop below raises or names it
        raise ValueError(_first_fault(n, columns))

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All marked boxes as (column, row) pairs, column-major order."""
        for col, pair in enumerate(self.columns, start=1):
            for j in pair:
                yield (col, j)

    def render(self) -> str:
        return "\n".join(f"{col}: {lo} {hi}" for col, (lo, hi) in enumerate(self.columns, start=1))

    def json_line(self) -> str:
        """The compact JSON object {"n", "columns"}, as json.dumps with
        separators (",", ":") writes it."""
        columns = ",".join([f"[{lo},{hi}]" for lo, hi in self.columns])
        return f'{{"n":{self.n},"columns":[{columns}]}}'


def _first_fault(n: int, columns) -> str:
    """The message for the first fault of an invalid configuration, found box
    by box: the column count, then per column the row order, and per row
    the band and a repeat."""
    if len(columns) != n:
        return f"expected {n} columns, got {len(columns)}"
    seen: set[int] = set()
    for col, (lo, hi) in enumerate(columns, start=1):
        if not lo < hi:
            return f"column {col} rows must be strictly increasing"
        win_lo, win_hi = _row_window(n, col)
        for j in (lo, hi):
            if not win_lo <= j <= win_hi:
                return f"box ({col}, {j}) outside the allowed band"
            if j in seen:
                return f"row {j} marked twice"
            seen.add(j)
    return "every row must contain exactly one marked box"


def _row_window(n: int, col: int) -> tuple[int, int]:
    # inclusive band of rows a box in this column may occupy
    return col, n + col


def _column_pairs(n: int, col: int, used: int) -> Iterable[tuple[int, int]]:
    """Row pairs a < b that column col may mark next to the used-row mask,
    in lexicographic order.

    While row col is unused, only pairs with a <= col are offered: the bands
    of later columns start below row col, so any other branch would go dead.
    The band comes from _row_window at call time.
    """
    lo, hi = _row_window(n, col)
    free = [j for j in range(lo, min(hi, 2 * n) + 1) if not used >> j & 1]
    if used >> col & 1:
        return combinations(free, 2)
    return [(a, b) for i, a in enumerate(free) if a <= col for b in free[i + 1 :]]


def layers(n: int):
    """The walk behind iter_dellac, unchecked: (depth, root, choices) for n
    columns from the empty used-row mask, each column marking a pair from
    _column_pairs."""

    def choices(level: int, used: int):
        return ((p, used | 1 << p[0] | 1 << p[1]) for p in _column_pairs(n, level + 1, used))

    return n, 0, choices


def iter_dellac(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every configuration once as its columns tuple, in lexicographic
    order of the flattened row-pair sequence.

    A layered walk over the columns whose state is the used-row mask; it
    yields objects only (h_poly_dellac sums the same layers without a
    walk).  The arguments are checked here, before the first item is asked
    for.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    limits.check_cap("dellac", n)
    return layered_walk(*layers(n))


def dellac_length(config: DellacConfig) -> int:
    """Number of marked-box pairs with increasing column and decreasing row."""
    boxes = list(config.boxes())
    return sum(
        1
        for i, (l1, j1) in enumerate(boxes)
        for l2, j2 in boxes[i + 1 :]
        if l1 < l2 and j1 > j2
    )


def h_poly_dellac(n: int) -> IntPoly:
    """Generating polynomial of the length statistic over all configurations.

    The layers of iter_dellac, swept forward over columns 1..n: each
    used-row mask carries the length polynomial of every partial
    configuration that reaches it.  Marking rows a < b next to the mask
    adds one inversion for every row above a, and every row above b, that
    is already used.  The zero polynomial comes back when no configuration
    exists.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    limits.check_cap("dellac", n)

    def extend(level: int, used: int, pair: tuple[int, int], total: IntPoly) -> IntPoly:
        a, b = pair
        return total.shift((used >> (a + 1)).bit_count() + (used >> (b + 1)).bit_count())

    return sum(layered_sweep(*layers(n), extend, ONE).values(), ZERO)
