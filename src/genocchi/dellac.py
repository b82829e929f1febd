"""Dellac configurations, their inversion-length statistic, and its
generating polynomial.

A configuration on an n-column, 2n-row grid marks two boxes per column and
one per row, with every marked box (l, j) satisfying l <= j <= n + l.  The
number of configurations is h(n); the generating polynomial of the length
statistic is the q-analogue h_n(q).  The enumeration yields plain row-pair
tuples and keeps the length statistic as it walks; DellacConfig validates a
configuration only where one is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import limits
from .exactalg import IntPoly


@dataclass(frozen=True)
class DellacConfig:
    """Marked boxes, stored per column as the ordered row pair (low, high)."""

    n: int
    columns: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if len(self.columns) != n:
            raise ValueError(f"expected {n} columns, got {len(self.columns)}")
        seen: set[int] = set()
        for col, (lo, hi) in enumerate(self.columns, start=1):
            if not lo < hi:
                raise ValueError(f"column {col} rows must be strictly increasing")
            win_lo, win_hi = _row_window(n, col)
            for j in (lo, hi):
                if not win_lo <= j <= win_hi:
                    raise ValueError(f"box ({col}, {j}) outside the allowed band")
                if j in seen:
                    raise ValueError(f"row {j} marked twice")
                seen.add(j)
        if len(seen) != 2 * n:
            raise ValueError("every row must contain exactly one marked box")

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All marked boxes as (column, row) pairs, column-major order."""
        for col, pair in enumerate(self.columns, start=1):
            for j in pair:
                yield (col, j)

    def render(self) -> str:
        return "\n".join(f"{col}: {lo} {hi}" for col, (lo, hi) in enumerate(self.columns, start=1))

    def json_dict(self) -> dict:
        return {"n": self.n, "columns": [list(pair) for pair in self.columns]}


def _row_window(n: int, col: int) -> tuple[int, int]:
    # inclusive band of rows a box in this column may occupy
    return col, n + col


def iter_dellac(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Yield every configuration once as (columns, length), in lexicographic
    order of the flattened row-pair sequence.

    Backtracks column by column, picking two unused rows inside the column's
    band; a branch dies as soon as some row at or below the current column
    index is still unused (no later column can reach it).  The length grows
    as the walk descends: rows a < b in column col add one inversion for
    every row above a, and every row above b, used by an earlier column.
    The arguments are checked here, before the first item is asked for.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    limits.check_cap("dellac", n)

    used = bytearray(2 * n + 2)
    chosen: list[tuple[int, int]] = []

    def descend(col: int, length: int):
        if col > n:
            yield tuple(chosen), length
            return
        lo, hi = _row_window(n, col)
        free = [j for j in range(lo, min(hi, 2 * n) + 1) if not used[j]]
        for a_idx, a in enumerate(free):
            if a > col and not used[col]:
                break  # row col is reachable by this column only; it would go dead
            with_a = length + sum(used[a + 1 :])
            for b in free[a_idx + 1 :]:
                used[a] = used[b] = 1
                chosen.append((a, b))
                yield from descend(col + 1, with_a + sum(used[b + 1 :]))
                chosen.pop()
                used[a] = used[b] = 0

    return descend(1, 0)


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
    """Generating polynomial of the length statistic over all configurations."""
    counts: dict[int, int] = {}
    for _, stat in iter_dellac(n):
        counts[stat] = counts.get(stat, 0) + 1
    top = max(counts)
    return IntPoly(tuple(counts.get(i, 0) for i in range(top + 1)))
