"""Dellac configurations, their inversion-length statistic, and its
generating polynomial.

A configuration on an n-column, 2n-row grid marks two boxes per column and
one per row, with every marked box (l, j) satisfying l <= j <= n + l.  The
number of configurations is h(n); the generating polynomial of the length
statistic is the q-analogue h_n(q).  The walk yields plain row-pair tuples
and nothing else; the polynomial comes from a transfer sweep of the same
layers over used-row masks, which visits no configuration and carries each
mask's total packed into one int, a slot per power of q.

One rule checks a piece of a configuration, a run of consecutive columns:
every field an int, then per column the row order, and per row the band
_row_window gives at that moment and a repeat, raising the constructor's
message at the first fault.  The piece's used rows come back as a bitmask.
DellacConfig checks the column count and its columns as one piece; the
enumerate stream's rules for joining pieces (disjoint masks, n columns in
all) and writing them live in stream_dellac.py.

The walk shares its last SHARED_LEVELS = 4 columns: each used-row mask met
four columns from the end lists its heads, and each mask a head leads to
lists its rests, one run of three columns per way to finish it.  At the
cap n = 8 that is 490 heads over 70 masks and 762 rests over 56 next
masks, 6,880 tails in all: the walk's tracemalloc peak is about 0.2 MB,
and the stream's, which keeps each head's and rest's summary and text and
two references per tail, about 0.52 MB.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import limits
from .walk import layered_sweep, layered_walk

if TYPE_CHECKING:
    from .exactalg import IntPoly


class _DellacFields(NamedTuple):
    n: int
    columns: tuple[tuple[int, int], ...]


class DellacConfig(_DellacFields):
    """Marked boxes, stored per column as the ordered row pair (low, high)."""

    __slots__ = ()

    def __new__(cls, n: int, columns: tuple[tuple[int, int], ...]):
        _piece(n, columns, 1, whole=True)
        return super().__new__(cls, n, columns)


def _piece(n: int, columns, start: int, whole: bool = False) -> tuple[int, int]:
    """The check of columns start, start + 1, ... of an n-column
    configuration, whole when the run is one: a tuple of int pairs, the
    column count of a whole one, then per column the row order, and per
    row the band _row_window gives at call time and a repeat.  Raises at
    the first fault; returns the summary (column count, used-row mask)."""
    if (
        type(n) is not int
        or type(columns) is not tuple
        or not all(type(c) is tuple and len(c) == 2 and type(c[0]) is type(c[1]) is int for c in columns)
    ):
        raise TypeError("n and rows must be integers")
    if whole and len(columns) != n:
        raise ValueError(f"expected {n} columns, got {len(columns)}")
    used = 0
    for col, (lo, hi) in enumerate(columns, start):
        if not lo < hi:
            raise ValueError(f"column {col} rows must be strictly increasing")
        win_lo, win_hi = _row_window(n, col)
        for j in (lo, hi):
            if not win_lo <= j <= win_hi:
                raise ValueError(f"box ({col}, {j}) outside the allowed band")
            if used >> j & 1:
                raise ValueError(f"row {j} marked twice")
            used |= 1 << j
    return len(columns), used


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


# few used-row masks remain four columns from the end, so sharing four
# columns checks and encodes far fewer pieces than three (see the module's bound)
SHARED_LEVELS = 4


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
    return layered_walk(*layers(n), SHARED_LEVELS)


def dellac_length(config: DellacConfig) -> int:
    """Number of marked-box pairs with increasing column and decreasing row."""
    boxes = [(col, j) for col, pair in enumerate(config.columns, start=1) for j in pair]
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
    is already used.  Each total is packed into one int, a slot per power of
    q (exactalg.unpack_poly), so the empty configuration is the int 1, an
    inversion is a shift by one slot and totals add as ints; one unpack
    gives the polynomial.  A slot holds any count of configurations,
    since each column marks one of the C(n+1, 2) row pairs of its band.  The
    zero polynomial comes back when no configuration exists.
    """
    from .exactalg import unpack_poly  # enumerate needs no polynomial

    if n < 1:
        raise ValueError("grid size must be positive")
    limits.check_cap("dellac", n)
    width = (comb(n + 1, 2) ** n).bit_length()

    def extend(level: int, used: int, pair: tuple[int, int], total: int) -> int:
        a, b = pair
        return total << width * ((used >> (a + 1)).bit_count() + (used >> (b + 1)).bit_count())

    return unpack_poly(sum(layered_sweep(*layers(n), extend, 1).values()), width)
