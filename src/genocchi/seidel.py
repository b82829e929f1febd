"""Seidel triangle and the Genocchi number sequences extracted from it.

The triangle holds entries g(k, n) for columns n = 1, 2, ... and rows
1 <= k <= floor((n+1)/2), built from g(1,1) = 1 by alternating partial sums:
even columns accumulate the previous column from the top down, odd columns
from the bottom up.  The two edges give the Genocchi numbers of the first
kind g(n, 2n-1) and the median Genocchi numbers H(2n-1) = g(1, 2n); the
normalized values h(n) = H(2n+1) / 2^n are integers (Barsky-Dumont), which
this module asserts rather than proves.

Columns are produced as running sums of the one before, so a sweep through
N columns costs O(N^2) additions and keeps a single column alive.  Nothing
is cached: every call sweeps afresh from g(1,1).
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterator

from .errors import InternalInconsistencyError


def seidel_columns(n_columns: int) -> Iterator[tuple[int, ...]]:
    """Yield columns 1..n_columns, each bottom row first.

    An even column holds the suffix sums of the previous column; an odd
    column holds its prefix sums, with the top entry repeating the total.
    The argument is checked here, before the first column is asked for.
    """
    if n_columns < 1:
        raise ValueError("need at least one column")
    return _sweep(n_columns)


def _sweep(n_columns: int) -> Iterator[tuple[int, ...]]:
    col: tuple[int, ...] = (1,)
    yield col
    for n in range(2, n_columns + 1):
        if n % 2 == 0:
            col = tuple(accumulate(reversed(col)))[::-1]
        else:
            col = tuple(accumulate(col))
            col += (col[-1],)
        yield col


def genocchi_first_sequence(count: int) -> list[int]:
    """Genocchi numbers of the first kind g(n, 2n-1) for n = 1..count."""
    if count < 1:
        return []
    return [col[-1] for col in islice(seidel_columns(2 * count - 1), 0, None, 2)]


def median_sequence(count: int) -> list[int]:
    """H(1), H(3), ..., H(2*count - 1)."""
    if count < 1:
        return []
    return [col[0] for col in islice(seidel_columns(2 * count), 1, None, 2)]


def h_sequence(count: int) -> list[int]:
    """h(0), h(1), ..., h(count-1)."""
    values = []
    for n, big in enumerate(median_sequence(count)):
        if big % (1 << n):
            raise InternalInconsistencyError(
                f"H({2 * n + 1}) = {big} is not divisible by 2^{n}"
            )
        values.append(big >> n)
    return values


def genocchi_first(n: int) -> int:
    """Genocchi number of the first kind, the edge entry g(n, 2n-1)."""
    if n < 1:
        raise ValueError("index must be positive")
    return genocchi_first_sequence(n)[-1]


def median_genocchi(n: int) -> int:
    """Median Genocchi number H(2n-1) = g(1, 2n)."""
    if n < 1:
        raise ValueError("index must be positive")
    return median_sequence(n)[-1]


def normalized_h(n: int) -> int:
    """Normalized median Genocchi number h(n) = H(2n+1) / 2^n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return h_sequence(n + 1)[-1]
