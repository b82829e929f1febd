"""Seidel triangle and the Genocchi number sequences extracted from it.

The triangle holds entries g(k, n) for columns n = 1, 2, ... and rows
1 <= k <= floor((n+1)/2), built from g(1,1) = 1 by alternating partial sums:
even columns accumulate the previous column from the top down, odd columns
from the bottom up.  The two edges give the Genocchi numbers of the first
kind g(n, 2n-1) and the median Genocchi numbers H(2n-1) = g(1, 2n); the
normalized values h(n) = H(2n+1) / 2^n are integers (Barsky-Dumont), which
this module asserts rather than proves.

Columns are produced as running sums of the one before, so a sweep through
N columns costs O(N^2) additions and keeps a single column alive.  The
sequences are iterators over that sweep: each term is yielded as soon as
its column is reached, and no list of terms is kept.  Nothing is cached:
every call sweeps afresh from g(1,1).
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


def genocchi_first_sequence(count: int) -> Iterator[int]:
    """Genocchi numbers of the first kind g(n, 2n-1) for n = 1..count, each
    yielded as its column is reached."""
    if count < 1:
        return iter(())
    return (col[-1] for col in islice(seidel_columns(2 * count - 1), 0, None, 2))


def median_sequence(count: int) -> Iterator[int]:
    """H(1), H(3), ..., H(2*count - 1), each yielded as its column is reached."""
    if count < 1:
        return iter(())
    return (col[0] for col in islice(seidel_columns(2 * count), 1, None, 2))


def h_sequence(count: int) -> Iterator[int]:
    """h(0), h(1), ..., h(count-1), each yielded as its column is reached;
    InternalInconsistencyError at the first H(2n+1) that 2^n does not divide,
    after the terms before it."""
    for n, big in enumerate(median_sequence(count)):
        if big % (1 << n):
            raise InternalInconsistencyError(
                f"H({2 * n + 1}) = {big} is not divisible by 2^{n}"
            )
        yield big >> n

