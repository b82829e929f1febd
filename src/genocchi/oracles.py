"""Independent brute-force counters used only as cross-check oracles: a
layered walk over the normalized Dumont permutations of the second kind,
and a layered sweep over the interval coverage of pairs of staircase
triangles.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ResourceLimitError
from .walk import layered_sweep, layered_walk

DUMONT_MAX_N = 4  # search space is S_{2n+2}; 10! is the practical ceiling
TRIANGLE_MAX_N = 6


def count_dumont(n: int) -> int:
    """Count permutations of {1..2n+2} with value below/above the position at
    even/odd positions and each even value 2k placed before 2k+1 (k <= n).

    Equals h(n).  Counts the layered walk of dumont_permutations, item by
    item; the parity conditions prune almost everything early, and placing
    an odd value 2k+1 requires 2k to be already placed.
    """
    return sum(1 for _ in dumont_permutations(n))


def dumont_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the qualifying permutations in one-line notation, lexicographically:
    a layered walk over positions 1..2n+2 whose state is the bitmask of the
    values placed so far.  The argument is checked here, before the first
    permutation is asked for."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DUMONT_MAX_N:
        raise ResourceLimitError(f"Dumont counting capped at n={DUMONT_MAX_N}")
    size = 2 * n + 2

    def choices(level: int, placed: int):
        pos = level + 1
        for v in range(1, size + 1):
            if placed >> v & 1:
                continue
            if pos % 2 == 0 and v >= pos:
                break  # values are tried in increasing order
            if pos % 2 == 1 and v <= pos:
                continue
            if v % 2 == 1 and 3 <= v <= 2 * n + 1 and not placed >> (v - 1) & 1:
                continue  # 2k must come before 2k+1
            yield v, placed | 1 << v

    return layered_walk(size, 0, choices)


def _coverage_census(n: int, left_anchored: bool) -> dict[tuple[int, ...], int]:
    """Coverage-vector histogram over one side's choices, as a layered sweep
    whose state is the coverage tuple.

    left_anchored=True walks r: row k holds no mark or one mark (k, i), i >= k.
    left_anchored=False walks m: column k holds no mark or one mark (j, k), j <= k.
    """

    def choices(level: int, cov: tuple[int, ...]):
        k = level + 1
        yield None, cov
        if left_anchored:
            marks = [(k, i) for i in range(k, n + 1)]
        else:
            marks = [(j, k) for j in range(1, k + 1)]
        for i, j in marks:
            yield (i, j), cov[: i - 1] + tuple(c + 1 for c in cov[i - 1 : j]) + cov[j:]

    return layered_sweep(n, (0,) * n, choices, lambda level, cov, mark, count: count)


def count_triangle_pairs(n: int) -> int:
    """Count pairs of staircase fillings r, m of the pairs 1 <= i <= j <= n,
    with at most one r-mark (i, j) per row i and one m-mark per column j,
    and each k covered by as many r- as m-intervals [i, j]; equals h(n+1).

    Each side is enumerated independently and reduced to its interval-coverage
    vector; the balance condition says exactly that the two vectors agree, so
    the total is the inner product of the two histograms.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > TRIANGLE_MAX_N:
        raise ResourceLimitError(f"triangle-pair counting capped at n={TRIANGLE_MAX_N}")
    r_census = _coverage_census(n, left_anchored=True)
    m_census = _coverage_census(n, left_anchored=False)
    return sum(cnt * m_census.get(cov, 0) for cov, cnt in r_census.items())
