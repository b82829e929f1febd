"""Independent brute-force counters used only as cross-check oracles: a
layered sweep over the normalized Dumont permutations of the second kind,
and a layered sweep over the interval coverage of pairs of staircase
triangles.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .walk import layered_sweep

DUMONT_MAX_N = 4  # not the sweep's limit: it fixes the range of verify's dumont-oracle row
TRIANGLE_MAX_N = 6


def count_dumont(n: int) -> int:
    """Count permutations of {1..2n+2} with value below/above the position at
    even/odd positions and each even value 2k placed before 2k+1 (k <= n).

    Equals h(n).  A layered sweep over positions 1..2n+2 whose state is the
    bitmask of the values placed so far, each mask counted once per level;
    the parity conditions prune almost everything early, and placing an odd
    value 2k+1 requires 2k to be already placed.
    """
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

    return sum(layered_sweep(size, 0, choices).values())


def _coverage_census(n: int, left_anchored: bool) -> dict[int, int]:
    """Coverage-vector histogram over one side's choices, as a layered sweep
    whose state is the coverage vector packed into one int: slot k - 1, of
    n.bit_length() bits, counts the marks whose interval [i, j] covers k.
    At most n marks cover any k, so a slot never carries, and a mark adds
    one to its interval's slots with a single int +.

    left_anchored=True walks r: row k holds no mark or one mark (k, i), i >= k.
    left_anchored=False walks m: column k holds no mark or one mark (j, k), j <= k.
    """
    width = n.bit_length()

    def with_ones(i: int, j: int):
        return (i, j), sum(1 << width * (k - 1) for k in range(i, j + 1))

    # the marks open at each level, with the ones they add
    if left_anchored:
        marks = [[with_ones(k, i) for i in range(k, n + 1)] for k in range(1, n + 1)]
    else:
        marks = [[with_ones(j, k) for j in range(1, k + 1)] for k in range(1, n + 1)]

    def choices(level: int, cov: int):
        yield None, cov
        for placed, ones in marks[level]:
            yield placed, cov + ones

    return layered_sweep(n, 0, choices)


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
