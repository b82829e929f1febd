"""Independent brute-force counters used only as cross-check oracles:
normalized Dumont permutations of the second kind, and pairs of staircase
triangles with balanced interval coverage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitError

DUMONT_MAX_N = 4  # search space is S_{2n+2}; 10! is the practical ceiling
TRIANGLE_MAX_N = 6


def count_dumont(n: int) -> int:
    """Count permutations of {1..2n+2} with value below/above the position at
    even/odd positions and each even value 2k placed before 2k+1 (k <= n).

    Equals h(n).  Plain lexicographic backtracking over positions; the parity
    conditions prune almost everything early, and placing an odd value 2k+1
    requires 2k to be already placed.
    """
    return sum(1 for _ in dumont_permutations(n))


def dumont_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the qualifying permutations in one-line notation, lexicographically.
    The argument is checked here, before the first permutation is asked for."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DUMONT_MAX_N:
        raise ResourceLimitError(f"Dumont counting capped at n={DUMONT_MAX_N}")
    return _backtrack(n)


def _backtrack(n: int) -> Iterator[tuple[int, ...]]:
    size = 2 * n + 2
    placed = [False] * (size + 1)
    line: list[int] = []

    def fill(pos: int) -> Iterator[tuple[int, ...]]:
        if pos > size:
            yield tuple(line)
            return
        for v in range(1, size + 1):
            if placed[v]:
                continue
            if pos % 2 == 0 and v >= pos:
                break  # values are tried in increasing order
            if pos % 2 == 1 and v <= pos:
                continue
            if v % 2 == 1 and 3 <= v <= 2 * n + 1 and not placed[v - 1]:
                continue  # 2k must come before 2k+1
            placed[v] = True
            line.append(v)
            yield from fill(pos + 1)
            line.pop()
            placed[v] = False

    yield from fill(1)


@dataclass(frozen=True)
class TrianglePair:
    """Two staircase fillings r, m on index pairs (i, j), 1 <= i <= j <= n.

    Marks are stored as sets of (i, j) pairs.  Validity: at most one r-mark
    per row, at most one m-mark per column, and for every k the number of
    r-marks whose interval [i, j] covers k equals the m-mark count.
    """

    n: int
    r_marks: frozenset[tuple[int, int]]
    m_marks: frozenset[tuple[int, int]]

    def is_valid(self) -> bool:
        n = self.n
        for marks in (self.r_marks, self.m_marks):
            if any(not (1 <= i <= j <= n) for i, j in marks):
                return False
        if len({i for i, _ in self.r_marks}) != len(self.r_marks):
            return False
        if len({j for _, j in self.m_marks}) != len(self.m_marks):
            return False
        return all(
            sum(1 for i, j in self.r_marks if i <= k <= j)
            == sum(1 for i, j in self.m_marks if i <= k <= j)
            for k in range(1, n + 1)
        )


def _coverage_census(n: int, left_anchored: bool) -> Counter:
    """Coverage-vector histogram over one side's choices.

    left_anchored=True walks r: row k holds no mark or one mark (k, i), i >= k.
    left_anchored=False walks m: column k holds no mark or one mark (j, k), j <= k.
    """
    census: Counter = Counter()

    def options(k: int) -> list[tuple[int, int]]:
        if left_anchored:
            return [(k, i) for i in range(k, n + 1)]
        return [(j, k) for j in range(1, k + 1)]

    def walk(k: int, cov: list[int]) -> None:
        if k > n:
            census[tuple(cov)] += 1
            return
        walk(k + 1, cov)
        for i, j in options(k):
            bumped = cov.copy()
            for p in range(i, j + 1):
                bumped[p - 1] += 1
            walk(k + 1, bumped)

    walk(1, [0] * n)
    return census


def count_triangle_pairs(n: int) -> int:
    """Count valid TrianglePair fillings; equals h(n+1).

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
