"""Reference definitions the tests compare the package against.

Each is the direct, per-object form of something the package computes by
another route: q-integers and q-factorials against the q-Pascal binomials,
the product of step weights along one path against the path sweep, and one
triangle-pair filling checked mark by mark against the coverage census.
The program runs none of them, so they live here rather than in
src/genocchi.  The file name does not match test_*.py, so pytest does not
collect it; test modules import it as `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

from genocchi.exactalg import ONE, IntPoly
from genocchi.motzkin import MotzkinPath, WeightSystem


def q_int(n: int) -> IntPoly:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q-integer index must be nonnegative")
    return IntPoly((1,) * n)


def q_factorial(n: int) -> IntPoly:
    """[n]_q! as an exact product of q-integers."""
    result = ONE
    for i in range(1, n + 1):
        result = result * q_int(i)
    return result


def path_weight(path: MotzkinPath, ws: WeightSystem):
    """Product of step weights along one path (1 for the empty path)."""
    acc = 1
    for a, b in zip(path.heights, path.heights[1:]):
        acc = acc * ws.step_weight(a, b)
    return acc


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
