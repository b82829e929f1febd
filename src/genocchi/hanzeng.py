"""The Han-Zeng two-variable recurrence and its normalized q-polynomials.

C_1 = 1 and C_n(x) = (1 + qx) (C_{n-1}(1 + qx) (1 + qx) - x C_{n-1}(x))
divided exactly by 1 + qx - x.  Evaluating C_n at x = 1 and stripping the
factor (1+q)^(n-1) yields polynomials whose value at q = 1 is h(n-1) and
which coincide with the reversed polynomials shifted by one index.

Only values at the q-integers x = [j]_q = 1 + q + ... + q^(j-1) are needed.
There 1 + qx = [j+1] and 1 + qx - x = q^j, so the step reads

    C_m([j]) = [j+1] ([j+1] C_{m-1}([j+1]) - [j] C_{m-1}([j])) / q^j

and C_n([1]) = C_n(1, q) needs the entries with m + j <= n + 1: a table of
about n^2/2 q-polynomials, one row per m.  The first entry of row m is
C_m([1]), so one table up to n serves every index up to n
(hanzeng_sequence).  [k] = (1 - q^k)/(1 - q) and 1 + q = (1 - q^2)/(1 - q)
are passes of exactalg.over_factors, and dividing by q^j drops the j lowest
coefficients.  Two exactness checks guard the route: the j dropped
coefficients must be 0, and dividing C_n(1, q) by (1 + q)^(n-1) must leave
no remainder.
"""

from __future__ import annotations

from operator import sub
from typing import Iterator

from .errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from .exactalg import IntPoly, over_factors

HANZENG_MAX_N = 48  # the table grows as n^2 entries of degree up to n^2/4


def _over_q_power(p: list[int], j: int) -> list[int]:
    """p divided by q^j, the value of 1 + qx - x at x = [j]_q;
    InexactDivisionError when one of the j lowest coefficients is not 0."""
    if any(p[:j]):
        raise InexactDivisionError("the step leaves a remainder")
    return p[j:]


def hanzeng_sequence(count: int) -> Iterator[IntPoly]:
    """Yield hanzeng_barc(m) for m = 1..count from one table: the row after
    step m holds C_m([j]) for j = 1..count - m + 1, and its first entry is
    C_m([1]) = C_m(1, q), so one sweep builds count rows where a table per
    index would build count (count + 1) / 2.  The bound is checked here,
    before the first term is asked for."""
    if count > HANZENG_MAX_N:
        raise ResourceLimitError(f"Han-Zeng recurrence capped at n={HANZENG_MAX_N}")
    return map(_normalized, range(1, count + 1), _at_one(count))


def hanzeng_barc(n: int) -> IntPoly:
    """The normalized polynomial: C_n(1, q) divided exactly by (1+q)^(n-1).
    Its value at q = 1 is h(n-1)."""
    if n < 1:
        raise ValueError("index must be positive")
    if n > HANZENG_MAX_N:
        raise ResourceLimitError(f"Han-Zeng recurrence capped at n={HANZENG_MAX_N}")
    for at_one in _at_one(n):  # the last row's, C_n(1, q)
        pass
    return _normalized(n, at_one)


def _at_one(count: int) -> Iterator[list[int]]:
    """C_m(1, q) for m = 1..count, the first entry of each row of the table
    over the q-integers [1]..[count]."""
    row = [[1]] * count  # C_1([j]) for j = 1..count
    for m in range(1, count + 1):
        if m > 1:
            # scaled[j - 1] = [j] C_{m-1}([j]) serves entries j - 1 and j; big is never the shorter
            scaled = [over_factors(c, (j,), (1,)) for j, c in enumerate(row, start=1)]
            try:
                row = [
                    over_factors(_over_q_power([*map(sub, big, small), *big[len(small) :]], j), (j + 1,), (1,))
                    for j, (small, big) in enumerate(zip(scaled, scaled[1:]), start=1)
                ]
            except InexactDivisionError as exc:
                raise InternalInconsistencyError(
                    f"recurrence step n={m} is not divisible by 1 + qx - x"
                ) from exc
        yield row[0]


def _normalized(n: int, at_one: list[int]) -> IntPoly:
    """C_n(1, q) divided by (1+q)^(n-1) = ((1 - q^2) / (1 - q))^(n-1), exactly."""
    try:
        at_one = over_factors(at_one, (1,) * (n - 1), (2,) * (n - 1))
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"C_{n}(1, q) is not divisible by (1+q)^{n - 1}"
        ) from exc
    return IntPoly(at_one)
