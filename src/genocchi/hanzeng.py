"""The Han-Zeng two-variable recurrence and its normalized q-polynomials.

C_1 = 1 and C_n(x) = (1 + qx) (C_{n-1}(1 + qx) (1 + qx) - x C_{n-1}(x))
divided exactly by 1 + qx - x.  Evaluating C_n at x = 1 and stripping the
factor (1+q)^(n-1) yields polynomials whose value at q = 1 is h(n-1) and
which coincide with the reversed polynomials shifted by one index.

Only values at the q-integers x = [j]_q = 1 + q + ... + q^(j-1) are needed.
There 1 + qx = [j+1] and 1 + qx - x = q^j, so the step reads

    C_m([j]) = [j+1] ([j+1] C_{m-1}([j+1]) - [j] C_{m-1}([j])) / q^j

and C_n([1]) = C_n(1, q) needs the entries with m + j <= n + 1: a table of
about n^2/2 q-polynomials, one row per m.  Multiplying by [k] subtracts a
copy shifted by k and takes a running sum; dividing by q^j drops the j
lowest coefficients.  Two exactness checks guard the route: the j dropped
coefficients must be 0, and each of the n - 1 divisions by 1 + q, an
alternating running sum, must leave no remainder.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul, sub

from .errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from .exactalg import IntPoly

HANZENG_MAX_N = 48  # the table grows as n^2 entries of degree up to n^2/4


def _times_q_int(p: list[int], k: int) -> list[int]:
    """p times [k]_q = (1 - q^k) / (1 - q): p minus its copy shifted by k,
    then a running sum."""
    pad = [0] * k
    return list(accumulate(map(sub, p + pad[1:], pad + p)))


def _minus(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return [*map(sub, a, b), *a[len(b) :]]


def _over_q_power(p: list[int], j: int) -> list[int]:
    """p divided by q^j, the value of 1 + qx - x at x = [j]_q;
    InexactDivisionError when one of the j lowest coefficients is not 0."""
    if any(p[:j]):
        raise InexactDivisionError("the step leaves a remainder")
    return p[j:]


def _over_one_plus_q(p: list[int]) -> list[int]:
    """The exact quotient of p by 1 + q: u_i = p_i - u_{i-1}, a running sum
    under alternating signs.  The term past the quotient's top is the
    remainder; InexactDivisionError when it is not zero."""
    signs = (1, -1) * (len(p) // 2 + 1)
    quotient = list(map(mul, accumulate(map(mul, p, signs)), signs))
    if quotient.pop():
        raise InexactDivisionError("division by 1 + q leaves a remainder")
    return quotient


def hanzeng_barc(n: int) -> IntPoly:
    """The normalized polynomial: C_n(1, q) divided by (1+q)^(n-1), one
    exact division by 1 + q at a time.  Its value at q = 1 is h(n-1)."""
    if n < 1:
        raise ValueError("index must be positive")
    if n > HANZENG_MAX_N:
        raise ResourceLimitError(f"Han-Zeng recurrence capped at n={HANZENG_MAX_N}")
    row = [[1]] * n  # C_1([j]) for j = 1..n
    for m in range(2, n + 1):
        # scaled[j - 1] = [j] C_{m-1}([j]): each serves entries j - 1 and j
        scaled = [_times_q_int(c, j) for j, c in enumerate(row, start=1)]
        try:
            row = [
                _times_q_int(_over_q_power(_minus(scaled[j], scaled[j - 1]), j), j + 1)
                for j in range(1, len(row))
            ]
        except InexactDivisionError as exc:
            raise InternalInconsistencyError(
                f"recurrence step n={m} is not divisible by 1 + qx - x"
            ) from exc
    (at_one,) = row
    try:
        for _ in range(n - 1):
            at_one = _over_one_plus_q(at_one)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"C_{n}(1, q) is not divisible by (1+q)^{n - 1}"
        ) from exc
    return IntPoly(at_one)
