"""The Han-Zeng two-variable recurrence and its normalized q-polynomials.

C_1 = 1 and each step substitutes x -> 1 + qx, combines, and divides exactly
by 1 + qx - x (the divisor's unit constant term makes the division
division-free; exactness is asserted at runtime).  Evaluating at x = 1 and
stripping the factor (1+q)^(n-1) yields polynomials whose value at q = 1 is
h(n-1) and which coincide with the reversed polynomials shifted by one index.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from .exactalg import (
    BivarPoly,
    IntPoly,
    ONE,
    Q,
    bivar_exact_div_by_unit_const,
    poly_exact_div,
)

HANZENG_MAX_N = 48  # each step grows both degrees, so the cost climbs steeply past this

_X = BivarPoly((IntPoly(), ONE))
_ONE_PLUS_QX = BivarPoly((ONE, Q))
_DIVISOR = BivarPoly((ONE, Q - ONE))  # 1 + qx - x


@lru_cache(maxsize=None)
def hanzeng_C(n: int) -> BivarPoly:
    """The n-th recurrence polynomial in x and q."""
    if n < 1:
        raise ValueError("index must be positive")
    if n > HANZENG_MAX_N:
        raise ResourceLimitError(f"Han-Zeng recurrence capped at n={HANZENG_MAX_N}")
    if n == 1:
        return BivarPoly((ONE,))
    prev = hanzeng_C(n - 1)
    shifted = prev.substitute_x(_ONE_PLUS_QX)
    bracket = _ONE_PLUS_QX * shifted - _X * prev
    try:
        quotient = bivar_exact_div_by_unit_const(bracket, _DIVISOR)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"recurrence step n={n} is not divisible by 1 + qx - x"
        ) from exc
    return _ONE_PLUS_QX * quotient


def hanzeng_barc(n: int) -> IntPoly:
    """The normalized polynomial: the recurrence value at x = 1 divided by
    (1+q)^(n-1).  Its value at q = 1 is h(n-1)."""
    if n < 1:
        raise ValueError("index must be positive")
    at_one = hanzeng_C(n).at_x_one()
    denom = (ONE + Q) ** (n - 1)
    try:
        return poly_exact_div(at_one, denom)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"C_{n}(1, q) is not divisible by (1+q)^{n - 1}"
        ) from exc
