"""The Han-Zeng two-variable recurrence and its normalized q-polynomials.

C_1 = 1 and each step substitutes x -> 1 + qx, combines, and divides exactly
by 1 + qx - x (the divisor's unit constant term makes the division
division-free; exactness is asserted at runtime).  Evaluating at x = 1 and
stripping the factor (1+q)^(n-1) yields polynomials whose value at q = 1 is
h(n-1) and which coincide with the reversed polynomials shifted by one index.

A recurrence value is its x-coefficient tuple: entry i is the q-polynomial
coefficient of x^i.  Every factor in the step has x-coefficients 1, q or
q - 1, so the step runs on those lists with q-shifts and additions only: no
general polynomial product is formed.
"""

from __future__ import annotations

from .errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from .exactalg import IntPoly, ONE, Q, ZERO, poly_exact_div

HANZENG_MAX_N = 48  # each step grows both degrees, so the cost climbs steeply past this


def _times_one_plus_qx(c: list[IntPoly]) -> list[IntPoly]:
    # (1 + qx) * sum c_i x^i, as x-coefficients
    return [a + b.shift(1) for a, b in zip(c + [ZERO], [ZERO] + c)]


def _over_divisor(b: list[IntPoly]) -> list[IntPoly]:
    """The exact quotient of sum b_i x^i by 1 + qx - x, ascending in x:
    u_i = b_i + u_{i-1} - q u_{i-1}.  The term past the quotient's top is
    the remainder; InexactDivisionError when it is not zero."""
    u = ZERO
    quotient = []
    for c in b:
        u = c + u - u.shift(1)
        quotient.append(u)
    if quotient.pop():
        raise InexactDivisionError("bivariate division leaves a remainder")
    return quotient


def _substitute(c: list[IntPoly]) -> list[IntPoly]:
    """Substitute x -> 1 + qx by Horner: sum c_i (1 + qx)^i, as x-coefficients."""
    out: list[IntPoly] = []
    for a in reversed(c):
        out = _times_one_plus_qx(out)
        out[0] = out[0] + a
    return out


def _step(prev: list[IntPoly]) -> list[IntPoly]:
    """C_n from C_{n-1}: (1 + qx) (C_{n-1}(1 + qx) (1 + qx) - x C_{n-1}(x))
    divided by 1 + qx - x."""
    bracket = _times_one_plus_qx(_substitute(prev))
    for i, c in enumerate(prev, start=1):
        bracket[i] = bracket[i] - c
    return _times_one_plus_qx(_over_divisor(bracket))


def hanzeng_C(n: int) -> tuple[IntPoly, ...]:
    """The n-th recurrence polynomial in x and q, as its x-coefficient tuple
    (n entries, the last one nonzero)."""
    if n < 1:
        raise ValueError("index must be positive")
    if n > HANZENG_MAX_N:
        raise ResourceLimitError(f"Han-Zeng recurrence capped at n={HANZENG_MAX_N}")
    coeffs = [ONE]
    for k in range(2, n + 1):
        try:
            coeffs = _step(coeffs)
        except InexactDivisionError as exc:
            raise InternalInconsistencyError(
                f"recurrence step n={k} is not divisible by 1 + qx - x"
            ) from exc
    return tuple(coeffs)


def hanzeng_barc(n: int) -> IntPoly:
    """The normalized polynomial: the recurrence value at x = 1 divided by
    (1+q)^(n-1), one exact division by 1 + q at a time.  Its value at q = 1
    is h(n-1)."""
    if n < 1:
        raise ValueError("index must be positive")
    at_one = sum(hanzeng_C(n), ZERO)
    try:
        for _ in range(n - 1):
            at_one = poly_exact_div(at_one, ONE + Q)
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            f"C_{n}(1, q) is not divisible by (1+q)^{n - 1}"
        ) from exc
    return at_one
