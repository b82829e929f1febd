"""Exact polynomial arithmetic over the integers, plus q-combinatorial primitives.

Everything here is integer-exact: polynomials carry Python ints (arbitrary
precision), divisions either succeed exactly or raise InexactDivisionError,
and no floating point appears anywhere.

Types:
  IntPoly     dense polynomial in q, ascending coefficients, no trailing zeros
  LaurentPoly IntPoly shifted by an integer exponent offset (negative powers ok)
  PowerSeries truncated series in s with IntPoly coefficients

pack_poly and unpack_poly carry a polynomial of bounded nonnegative
coefficients as one int, for sweeps that only shift and add.

Evaluation at q takes any exact number, fractions.Fraction included; no
route needs a rational, so the package does not import fractions.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import InexactDivisionError

if TYPE_CHECKING:
    from fractions import Fraction

Coefficient = Union[int, "Fraction"]


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Dense univariate polynomial in q with integer coefficients.

    coeffs[i] is the coefficient of q^i; the last stored coefficient is
    nonzero (the zero polynomial stores nothing).  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "IntPoly":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([*map(operator.add, a, b), *a[len(b) :]])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(map(operator.neg, self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, value: Coefficient) -> Coefficient:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # constants hash like the int they equal
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- rendering ---------------------------------------------------------

    def render(self, var: str = "q") -> str:
        """Ascending-power text form, e.g. '1 + 2*q + 3*q^2 + q^3'."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = var if mag == 1 else f"{mag}*{var}"
            else:
                term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, for JSON payloads."""
        return [str(c) for c in self.coeffs] if self.coeffs else ["0"]

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def poly_reverse(p: IntPoly, d: int) -> IntPoly:
    """Return q^d * p(1/q): coefficient i of the result is coefficient d-i of p."""
    if d < 0:
        raise ValueError("reversal degree must be nonnegative")
    if not p.is_zero and p.degree > d:
        raise ValueError(f"cannot reverse degree-{p.degree} polynomial at d={d}")
    return IntPoly(tuple(p.coefficient(d - i) for i in range(d + 1)))


def pack_poly(p: IntPoly, width: int) -> int:
    """The int whose bits i*width .. (i+1)*width - 1 hold coefficient i of p
    (Kronecker substitution q = 2^width).  While every coefficient stays in
    0 .. 2^width - 1, multiplying p by q^k is a shift by k*width bits and
    adding polynomials is int +.  Raises ValueError for a coefficient
    outside that range."""
    if width < 1:
        raise ValueError("slot width must be positive")
    value, limit = 0, 1 << width
    for c in reversed(p.coeffs):
        if not 0 <= c < limit:
            raise ValueError(f"coefficient {c} does not fit a {width}-bit slot")
        value = value << width | c
    return value


def unpack_poly(value: int, width: int) -> IntPoly:
    """The polynomial pack_poly(p, width) packed: one slot per coefficient."""
    if width < 1:
        raise ValueError("slot width must be positive")
    if value < 0:
        raise ValueError("a packed polynomial is nonnegative")
    mask = (1 << width) - 1
    coeffs = []
    while value:
        coeffs.append(value & mask)
        value >>= width
    return IntPoly(coeffs)


def poly_exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact division over integer polynomials.

    Returns the quotient when num = quotient * den holds exactly; raises
    InexactDivisionError otherwise (nonzero remainder, or a non-integer
    leading quotient at any step).
    """
    if den.is_zero:
        raise ValueError("division by the zero polynomial")
    if num.is_zero:
        return ZERO
    if num.degree < den.degree:
        raise InexactDivisionError(f"({num}) is not divisible by ({den})")
    rem = list(num.coeffs)
    d = den.coeffs
    lead = d[-1]
    qlen = len(rem) - len(d) + 1
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + len(d) - 1]
        if c % lead:
            raise InexactDivisionError(f"({num}) is not divisible by ({den})")
        qc = c // lead
        quot[i] = qc
        if qc:
            for j, dj in enumerate(d):
                rem[i + j] -= qc * dj
    if any(rem):
        raise InexactDivisionError(f"({num}) is not divisible by ({den})")
    return IntPoly(quot)


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_binomial(m: int, n: int) -> IntPoly:
    """Gaussian binomial coefficient as an integer polynomial in q.

    Computed by the q-Pascal recurrence, which is division-free and keeps
    every intermediate value integral.  Degree is n*(m-n); the value at
    q=1 is the ordinary binomial coefficient.  The rows are built in a loop,
    so no recursion depth grows with m.
    """
    if n < 0 or m < 0 or n > m:
        raise ValueError(f"q_binomial requires 0 <= n <= m, got m={m}, n={n}")
    n = min(n, m - n)  # [m choose n]_q = [m choose m-n]_q; a shorter row is cheaper
    # after j passes row[i] = [i+j choose i]_q, by
    # [i+j choose i]_q = [i+j-1 choose i-1]_q + q^i [i+j-1 choose i]_q
    row = [ONE] * (n + 1)
    for _ in range(m - n):
        for i in range(1, n + 1):
            row[i] = row[i - 1] + row[i].shift(i)
    return row[n]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """An IntPoly shifted by an integer exponent offset.

    Represents q^offset * body, where the body has a nonzero constant term
    (or is zero, in which case the offset is 0).
    """

    __slots__ = ("offset", "body")

    def __init__(self, offset: int, body: IntPoly):
        lead = 0
        coeffs = body.coeffs
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            offset, coeffs = 0, ()
        elif lead:
            offset, coeffs = offset + lead, coeffs[lead:]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "body", IntPoly(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (k may be negative)."""
        if self.is_zero:
            return self
        return LaurentPoly(self.offset + k, self.body)

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, IntPoly):
            return LaurentPoly(0, other)
        if isinstance(other, int):
            return LaurentPoly(0, IntPoly((other,)))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        off = min(self.offset, other.offset)
        return LaurentPoly(
            off,
            self.body.shift(self.offset - off) + other.body.shift(other.offset - off),
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly(self.offset + other.offset, self.body * other.body)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.offset == other.offset and self.body == other.body

    def __hash__(self):
        # pure-polynomial values hash like the IntPoly they equal
        return hash(self.body) if self.offset == 0 else hash((self.offset, self.body))

    def to_poly(self) -> IntPoly:
        """Convert to an ordinary polynomial; fails if any exponent is negative."""
        if self.is_zero:
            return ZERO
        if self.offset < 0:
            raise ValueError(f"negative exponent q^{self.offset} survives")
        return self.body.shift(self.offset)


# ---------------------------------------------------------------------------
# Truncated power series in s with IntPoly coefficients
# ---------------------------------------------------------------------------


class PowerSeries:
    """Power series in s truncated at s^order (inclusive), IntPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        polys = tuple(c if isinstance(c, IntPoly) else IntPoly((c,)) for c in coeffs)
        if len(polys) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(polys)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", polys)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def coefficient(self, n: int) -> IntPoly:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    # no route calls this, but the perfbench tracer patches it by name
    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse, requiring constant term 1."""
        if self.coeffs[0] != ONE:
            raise ValueError("series inversion requires constant term 1")
        inv = [ONE] + [ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = ZERO
            for i in range(1, n + 1):
                a = self.coeffs[i]
                if not a.is_zero:
                    acc = acc + a * inv[n - i]
            inv[n] = -acc
        return PowerSeries(self.order, inv)

    def evaluate_q(self, value: Coefficient) -> list:
        """Specialize q in every coefficient, e.g. value=1 for counting."""
        return [c(value) for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs
