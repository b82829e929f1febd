"""Exact polynomial arithmetic over the integers, plus q-combinatorial primitives.

Everything here is integer-exact: polynomials carry Python ints (arbitrary
precision), and no floating point appears anywhere.

Types:
  IntPoly     dense polynomial in q, ascending coefficients, no trailing zeros
  LaurentPoly IntPoly shifted by an integer exponent offset (negative powers ok)
  PowerSeries truncated series in s with IntPoly coefficients

LaurentPoly and PowerSeries are NamedTuples, canonical when built, so that
tuple equality is value equality.  unpack_poly reads a polynomial of
nonnegative coefficients carried as one int, for sweeps that only shift
and add.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence


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

    def __call__(self, value):
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

    def render(self) -> str:
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
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
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


def unpack_poly(value: int, width: int) -> IntPoly:
    """The polynomial whose coefficient i sits in bits i*width .. (i+1)*width - 1
    of value (Kronecker substitution q = 2^width): while every coefficient
    fits its slot, multiplying by q^k is a shift by k*width bits and adding
    polynomials is int +."""
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


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_binomial(m: int, n: int) -> IntPoly:
    """Gaussian binomial coefficient as an integer polynomial in q.

    Computed by the q-Pascal recurrence, which is division-free and keeps
    every intermediate value integral.  Degree is n*(m-n); the value at
    q=1 is the ordinary binomial coefficient, and the value is zero for n
    outside 0..m.  The rows are built in a loop, so no recursion depth grows
    with m.
    """
    if m < 0:
        raise ValueError(f"q_binomial requires m >= 0, got m={m}")
    if n < 0 or n > m:
        return ZERO
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


class _LaurentFields(NamedTuple):
    offset: int
    body: IntPoly


class LaurentPoly(_LaurentFields):
    """q^offset * body, where the body has a nonzero constant term (or is
    zero, in which case the offset is 0)."""

    __slots__ = ()

    def __new__(cls, offset: int, body: IntPoly):
        coeffs = body.coeffs
        if not coeffs:
            return super().__new__(cls, 0, body)
        lead = 0
        while not coeffs[lead]:  # the last coefficient is nonzero
            lead += 1
        if lead:
            offset, body = offset + lead, IntPoly(coeffs[lead:])
        return super().__new__(cls, offset, body)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q^k (k may be negative)."""
        return LaurentPoly(self.offset + k, self.body)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        off = min(self.offset, other.offset)
        return LaurentPoly(off, self.body.shift(self.offset - off) + other.body.shift(other.offset - off))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentPoly(self.offset + other.offset, self.body * other.body)
        if isinstance(other, int):
            return LaurentPoly(self.offset, self.body * other)
        return NotImplemented

    __rmul__ = __mul__

    def to_poly(self) -> IntPoly:
        """Convert to an ordinary polynomial; fails if any exponent is negative."""
        if self.offset < 0:
            raise ValueError(f"negative exponent q^{self.offset} survives")
        return self.body.shift(self.offset)


# ---------------------------------------------------------------------------
# Truncated power series in s with IntPoly coefficients
# ---------------------------------------------------------------------------


class _SeriesFields(NamedTuple):
    order: int
    coeffs: tuple[IntPoly, ...]


class PowerSeries(_SeriesFields):
    """Power series in s truncated at s^order (inclusive), IntPoly coefficients."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: Sequence):
        polys = tuple(c if isinstance(c, IntPoly) else IntPoly((c,)) for c in coeffs)
        if len(polys) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(polys)}")
        return super().__new__(cls, order, polys)

    def coefficient(self, n: int) -> IntPoly:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    # no route calls this, but the perfbench tracer patches it by name
    def inverse(self) -> PowerSeries:
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

    def evaluate_q(self, value) -> list:
        """Specialize q in every coefficient, e.g. value=1 for counting."""
        return [c(value) for c in self.coeffs]
