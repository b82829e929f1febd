"""Exact polynomial arithmetic over the integers, plus q-combinatorial primitives.

Everything here is integer-exact: polynomials carry Python ints (arbitrary
precision), and no floating point appears anywhere.

Types:
  IntPoly     dense polynomial in q, ascending coefficients, no trailing zeros
  Factors     IntPoly q^shift prod (1 - q^a) / prod (1 - q^b), multiplied by over_factors
  PowerSeries truncated series in s with IntPoly coefficients

PowerSeries is a NamedTuple, canonical when built, so that tuple equality
is value equality.  unpack_poly reads a polynomial of nonnegative
coefficients carried as one int, for sweeps that only shift and add.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
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

    def __mul__(self, other):
        if isinstance(other, int):
            # a scalar, as the path sweeps' int 1 weights and heads: no
            # wrapper and no double loop, and no copy for the 1
            if other == 1:
                return self
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
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

    __str__ = render

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))


def poly_reverse(p: IntPoly, d: int) -> IntPoly:
    """Return q^d * p(1/q): coefficient i of the result is coefficient d-i of p."""
    if d < 0:
        raise ValueError("reversal degree must be nonnegative")
    c = p.coeffs
    if len(c) > d + 1:
        raise ValueError(f"cannot reverse degree-{len(c) - 1} polynomial at d={d}")
    return IntPoly((0,) * (d + 1 - len(c)) + c[::-1])


def over_factors(coeffs, ups, downs):
    """The coefficients of coeffs times (1 - q^a) for each a in the tuple
    ups, a copy shifted by a subtracted, then divided exactly by (1 - q^b)
    for each b in the tuple downs, a running sum along each residue class
    mod b.  The b terms past a quotient's top are its remainder:
    InexactDivisionError unless all are 0."""
    for a in ups:
        coeffs = list(coeffs)
        coeffs = map(operator.sub, coeffs + [0] * a, [0] * a + coeffs)  # read once, by the next pass
    for b in downs:
        if b == 1:  # the q-integers' division, one plain running sum
            coeffs = list(accumulate(coeffs))
        else:
            coeffs = list(coeffs)
            for r in range(b):
                coeffs[r::b] = accumulate(coeffs[r::b])
        if any(coeffs[-b:]):
            from .errors import InexactDivisionError

            raise InexactDivisionError(f"division by 1 - q^{b} leaves a remainder")
        del coeffs[-b:]
    return coeffs if downs else list(coeffs)  # a list once a division ran


class Factors(IntPoly):
    """q^shift prod (1 - q^a) / prod (1 - q^b), a in ups and b in downs, held
    expanded so that it compares, adds and renders as an IntPoly.  Its
    products run over_factors, a pass per factor; Python asks a subclass's
    reflected method first, so acc * w for an IntPoly acc runs it too."""

    def __init__(self, shift, ups, downs):
        super().__init__([0] * shift + over_factors((1,), ups, downs))
        object.__setattr__(self, "factors", (shift, ups, downs))

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return IntPoly.__mul__(self, other)  # an int, or NotImplemented
        shift, ups, downs = self.factors
        return IntPoly([0] * shift + over_factors(other.coeffs, ups, downs))

    __rmul__ = __mul__


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
                if a:
                    acc = acc + a * inv[n - i]
            inv[n] = acc * -1
        return PowerSeries(self.order, inv)
