"""Reference definitions the tests compare the package against.

Each is the direct form of something the package computes by another
route: q-integers and q-factorials against the q-Pascal binomials, the
product of step weights along one path against the path sweep, the
rational path sum in Fraction arithmetic against the one over a common
power of two, the Dellac sweep with IntPoly totals against the packed one,
one triangle-pair filling checked mark by mark against the coverage
census, closure in the grid digraph tested vertex by vertex against the
closed-subset sweep and verify's column-by-column check, and the bivariate
Han-Zeng recurrence, stepped on x-coefficient lists with general exact
division, against the table at the q-integers.
The program runs none of them, so they live here rather than in
src/genocchi.  The file name does not match test_*.py, so pytest does not
collect it; test modules import it as `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from genocchi import limits
from genocchi.admissible import GammaGraph
from genocchi.contfrac import JFraction
from genocchi.dellac import layers
from genocchi.errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from genocchi.exactalg import ONE, ZERO, IntPoly
from genocchi.hanzeng import HANZENG_MAX_N
from genocchi.motzkin import MotzkinPath, iter_motzkin
from genocchi.walk import layered_sweep


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


def step_weight(spec: JFraction, a: int, b: int):
    """The weight of one step from height a to height b in the J-fraction's
    path sum: gamma(a) flat, 1 up, lam(a) down."""
    if b == a:
        return spec.gamma(a)
    if b == a + 1:
        return 1
    if b == a - 1:
        return spec.lam(a)
    raise ValueError(f"not a Motzkin step: {a} -> {b}")


def path_weight(path: MotzkinPath, spec: JFraction):
    """Product of step weights along one path (1 for the empty path)."""
    acc = 1
    for a, b in zip(path.heights, path.heights[1:]):
        acc = acc * step_weight(spec, a, b)
    return acc


def h_motzkin_rational_fraction(n: int) -> int:
    """h(n) as the exact rational path sum of (products of squared
    height-plus-ones) over 2^(rises + falls), one Fraction per path."""
    if n < 1:
        raise ValueError("n must be positive")
    total = Fraction(0)
    for f in iter_motzkin(n):
        num = 1
        for v in f:
            num *= (1 + v) * (1 + v)
        rises_plus_falls = sum(1 for a, b in zip(f, f[1:]) if a != b)
        total += Fraction(num, 1 << rises_plus_falls)
    if total.denominator != 1:
        raise InternalInconsistencyError(f"rational path sum for n={n} is {total}")
    return total.numerator


def h_poly_dellac_intpoly(n: int) -> IntPoly:
    """The length polynomial of the Dellac configurations by the sweep of
    dellac.layers with IntPoly totals: one shift of a polynomial per edge."""
    if n < 1:
        raise ValueError("grid size must be positive")
    limits.check_cap("dellac", n)

    def extend(level: int, used: int, pair: tuple[int, int], total: IntPoly) -> IntPoly:
        a, b = pair
        return total.shift((used >> (a + 1)).bit_count() + (used >> (b + 1)).bit_count())

    return sum(layered_sweep(*layers(n), extend, ONE).values(), ZERO)


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


def is_closed_in_gamma(subset: Iterable[tuple[int, int]], graph: GammaGraph) -> bool:
    """True iff every arrow starting in the subset, a set of vertices of the
    grid digraph, also ends in it: tested vertex by vertex."""
    vs = set(subset)
    for l, j in vs:
        if not (1 <= l <= graph.n - 1 and 1 <= j <= graph.n):
            raise ValueError(f"vertex {(l, j)} outside the graph for n={graph.n}")
    return all(t in vs for v in vs if (t := graph.arrow_target(v)) is not None)


def poly_exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact division over integer polynomials.

    Returns the quotient when num = quotient * den holds exactly; raises
    InexactDivisionError otherwise (nonzero remainder, or a non-integer
    leading quotient at any step).
    """
    if not den:
        raise ValueError("division by the zero polynomial")
    if not num:
        return ZERO
    if len(num.coeffs) < len(den.coeffs):
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


def _minus(a: IntPoly, b: IntPoly) -> IntPoly:
    """a - b: IntPoly has no subtraction, since no route subtracts polynomials."""
    return a + b * -1


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
        u = _minus(c + u, u.shift(1))
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
        bracket[i] = _minus(bracket[i], c)
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
