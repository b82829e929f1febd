"""Motzkin paths and the path-sum formulas for h(n) and h_n(q).

Three independent routes live here:
  * an exact-rational weighted sum (squares of heights over powers of two)
    over the walked paths,
  * a q-binomial product formula summed over paths by a transfer sweep of
    the walk's layers over pairs of consecutive heights (walk.layered_levels),
    and
  * the q-fraction f1's path sum with its weights read at 1/q (the Laurent
    weights), each step's times q^(n - 1) so that they stay polynomials.

A path sum over level weights (weighted_path_sum) is the s^n coefficient
of a J-fraction: a flat step at height m weighs gamma(m) and each rise-fall
pair from m weighs lam(m + 1), and contfrac.path_sums expands it as it
expands every continued fraction, asking each weight once per height.
fermionic_exponent is the per-path reference the sweep is tested against;
the sweep's weights do not depend on the length, so one sweep reads
h_n(q) for every n up to its own (fermionic_sequence).
One rule checks a piece of a path, a run of consecutive heights: integers,
then nonnegative, then each step within 1, raising the constructor's
message at the first fault.  MotzkinPath checks its ends and its heights
as one piece; the enumerate stream's rules for joining and writing pieces
live in stream_motzkin.py.

The walk shares its last SHARED_LEVELS = 6 steps.  A path six steps from
its end is at most 6 high, so from n = 12 on, whatever the length, the
walk lists 17 heads over 7 heights and 96 rests over 6 next heights, 267
tails in all (fewer below): its tracemalloc peak is about 0.02 MB at
n = 12 and 14, and the stream's about 0.04 MB.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import limits
from .errors import InternalInconsistencyError
from .walk import layered_levels, layered_walk

if TYPE_CHECKING:
    from .contfrac import JFraction
    from .exactalg import IntPoly


class _MotzkinFields(NamedTuple):
    heights: tuple[int, ...]


class MotzkinPath(_MotzkinFields):
    """Height sequence f_0 .. f_n of a path from (0,0) to (n,0)."""

    __slots__ = ()

    def __new__(cls, heights: tuple[int, ...]):
        _piece(heights, whole=True)
        return super().__new__(cls, heights)


def _piece(heights, whole: bool = False) -> tuple[int, int] | tuple[()]:
    """The check of a run of heights, whole when the run is a path: a tuple
    of integers, a start and an end at height 0 for a whole one, then
    nonnegative, then each step within 1 inside the run.  Raises at the
    first fault; returns the summary (first height, last height), or () for
    no height."""
    if type(heights) is not tuple or set(map(type, heights)) - {int}:
        raise TypeError("heights must be integers")
    if whole:
        if not heights:
            raise ValueError("a path needs at least the starting height")
        if heights[0] != 0 or heights[-1] != 0:
            raise ValueError("path must start and end at height 0")
    if not heights:
        return ()
    if min(heights) < 0:
        raise ValueError("heights must stay nonnegative")
    if not all(-1 <= b - a <= 1 for a, b in zip(heights, heights[1:])):
        raise ValueError("steps must change height by at most 1")
    return heights[0], heights[-1]


# the state is only the height, so six shared steps cost 267 runs at any
# length (see the module's bound) and leave few prefixes to walk
SHARED_LEVELS = 6


def layers(n: int):
    """The walk behind iter_motzkin, unchecked: (depth, root, choices) for n
    steps from height 0, step k going to a height within 1 of the last
    (tried fall < level < rise) and at most n - k - 1."""

    def choices(k: int, h: int):
        return ((f, f) for f in (h - 1, h, h + 1) if 0 <= f <= n - k - 1)

    return n, 0, choices


def iter_motzkin(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the height tuple of every length-n path once, by a layered walk
    on the height.  The arguments are checked here, before the first item
    is asked for."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    limits.check_cap("motzkin", n)
    return ((0,) + heights for heights in layered_walk(*layers(n), SHARED_LEVELS))


def weighted_path_sum(n: int, spec: JFraction):
    """Sum of path weights over all length-n paths: the s^n coefficient of
    the J-fraction spec (see contfrac.path_sums)."""
    from .contfrac import coefficients  # enumerate needs no path sweep

    limits.check_cap("motzkin", n)
    return coefficients(spec, n)[n]


def integer_weight_system() -> JFraction:
    """The integer weights whose path sum gives h(n) directly:
    gamma(m) = (m+1)^2 and lam(k) = (k(k+1)/2)^2."""
    from .contfrac import JFraction

    return JFraction(gamma=lambda m: (m + 1) ** 2, lam=lambda k: (k * (k + 1) // 2) ** 2)


def laurent_weight_system(n: int) -> JFraction:
    """fraction_f1's weights at 1/q, each step's times q^(n - 1): gamma(m)
    q^(n-1-2m) and lam(k) q^(2n-4k), polynomials at every height a length-n
    path reaches (flats at m <= (n-1)/2, falls from k <= n/2).  Each path
    gains q^(n(n-1)), so the s^n sum is q^(n(n-1)/2) h_n(q).  A weight past
    those heights raises ValueError; path_sums never asks for one."""
    from .contfrac import JFraction, fraction_f1

    f1 = fraction_f1()
    return JFraction(
        gamma=lambda m: f1.gamma(m).shift(n - 1 - 2 * m),
        lam=lambda k: f1.lam(k).shift(2 * n - 4 * k),
    )


def h_motzkin_rational(n: int) -> int:
    """h(n) as the exact rational path sum of (products of squared
    height-plus-ones) over 2^(rises + falls), summed as numerators over the
    common denominator 2^n: a length-n path rises and falls at most n times."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for f in iter_motzkin(n):
        num = 1
        for v in f:
            num *= (1 + v) * (1 + v)
        rises_plus_falls = sum(1 for a, b in zip(f, f[1:]) if a != b)
        total += num << (n - rises_plus_falls)
    if total % (1 << n):
        g = gcd(total, 1 << n)
        raise InternalInconsistencyError(f"rational path sum for n={n} is {total // g}/{(1 << n) // g}")
    return total >> n


def fermionic_exponent(heights: tuple[int, ...]) -> int:
    """Power of q attached to one height vector in the q-binomial formula."""
    n = len(heights) - 1
    return sum((k - heights[k]) * (1 - heights[k] + heights[k + 1]) for k in range(1, n))


def fermionic_sequence(n_max: int) -> Iterator[IntPoly]:
    """Yield h_n(q) for n = 0..n_max from one sweep: the sum over paths of
    q^exponent times two q-binomial products (lower index neighbors the
    heights on either side).

    The summand of index k couples (f_{k-1}, f_k, f_{k+1}), so the sum is a
    sweep of the iter_motzkin layers for n_max steps over the height pair
    (f_{k-1}, f_k): the edge to f_{k+1} multiplies by
    [1+f_{k-1} choose f_k]_q [1+f_{k+1} choose f_k]_q, formed once per
    height triple, and shifts by (k - f_k)(1 - f_k + f_{k+1}).  Index 0
    carries no factor.  No weight depends on the length, and the heights
    open to n_max steps include those of every shorter path, so level n's
    pairs that end at height 0 hold h_n(q), and level 0 holds h_0 = 1.
    The arguments are checked here, before the first item is asked for.
    """
    from .exactalg import ONE, ZERO, q_binomial

    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    limits.check_cap("motzkin", n_max)
    depth, _, step = layers(n_max)

    def choices(k: int, pair: tuple[int, int]):
        return ((f, (pair[1], f)) for f, _ in step(k, pair[1]))

    @cache  # for this sweep: each height triple recurs on many edges
    def factor(before: int, h: int, after: int) -> IntPoly:
        return q_binomial(1 + before, h) * q_binomial(1 + after, h)

    def extend(k: int, pair: tuple[int, int], after: int, total: IntPoly) -> IntPoly:
        if k == 0:
            return total
        before, h = pair
        expo = (k - h) * (1 - h + after)
        if expo < 0:
            raise InternalInconsistencyError(
                f"negative exponent {expo} at step {k} for heights {before} {h} {after}"
            )
        return (total * factor(before, h, after)).shift(expo)

    levels = layered_levels(depth, (0, 0), choices, extend, ONE)
    return (sum((total for (_, h), total in states.items() if h == 0), ZERO) for states in levels)


def h_poly_fermionic(n: int) -> IntPoly:
    """h_n(q), the last term of fermionic_sequence(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    *_, last = fermionic_sequence(n)
    return last


def h_poly_laurent(n: int) -> IntPoly:
    """h_n(q): the path sum over laurent_weight_system(n), q^(n(n-1)/2) h_n(q),
    less its lowest n(n-1)/2 coefficients, each checked to be 0."""
    from .exactalg import IntPoly

    if n < 1:
        raise ValueError("n must be positive")
    low = n * (n - 1) // 2
    raw = weighted_path_sum(n, laurent_weight_system(n)).coeffs
    if any(raw[:low]):
        raise InternalInconsistencyError(f"negative exponents survive the q^{low} shift at n={n}")
    return IntPoly(raw[low:])


def tilde_h(n: int) -> IntPoly:
    """The coefficient-reversed polynomial q^(n(n-1)/2) h_n(1/q)."""
    from .exactalg import ONE, poly_reverse

    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return poly_reverse(h_poly_fermionic(n), n * (n - 1) // 2)
