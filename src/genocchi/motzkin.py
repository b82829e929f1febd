"""Motzkin paths and the path-sum formulas for h(n) and h_n(q).

Three independent routes live here:
  * an exact-rational weighted sum (squares of heights over powers of two)
    over the walked paths,
  * a q-binomial product formula summed over paths by a transfer sweep of
    the walk's layers over pairs of consecutive heights (walk.layered_sweep),
    and
  * the same sum rewritten through Laurent-polynomial step weights, where a
    single power of q restores an ordinary polynomial.

Path sums over a generic weight system are computed by level-indexed dynamic
programming (path_sums, which also expands every continued fraction, and
asks each weight once per height), and fermionic_exponent is the per-path
reference the sweep is tested against.
One rule checks a piece of a path, a run of consecutive heights: integers,
then nonnegative, then each step within 1, raising the constructor's
message at the first fault.  Two pieces join when a step of at most 1
leads across and the path starts and ends at height 0.  MotzkinPath checks
its ends and its heights as one piece; the enumerate stream checks each
prefix and each shared tail of the walk once, joins them per path, and
writes each piece's heights once.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Callable, Iterator, NamedTuple

from . import limits
from .errors import InternalInconsistencyError
from .exactalg import (
    IntPoly,
    LaurentPoly,
    ONE,
    ZERO,
    poly_reverse,
    q_binomial,
)
from .walk import layered_sweep, layered_walk


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


def _joined(first, second) -> bool:
    """Whether two checked pieces, first then second, make a path: both
    passed their check, the first has a height, a step of at most 1 leads
    across, and both ends are at height 0."""
    if not first or second is None:  # a failed first piece, or no height at all
        return False
    if not second:  # the empty piece: the first is the whole path
        return first[0] == 0 == first[1]
    return first[0] == 0 == second[1] and -1 <= second[0] - first[1] <= 1


def _encode(heights, start: int, as_json: bool) -> str:
    """The text of heights f_start, f_start+1, ...: numbers joined by "," or
    " ".  A piece that starts after f_0 opens with the separator, so that
    pieces concatenate."""
    sep = "," if as_json else " "
    text = sep.join(map(str, heights))
    return sep + text if text and start > 0 else text


def stream_pieces(n: int, as_json: bool, end: str):
    """The rules above for the stream, as dellac.stream_pieces gives them.
    A prefix piece starts with f_0 = 0, which the walk does not yield."""

    def prefix_piece(prefix):
        heights = (0,) + prefix
        return _piece(heights), _encode(heights, 0, as_json)

    def tail_piece(tail, level):
        summary = _piece(tail)
        length = level + len(tail)  # of the path
        head, foot = (f'{{"n":{length},"heights":[', "]}") if as_json else ("", "")
        return summary, (head, _encode(tail, level + 1, as_json) + foot + end)

    return prefix_piece, tail_piece, _joined


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
    return ((0,) + heights for heights in layered_walk(*layers(n)))


class WeightSystem(NamedTuple):
    """Level-indexed step weights: flat steps at level m weigh gamma(m),
    rises from m weigh alpha(m), falls to m weigh beta(m)."""

    alpha: Callable[[int], object]
    beta: Callable[[int], object]
    gamma: Callable[[int], object]


def path_sums(order: int, ws: WeightSystem) -> list:
    """Sums of path weights for every length 0..order, in one transfer-matrix
    sweep over a height-indexed list: entry n is the sum over all length-n
    paths.

    After k steps heights are capped at order - k, since a higher path
    cannot return to 0 by step order.  Each of alpha, beta and gamma is asked
    at most once per height, when a path first reaches it, and the answers
    are kept for the call.  Steps of zero weight and heights of zero total
    are skipped, so a length with no path of nonzero weight sums to the int
    0.  Works for any exact coefficient kind closed under + and * (int,
    Fraction, IntPoly, LaurentPoly); the int 1 seeds the empty product.
    """
    if order < 0:
        raise ValueError("path length must be nonnegative")
    # the weights of the steps out of height h: rise[h], flat[h], fall[h]
    rise: list = []
    flat: list = []
    fall: list = [0]
    level: list = [1]  # level[h]: the total of the paths that end at height h
    sums: list = [1]
    for k in range(order):
        top = order - k - 1
        peak = len(level) - 1
        if peak == len(flat):  # a path reaches this height for the first time
            if peak:
                fall.append(ws.beta(peak - 1))
            flat.append(ws.gamma(peak) if peak <= top else 0)
            rise.append(ws.alpha(peak) if peak < top else 0)
        nxt = [0] * min(peak + 2, top + 1)
        for h, acc in enumerate(level):
            if not acc:
                continue
            w = fall[h]
            if w:
                term = acc * w
                below = nxt[h - 1]
                nxt[h - 1] = below + term if below else term
            if h <= top:
                w = flat[h]
                if w:
                    term = acc * w
                    here = nxt[h]
                    nxt[h] = here + term if here else term
                if h < top:
                    w = rise[h]
                    if w:
                        nxt[h + 1] = acc * w  # the first term to reach h + 1
        while nxt and not nxt[-1]:
            nxt.pop()
        level = nxt
        sums.append(nxt[0] if nxt else 0)
    return sums


def weighted_path_sum(n: int, ws: WeightSystem):
    """Sum of path weights over all length-n paths (see path_sums)."""
    limits.check_cap("motzkin", n)
    return path_sums(n, ws)[n]


def integer_weight_system() -> WeightSystem:
    """The integer weights whose path sum gives h(n) directly:
    alpha(m) = beta(m) = (m+1)(m+2)/2, gamma(m) = (m+1)^2."""
    half_pair = lambda m: (m + 1) * (m + 2) // 2
    return WeightSystem(alpha=half_pair, beta=half_pair, gamma=lambda m: (m + 1) ** 2)


def laurent_weight_system() -> WeightSystem:
    """Laurent-polynomial weights whose path sum is q^(-n(n-1)/2) h_n(q)."""

    def alpha(m: int) -> LaurentPoly:
        return LaurentPoly(-3 * m, q_binomial(m + 2, 2))

    def beta(m: int) -> LaurentPoly:
        return LaurentPoly(-m - 1, q_binomial(m + 2, 2))

    def gamma(m: int) -> LaurentPoly:
        b = q_binomial(m + 1, 1)
        return LaurentPoly(-2 * m, b * b)

    return WeightSystem(alpha=alpha, beta=beta, gamma=gamma)


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


def q_binomial_or_zero(m: int, n: int) -> IntPoly:
    """Gaussian binomial extended by zero when the lower index exceeds the
    upper; makes the unrestricted product sum agree with the path sum."""
    if n < 0 or n > m:
        return IntPoly()
    return q_binomial(m, n)


def fermionic_exponent(heights: tuple[int, ...]) -> int:
    """Power of q attached to one height vector in the q-binomial formula."""
    n = len(heights) - 1
    return sum((k - heights[k]) * (1 - heights[k] + heights[k + 1]) for k in range(1, n))


def h_poly_fermionic(n: int) -> IntPoly:
    """h_n(q) as the sum over paths of q^exponent times two q-binomial
    products (lower index neighbors the heights on either side).

    The summand of index k couples (f_{k-1}, f_k, f_{k+1}), so the sum is a
    sweep of the iter_motzkin layers over the height pair (f_{k-1}, f_k):
    the edge to f_{k+1} multiplies by
    [1+f_{k-1} choose f_k]_q [1+f_{k+1} choose f_k]_q, formed once per
    height triple, and shifts by (k - f_k)(1 - f_k + f_{k+1}).  Index 0
    carries no factor.
    """
    if n < 1:
        raise ValueError("n must be positive")
    limits.check_cap("motzkin", n)
    depth, _, step = layers(n)

    def choices(k: int, pair: tuple[int, int]):
        return ((f, (pair[1], f)) for f, _ in step(k, pair[1]))

    @cache  # for this call: each height triple recurs on many edges
    def factor(before: int, h: int, after: int) -> IntPoly:
        return q_binomial_or_zero(1 + before, h) * q_binomial_or_zero(1 + after, h)

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

    return sum(layered_sweep(depth, (0, 0), choices, extend, ONE).values(), ZERO)


def h_poly_laurent(n: int) -> IntPoly:
    """h_n(q) as the Laurent-weight path sum multiplied by q^(n(n-1)/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    shifted = weighted_path_sum(n, laurent_weight_system()).shift(n * (n - 1) // 2)
    if shifted.offset < 0:
        raise InternalInconsistencyError(
            f"negative exponents survive the q^{n * (n - 1) // 2} shift at n={n}"
        )
    return shifted.to_poly()


def tilde_h(n: int) -> IntPoly:
    """The coefficient-reversed polynomial q^(n(n-1)/2) h_n(1/q)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return poly_reverse(h_poly_fermionic(n), n * (n - 1) // 2)
