"""The path sweep under every Motzkin path sum and every continued-fraction
expansion: path_sums sums weighted Motzkin paths by height for every
length at once, over a WeightSystem of level-indexed step weights.  Only
path-sum users import this module; the layered walks live in walk.py."""

from typing import Callable, NamedTuple


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
