"""The walk under the Dellac, admissible and Motzkin enumerators and the
Dumont oracle, and the sweep that sums it for the q-polynomials, the
closed-subset count, the triangle census and the Motzkin enumerate total:
one choice per level, from a small state (a mask, a pool, heights,
coverage).  The walk comes flat (layered_walk) or in the blocks it shares
(layered_blocks), where each state's completions are listed once: the
enumerate stream checks and encodes each shared piece once.
path_sums sweeps weighted Motzkin paths by height for every length at once:
the Motzkin path sums over a weight system and every continued-fraction
expansion."""

from functools import cache
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple

# the last three levels are listed once per state: at n = 8 those lists peak
# near 0.5 MB, and the walks run five to ten times faster than leaf by leaf
SHARED_LEVELS = 3


def layered_blocks(
    depth: int, root: Hashable, choices: Callable[..., Iterable]
) -> Iterator[tuple[tuple, Hashable, list[tuple]]]:
    """Yield (prefix, state, tails) in walk order for every run of the first
    max(depth - SHARED_LEVELS, 0) choices from root: state is where the
    prefix ends, and tails lists the completions of the last levels from
    that state.  choices(level, state) yields the (item, next_state) pairs
    open at that level.

    Every prefix that ends in one state shares one tails list within this
    call, so work on a tail can be done once per state.  The levels above
    the split descend with an explicit stack of iterators, so no recursion
    grows with depth.
    """
    @cache
    def completions(level: int, state: Hashable) -> list[tuple]:
        if level == depth:
            return [()]
        return [
            (item,) + rest
            for item, nxt in choices(level, state)
            for rest in completions(level + 1, nxt)
        ]

    def children(prefix: tuple, state: Hashable):
        for item, nxt in choices(len(prefix), state):
            yield prefix + (item,), nxt

    # a stack of iterators over (prefix, state) pairs, one per open level
    split = max(depth - SHARED_LEVELS, 0)
    stack = [iter([((), root)])]
    while stack:
        for prefix, state in stack[-1]:
            if len(prefix) < split:
                stack.append(children(prefix, state))
                break
            yield prefix, state, completions(split, state)
        else:
            stack.pop()


def layered_walk(depth: int, root: Hashable, choices: Callable[..., Iterable]) -> Iterator[tuple]:
    """Yield the item tuple of every run of depth choices from root, in walk
    order: the blocks of layered_blocks, flattened."""
    for prefix, _, tails in layered_blocks(depth, root, choices):
        for tail in tails:
            yield prefix + tail


def layered_sweep(
    depth: int,
    root: Hashable,
    choices: Callable[..., Iterable],
    extend: Callable[..., Any],
    unit: Any = 1,
) -> dict:
    """Fold the walk of layered_walk level by level into {state: total}.

    The root carries unit; extend(level, state, item, total) carries the
    total of a state along one edge, and totals that reach the same state
    add.  With extend returning total unchanged, the totals count the runs
    of layered_walk that end in each state, without visiting one.
    """
    states = {root: unit}
    for level in range(depth):
        reached: dict = {}
        for state, total in states.items():
            for item, nxt in choices(level, state):
                term = extend(level, state, item, total)
                reached[nxt] = reached[nxt] + term if nxt in reached else term
        states = reached
    return states


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
