"""The walk under the Dellac, admissible and Motzkin enumerators and the
Dumont oracle, and the sweep that sums it for the q-polynomials, the
closed-subset count, the triangle census and the Motzkin enumerate total:
one choice per level, from a small state (a mask, a pool, heights,
coverage).  The walk comes flat (layered_walk) or in the blocks it shares
(layered_blocks), where each state's completions of the last `shared`
levels are listed once.  Each model sets its own number of shared levels
next to its layers, and every walk of that model uses it: the enumerate
stream then checks, joins and encodes each shared piece once.  The path
sweep of the Motzkin path sums and the continued fractions is
contfrac.path_sums.
"""

from functools import cache
from typing import Any, Callable, Hashable, Iterable, Iterator


def layered_blocks(
    depth: int, root: Hashable, choices: Callable[..., Iterable], shared: int
) -> Iterator[tuple[tuple, Hashable, list[tuple]]]:
    """Yield (prefix, state, tails) in walk order for every run of the first
    max(depth - shared, 0) choices from root: state is where the prefix
    ends, and tails lists the completions of the last shared levels from
    that state.  choices(level, state) yields the (item, next_state) pairs
    open at that level.

    Every prefix that ends in one state shares one tails list within this
    call, so work on a tail can be done once per state.  The lists of every
    state met at or below the split are kept for the call: their memory is
    the bound each model states for its number of shared levels.  The walk
    builds nothing from a tails list it yields, so a caller that has read
    one may empty it to free that memory.  The walk order does not depend
    on the split.  The levels above the split descend with an explicit
    stack of iterators, so no recursion grows with depth.
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
    split = max(depth - shared, 0)
    stack = [iter([((), root)])]
    while stack:
        for prefix, state in stack[-1]:
            if len(prefix) < split:
                stack.append(children(prefix, state))
                break
            yield prefix, state, completions(split, state)
        else:
            stack.pop()


def layered_walk(
    depth: int, root: Hashable, choices: Callable[..., Iterable], shared: int
) -> Iterator[tuple]:
    """Yield the item tuple of every run of depth choices from root, in walk
    order: the blocks of layered_blocks, flattened."""
    for prefix, _, tails in layered_blocks(depth, root, choices, shared):
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
