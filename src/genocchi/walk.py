"""The walk under the Dellac, admissible and Motzkin enumerators, and the
sweep that sums it: one choice per level, from a small state (used-row
mask, pool, height, or a pair of heights)."""

from functools import cache
from typing import Any, Callable, Hashable, Iterable, Iterator

# the last three levels are listed once per state: at n = 8 those lists peak
# near 0.5 MB, and the walks run five to ten times faster than leaf by leaf
SHARED_LEVELS = 3


def layered_walk(depth: int, root: Hashable, choices: Callable[..., Iterable]) -> Iterator[tuple]:
    """Yield the item tuple of every run of depth choices from root, in walk
    order; choices(level, state) yields the (item, next_state) pairs open at
    that level.  The last SHARED_LEVELS levels are listed once per
    (level, state) within this call; the levels above descend with an
    explicit stack of iterators, so no recursion grows with depth."""
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
            for tail in completions(split, state):
                yield prefix + tail
        else:
            stack.pop()


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
