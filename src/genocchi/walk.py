"""The walk under the Dellac, admissible and Motzkin enumerators, and the
sweep that sums it for the q-polynomials, the closed-subset count, the
Dumont count, the triangle census and the Motzkin enumerate total, a level
at a time (layered_levels) or to its last level (layered_sweep): one
choice per level, from a small state (a mask, a pool, heights, coverage).
The walk comes flat (layered_walk) or in the blocks it shares
(layered_blocks), where each state's completions of the last `shared`
levels are listed once, grouped by their first level.  Each model sets
its own number of shared levels next to its layers, and every walk of
that model uses it: the enumerate stream then checks, joins and encodes
each shared piece once.  The path sweep of the Motzkin path sums and the
continued fractions is contfrac.path_sums.
"""

from functools import cache
from typing import Any, Callable, Hashable, Iterable, Iterator


def layered_blocks(
    depth: int, root: Hashable, choices: Callable[..., Iterable], shared: int
) -> Iterator[tuple[tuple, Hashable, list[tuple[tuple, Hashable, list[tuple]]]]]:
    """Yield (prefix, state, tails) in walk order for every run of the first
    split = max(depth - shared, 0) choices from root: state is where the
    prefix ends, and tails lists the completions of the last shared levels
    from that state, grouped by their first level, as (head, next_state,
    rests).  head is the 1-tuple of a choice at the split level, next_state
    where it leads, and rests the completions of the levels after it from
    there; a split at the depth has the one tail ((), state, [()]).
    choices(level, state) yields the (item, next_state) pairs open at that
    level.

    Every prefix that ends in one state shares one tails list within this
    call, and every head that leads to one state shares one rests list, so
    work on a head can be done once per state and work on a rest once per
    next state.  The lists of every state met at or below the split are
    kept for the call: their memory is the bound each model states for its
    number of shared levels.  The walk order does not depend on the split.
    The levels above the split descend with an explicit stack of
    iterators, so no recursion grows with depth.
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

    @cache
    def grouped(state: Hashable) -> list[tuple[tuple, Hashable, list[tuple]]]:
        if split == depth:
            return [((), state, [()])]
        return [((item,), nxt, completions(split + 1, nxt)) for item, nxt in choices(split, state)]

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
            yield prefix, state, grouped(state)
        else:
            stack.pop()


def layered_walk(
    depth: int, root: Hashable, choices: Callable[..., Iterable], shared: int
) -> Iterator[tuple]:
    """Yield the item tuple of every run of depth choices from root, in walk
    order: the blocks of layered_blocks, flattened."""
    for prefix, _, tails in layered_blocks(depth, root, choices, shared):
        for head, _, rests in tails:
            start = prefix + head
            for rest in rests:
                yield start + rest


def carry(level: int, state: Hashable, item: Any, total: Any) -> Any:
    """The sweeps' default extend: the total, unchanged along every edge."""
    return total


def layered_levels(
    depth: int,
    root: Hashable,
    choices: Callable[..., Iterable],
    extend: Callable[..., Any] = carry,
    unit: Any = 1,
) -> Iterator[dict]:
    """Fold the walk of layered_walk level by level, yielding {state: total}
    after each level from 0 (the root alone) to depth.

    The root carries unit; extend(level, state, item, total) carries the
    total of a state along one edge, and totals that reach the same state
    add.  With the default extend, carry, the totals count the runs of
    layered_walk that end in each state, without visiting one.  Level k
    is the sweep of the first k levels, so one sweep reads a total at every
    level.
    """
    states = {root: unit}
    yield states
    for level in range(depth):
        reached: dict = {}
        for state, total in states.items():
            for item, nxt in choices(level, state):
                term = extend(level, state, item, total)
                reached[nxt] = reached[nxt] + term if nxt in reached else term
        states = reached
        yield states


def layered_sweep(
    depth: int,
    root: Hashable,
    choices: Callable[..., Iterable],
    extend: Callable[..., Any] = carry,
    unit: Any = 1,
) -> dict:
    """The last level of layered_levels: {state: total} after depth levels."""
    for states in layered_levels(depth, root, choices, extend, unit):
        pass
    return states
