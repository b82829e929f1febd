from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genocchi import admissible, dellac, iter_admissible, iter_dellac, iter_motzkin, motzkin
from genocchi.walk import layered_blocks, layered_levels, layered_sweep, layered_walk

STATES = range(3)
MAX_DEPTH = 7

# one level: the (state, item, next_state) edges open at it, in walk order
edge = st.tuples(st.sampled_from(STATES), st.integers(0, 3), st.sampled_from(STATES))
tables = st.lists(st.lists(edge, max_size=4), max_size=MAX_DEPTH)


def naive_chains(table, root):
    """Every chain of edges from root, one edge per level, in product order."""
    chains = []
    for edges in product(*table):
        state = root
        for s, _, nxt in edges:
            if s != state:
                break
            state = nxt
        else:
            chains.append(edges)
    return chains


def naive_walk(table, root):
    return [tuple(item for _, item, _ in edges) for edges in naive_chains(table, root)]


@settings(max_examples=300, deadline=None)
@given(table=tables, root=st.sampled_from(STATES), shared=st.integers(0, MAX_DEPTH + 1))
def test_walk_matches_a_filtered_product(table, root, shared):
    def choices(level, state):
        return ((item, nxt) for s, item, nxt in table[level] if s == state)

    # the walk order does not depend on the split
    assert list(layered_walk(len(table), root, choices, shared)) == naive_walk(table, root)

    # the blocks flatten to the walk; every prefix stops at the split level,
    # and every head is the one choice at it, or none at a split at the depth
    blocks = list(layered_blocks(len(table), root, choices, shared))
    tails = [tail for _, _, state_tails in blocks for tail in state_tails]
    flat = [p + h + r for p, _, state_tails in blocks for h, _, rests in state_tails for r in rests]
    assert flat == naive_walk(table, root)
    split = max(len(table) - shared, 0)
    assert {len(p) for p, _, _ in blocks} <= {split}
    assert {len(h) for h, _, _ in tails} <= {int(split < len(table))}
    # the prefixes that end in one state share one tails list, and the heads
    # that lead to one state share one rests list
    by_state, by_next = {}, {}
    assert all(by_state.setdefault(state, state_tails) is state_tails for _, state, state_tails in blocks)
    assert all(by_next.setdefault(nxt, rests) is rests for _, nxt, rests in tails)


@settings(max_examples=300, deadline=None)
@given(table=tables, root=st.sampled_from(STATES), salt=st.integers(-9, 9))
def test_sweep_sums_the_walk(table, root, salt):
    def choices(level, state):
        return ((item, nxt) for s, item, nxt in table[level] if s == state)

    def weight(level, state, item):  # zero and negative weights included
        return (salt * (7 * level + 3 * state + item)) % 7 - 2

    depth = len(table)
    counted = layered_sweep(depth, root, choices, lambda level, state, item, total: total)
    assert sum(counted.values()) == len(list(layered_walk(depth, root, choices, 3)))

    # with no extend, the sweep counts the runs that end in each state
    ends = Counter(edges[-1][2] if edges else root for edges in naive_chains(table, root))
    assert layered_sweep(depth, root, choices) == dict(ends)

    weighted = layered_sweep(
        depth, root, choices, lambda level, state, item, total: total * weight(level, state, item)
    )
    expected = 0
    for edges in naive_chains(table, root):
        term = 1
        for level, (s, item, _) in enumerate(edges):
            term *= weight(level, s, item)
        expected += term
    assert sum(weighted.values()) == expected


@settings(max_examples=200, deadline=None)
@given(table=tables, root=st.sampled_from(STATES))
def test_each_level_is_the_sweep_of_the_levels_before_it(table, root):
    def choices(level, state):
        return ((item, nxt) for s, item, nxt in table[level] if s == state)

    def extend(level, state, item, total):
        return total * (item + 1) + level

    levels = list(layered_levels(len(table), root, choices, extend, 1))
    assert len(levels) == len(table) + 1
    assert levels == [layered_sweep(depth, root, choices, extend, 1) for depth in range(len(table) + 1)]


@pytest.mark.parametrize(
    "walk, n, length",
    [(iter_motzkin, 3000, 3001), (iter_dellac, 1500, 1500), (iter_admissible, 1500, 1499)],
)
def test_deep_walks_need_no_recursion_depth(monkeypatch, walk, n, length):
    monkeypatch.setenv("GENOCCHI_MAX_N", str(n))
    assert len(next(walk(n))) == length


@pytest.mark.parametrize("model, walk", [(dellac, iter_dellac), (admissible, iter_admissible)])
@pytest.mark.parametrize("n", range(1, 9))
def test_the_block_sizes_count_the_walk(model, walk, n):
    # counts-agree counts a walk this way past the sizes it builds objects for
    blocks = layered_blocks(*model.layers(n), model.SHARED_LEVELS)
    assert sum(len(rests) for _, _, tails in blocks for _, _, rests in tails) == sum(1 for _ in walk(n))


@pytest.mark.parametrize(
    "model, walk", [(dellac, iter_dellac), (admissible, iter_admissible), (motzkin, iter_motzkin)]
)
def test_each_walk_shares_its_models_levels(monkeypatch, model, walk):
    seen = []
    real = layered_blocks
    monkeypatch.setattr("genocchi.walk.layered_blocks", lambda *args: seen.append(args[-1]) or real(*args))
    next(walk(7))
    assert seen == [model.SHARED_LEVELS]
