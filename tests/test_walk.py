from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genocchi import iter_admissible, iter_dellac, iter_motzkin
from genocchi.walk import SHARED_LEVELS, layered_walk

STATES = range(3)

# one level: the (state, item, next_state) edges open at it, in walk order
edge = st.tuples(st.sampled_from(STATES), st.integers(0, 3), st.sampled_from(STATES))
tables = st.lists(st.lists(edge, max_size=4), max_size=SHARED_LEVELS + 3)


def naive_walk(table, root):
    """Every chain of edges from root, one edge per level, in product order."""
    runs = []
    for edges in product(*table):
        state = root
        for s, _, nxt in edges:
            if s != state:
                break
            state = nxt
        else:
            runs.append(tuple(item for _, item, _ in edges))
    return runs


@settings(max_examples=300, deadline=None)
@given(table=tables, root=st.sampled_from(STATES))
def test_walk_matches_a_filtered_product(table, root):
    def choices(level, state):
        return ((item, nxt) for s, item, nxt in table[level] if s == state)

    assert list(layered_walk(len(table), root, choices)) == naive_walk(table, root)


@pytest.mark.parametrize(
    "walk, n, length",
    [(iter_motzkin, 3000, 3001), (iter_dellac, 1500, 1500), (iter_admissible, 1500, 1499)],
)
def test_deep_walks_need_no_recursion_depth(monkeypatch, walk, n, length):
    monkeypatch.setenv("GENOCCHI_MAX_N", str(n))
    assert len(next(walk(n))) == length
