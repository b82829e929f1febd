from collections import Counter
from itertools import permutations

import pytest

from genocchi.errors import ResourceLimitError
from genocchi.oracles import (
    _coverage_census,
    count_dumont,
    count_triangle_pairs,
    dumont_permutations,
)
from genocchi.seidel import normalized_h
from reference import TrianglePair


def naive_dumont_permutations(n):
    """Filter the full symmetric group, in lexicographic order; usable through n = 3."""
    size = 2 * n + 2
    out = []
    for sigma in permutations(range(1, size + 1)):
        if any(v >= k for k, v in enumerate(sigma, start=1) if k % 2 == 0):
            continue
        if any(v <= k for k, v in enumerate(sigma, start=1) if k % 2 == 1):
            continue
        pos = {v: i for i, v in enumerate(sigma)}
        if all(pos[2 * k] < pos[2 * k + 1] for k in range(1, n + 1)):
            out.append(sigma)
    return out


def test_dumont_golden_counts():
    assert count_dumont(1) == 1
    assert count_dumont(2) == 2
    assert count_dumont(3) == 7
    assert count_dumont(4) == 38


def test_dumont_n1_unique_permutation():
    assert list(dumont_permutations(1)) == [(2, 1, 4, 3)]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_dumont_matches_naive_filter(n):
    naive = naive_dumont_permutations(n)
    assert count_dumont(n) == len(naive)
    # the walk lists the same permutations, in the same lexicographic order
    assert list(dumont_permutations(n)) == naive


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_dumont_equals_normalized_sequence(n):
    assert count_dumont(n) == normalized_h(n)


def test_dumont_respects_its_ceiling():
    with pytest.raises(ResourceLimitError):
        count_dumont(5)
    with pytest.raises(ValueError):
        count_dumont(0)
    # the generator checks at the call, before anything is iterated
    with pytest.raises(ResourceLimitError):
        dumont_permutations(5)
    with pytest.raises(ValueError):
        dumont_permutations(0)


# ---------------------------------------------------------------------------
# triangle pairs
# ---------------------------------------------------------------------------


def all_side_choices(n, left_anchored):
    """Every per-row (or per-column) mark assignment for one side."""
    out = [frozenset()]
    for k in range(1, n + 1):
        opts = (
            [(k, i) for i in range(k, n + 1)]
            if left_anchored
            else [(j, k) for j in range(1, k + 1)]
        )
        out = [s | extra for s in out for extra in ([frozenset()] + [frozenset([o]) for o in opts])]
    return out


def coverage(n, marks):
    return tuple(sum(1 for i, j in marks if i <= k <= j) for k in range(1, n + 1))


@pytest.mark.parametrize("left_anchored", (True, False))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_coverage_census_is_the_histogram_of_the_side_choices(n, left_anchored):
    naive = Counter(coverage(n, marks) for marks in all_side_choices(n, left_anchored))
    assert _coverage_census(n, left_anchored) == naive


def naive_triangle_count(n):
    total = 0
    for r in all_side_choices(n, True):
        for m in all_side_choices(n, False):
            if TrianglePair(n, r, m).is_valid():
                total += 1
    return total


def test_triangle_pair_golden_counts():
    assert count_triangle_pairs(1) == 2
    assert count_triangle_pairs(2) == 7
    assert count_triangle_pairs(3) == 38
    assert count_triangle_pairs(4) == 295


def test_triangle_pair_n1_case_analysis():
    # only the all-empty pair and the both-marked pair balance
    valid = [
        (r, m)
        for r in (frozenset(), frozenset([(1, 1)]))
        for m in (frozenset(), frozenset([(1, 1)]))
        if TrianglePair(1, r, m).is_valid()
    ]
    assert valid == [(frozenset(), frozenset()), (frozenset([(1, 1)]), frozenset([(1, 1)]))]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_triangle_pairs_match_naive_enumeration(n):
    assert count_triangle_pairs(n) == naive_triangle_count(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_triangle_pairs_shift_the_sequence(n):
    assert count_triangle_pairs(n) == normalized_h(n + 1)


def test_triangle_pair_validity_rules():
    assert TrianglePair(2, frozenset([(1, 2)]), frozenset([(1, 2)])).is_valid()
    # two r-marks in the same row
    assert not TrianglePair(2, frozenset([(1, 1), (1, 2)]), frozenset()).is_valid()
    # coverage imbalance at k = 1
    assert not TrianglePair(2, frozenset([(1, 1)]), frozenset([(2, 2)])).is_valid()
    # index outside the staircase
    assert not TrianglePair(2, frozenset([(2, 1)]), frozenset()).is_valid()


def test_triangle_pairs_respect_their_ceiling():
    with pytest.raises(ResourceLimitError):
        count_triangle_pairs(7)
    with pytest.raises(ValueError):
        count_triangle_pairs(0)
