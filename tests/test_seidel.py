import pytest

from genocchi import seidel
from genocchi.errors import InternalInconsistencyError
from genocchi.seidel import (
    genocchi_first_sequence,
    h_sequence,
    median_sequence,
    seidel_columns,
)

# first ten columns, bottom row first, as printed in the standard triangle
TRIANGLE_10 = [
    (1,),
    (1,),
    (1, 1),
    (2, 1),
    (2, 3, 3),
    (8, 6, 3),
    (8, 14, 17, 17),
    (56, 48, 34, 17),
    (56, 104, 138, 155, 155),
    (608, 552, 448, 310, 155),
]


def independent_triangle(n_columns):
    """Dict-based re-implementation used only as a test oracle."""
    g = {(1, 1): 1}
    for n in range(2, n_columns + 1):
        height = (n + 1) // 2
        prev_height = n // 2
        for k in range(1, height + 1):
            if n % 2 == 0:
                g[(k, n)] = sum(g.get((i, n - 1), 0) for i in range(k, prev_height + 1))
            else:
                g[(k, n)] = sum(g.get((i, n - 1), 0) for i in range(1, k + 1))
    return g


def test_first_ten_columns_match_the_printed_triangle():
    assert list(seidel_columns(10)) == [tuple(col) for col in TRIANGLE_10]


def test_named_entry_sums():
    cols = list(seidel_columns(10))
    assert cols[9 - 1][3 - 1] == 138 == 56 + 48 + 34
    assert cols[8 - 1][2 - 1] == 48 == 14 + 17 + 17
    assert cols[0] == (1,)


def test_column_sum_consistency_through_24():
    cols = list(seidel_columns(24))
    assert len(cols) == 24
    for n in range(2, 25):
        prev = cols[n - 2]
        height = (n + 1) // 2
        if n % 2 == 0:
            rebuilt = tuple(sum(prev[k - 1 :]) for k in range(1, height + 1))
        else:
            rebuilt = tuple(sum(prev[: min(k, len(prev))]) for k in range(1, height + 1))
        assert cols[n - 1] == rebuilt


def test_matches_independent_implementation():
    g = independent_triangle(30)
    for n, col in enumerate(seidel_columns(30), start=1):
        assert len(col) == (n + 1) // 2
        for k, value in enumerate(col, start=1):
            assert value == g[(k, n)]


def test_genocchi_first_golden():
    assert list(genocchi_first_sequence(5)) == [1, 1, 3, 17, 155]
    assert list(genocchi_first_sequence(1))[-1] == 1
    # n=6 pinned by the independent oracle implementation
    assert list(genocchi_first_sequence(6))[-1] == independent_triangle(11)[(6, 11)]


def test_median_golden():
    assert list(median_sequence(5)) == [1, 2, 8, 56, 608]
    assert list(median_sequence(1)) == [1]
    assert list(median_sequence(6))[-1] == 32 * 295  # 2^5 h(5)


def test_normalized_golden():
    assert list(h_sequence(7)) == [1, 1, 2, 7, 38, 295, 3098]
    assert list(h_sequence(1)) == [1]


def test_divisibility_through_12():
    medians = list(median_sequence(13))  # H(2n + 1) at index n
    h = list(h_sequence(13))
    for n in range(1, 13):
        assert medians[n] % (1 << n) == 0
        assert h[n] * (1 << n) == medians[n]


def test_domain_errors():
    with pytest.raises(ValueError):
        seidel_columns(0)  # fires at the call, before anything is iterated
    assert list(genocchi_first_sequence(0)) == []
    assert list(median_sequence(0)) == []
    assert list(h_sequence(0)) == []


def test_sequences_yield_each_term_as_its_column_is_reached(monkeypatch):
    swept = []
    columns = seidel.seidel_columns

    def counted(n_columns):
        for col in columns(n_columns):
            swept.append(col)
            yield col

    monkeypatch.setattr(seidel, "seidel_columns", counted)
    terms = median_sequence(100)
    assert swept == []
    assert (next(terms), next(terms)) == (1, 2)
    assert len(swept) == 4  # columns 1..4: H(3) = g(1, 4)
    swept.clear()
    assert next(genocchi_first_sequence(100)) == 1
    assert len(swept) == 1


def test_h_sequence_yields_the_terms_before_an_inexact_term(monkeypatch):
    monkeypatch.setattr(seidel, "median_sequence", lambda count: iter([1, 2, 8, 57, 608]))
    terms = h_sequence(5)
    assert [next(terms) for _ in range(3)] == [1, 1, 2]
    with pytest.raises(InternalInconsistencyError, match=r"H\(7\) = 57 is not divisible by 2\^3"):
        next(terms)
