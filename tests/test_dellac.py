import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from genocchi.cli import run
from genocchi.dellac import (
    DellacConfig,
    dellac_length,
    h_poly_dellac,
    iter_dellac,
)
from genocchi.errors import ResourceLimitError
from genocchi.exactalg import IntPoly
from genocchi.seidel import normalized_h

# the seven configurations on three columns, as row pairs per column
CATALOGUE_3 = [
    ((1, 2), (3, 4), (5, 6)),
    ((1, 2), (3, 5), (4, 6)),
    ((1, 2), (4, 5), (3, 6)),
    ((1, 3), (2, 4), (5, 6)),
    ((1, 3), (2, 5), (4, 6)),
    ((1, 4), (2, 3), (5, 6)),
    ((1, 4), (2, 5), (3, 6)),
]


def configs(n):
    return [DellacConfig(n, columns) for columns in iter_dellac(n)]


def test_single_column_case_is_forced():
    assert list(iter_dellac(1)) == [((1, 2),)]
    assert dellac_length(configs(1)[0]) == 0


def test_three_column_catalogue():
    got = list(iter_dellac(3))
    assert sorted(got) == sorted(CATALOGUE_3)


def test_enumeration_order_is_lexicographic_and_stable():
    first = list(iter_dellac(4))
    second = list(iter_dellac(4))
    assert first == second
    flattened = [tuple(j for pair in cols for j in pair) for cols in first]
    assert flattened == sorted(flattened)


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_the_triangle(n):
    assert sum(1 for _ in iter_dellac(n)) == normalized_h(n)


def test_length_statistic_golden_values():
    staircase = DellacConfig(3, ((1, 2), (3, 4), (5, 6)))
    assert dellac_length(staircase) == 0
    crossing = DellacConfig(3, ((1, 4), (2, 5), (3, 6)))
    assert dellac_length(crossing) == 3
    lengths = sorted(dellac_length(c) for c in configs(3))
    assert lengths == [0, 1, 1, 2, 2, 2, 3]


def test_h_poly_golden_values():
    assert h_poly_dellac(2) == IntPoly((1, 1))
    assert h_poly_dellac(3) == IntPoly((1, 2, 3, 1))
    assert h_poly_dellac(4) == IntPoly((1, 3, 7, 10, 10, 6, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_h_poly_structure(n):
    p = h_poly_dellac(n)
    assert p(1) == normalized_h(n)
    expected_deg = n * (n - 1) // 2
    assert (0 if p.is_zero else p.degree) == expected_deg
    assert p.coefficient(0) == 1
    assert p.coefficient(expected_deg) == 1


def test_validation_rejects_bad_configurations():
    with pytest.raises(ValueError):
        DellacConfig(2, ((1, 2),))  # wrong column count
    with pytest.raises(ValueError):
        DellacConfig(2, ((1, 1), (2, 3)))  # not strictly increasing
    with pytest.raises(ValueError):
        DellacConfig(2, ((1, 2), (1, 3)))  # row 1 marked twice
    with pytest.raises(ValueError):
        DellacConfig(2, ((1, 4), (2, 3)))  # row 4 outside column 1's band


@pytest.mark.parametrize("n, columns", [(1, ((True, 2),)), (True, ((1, 2),)), (1, ((1.0, 2),))])
def test_non_integer_fields_are_rejected(n, columns):
    # each lies in its band, and its JSON line would read as no walk's does
    with pytest.raises(TypeError, match="^n and rows must be integers$"):
        DellacConfig(n, columns)


@pytest.mark.parametrize("n", range(1, 7))
def test_yielded_configurations_validate_and_carry_their_length(n):
    # the transfer sweep against the walk's objects and the O(n^2) reference count
    tally = {}
    for cfg in configs(n):
        length = dellac_length(cfg)
        tally[length] = tally.get(length, 0) + 1
    assert h_poly_dellac(n) == IntPoly(tally.get(i, 0) for i in range(max(tally) + 1))


def test_resource_limit():
    # the checks fire at the call, before anything is iterated
    for fn in (iter_dellac, h_poly_dellac):
        with pytest.raises(ResourceLimitError):
            fn(9)
        with pytest.raises(ValueError):
            fn(0)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("GENOCCHI_MAX_N", "3")
    assert sum(1 for _ in iter_dellac(3)) == 7
    assert h_poly_dellac(3) == IntPoly((1, 2, 3, 1))
    for fn in (iter_dellac, h_poly_dellac):
        with pytest.raises(ResourceLimitError):
            fn(4)
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("GENOCCHI_MAX_N", bad)
        with pytest.raises(ValueError):
            iter_dellac(2)


def streamed(n, as_json):
    """The output of enumerate dellac for n, text or JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["enumerate", "dellac", "--n", str(n)] + ["--json"] * as_json) == 0
    return out.getvalue()


def test_rendering_and_json():
    # one configuration of the n = 3 stream, as a text block and a JSON line
    assert "1: 1 2\n2: 3 5\n3: 4 6" in streamed(3, False).split("\n\n")
    assert '{"n":3,"columns":[[1,2],[3,5],[4,6]]}' in streamed(3, True).splitlines()


@pytest.mark.parametrize("n", range(1, 6))
def test_json_line_is_the_compact_dump_of_the_fields(n):
    cfgs = configs(n)
    lines = [
        json.dumps({"n": c.n, "columns": [list(p) for p in c.columns]}, separators=(",", ":"))
        for c in cfgs
    ]
    assert streamed(n, True) == "".join(line + "\n" for line in lines) + f'{{"total":"{len(cfgs)}"}}\n'
    blocks = ["\n".join(f"{col}: {lo} {hi}" for col, (lo, hi) in enumerate(c.columns, start=1)) for c in cfgs]
    assert streamed(n, False) == "".join(block + "\n\n" for block in blocks) + f"total {len(cfgs)}\n"


def naive_fault(n, columns):
    """The first fault of a configuration, box by box, or None if it is valid."""
    if len(columns) != n:
        return f"expected {n} columns, got {len(columns)}"
    seen = []
    for col, (lo, hi) in enumerate(columns, start=1):
        if lo >= hi:
            return f"column {col} rows must be strictly increasing"
        for j in (lo, hi):
            if j < col or j > n + col:
                return f"box ({col}, {j}) outside the allowed band"
            if j in seen:
                return f"row {j} marked twice"
            seen.append(j)
    if sorted(seen) != list(range(1, 2 * n + 1)):
        return "every row must contain exactly one marked box"
    return None


@st.composite
def column_tuples(draw):
    # mostly invalid: a walked configuration with one column redrawn, or
    # columns drawn at random, sometimes one too many or too few
    n = draw(st.integers(1, 5))
    row = st.integers(-1, 2 * n + 2)
    if draw(st.booleans()):
        columns = list(draw(st.sampled_from(list(iter_dellac(n)))))
        columns[draw(st.integers(0, n - 1))] = (draw(row), draw(row))
    else:
        size = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        columns = draw(st.lists(st.tuples(row, row), min_size=size, max_size=size))
    if draw(st.integers(0, 4)) == 0:
        # sometimes n or one row a bool or a float
        fields = [n] + [j for pair in columns for j in pair]
        at = draw(st.integers(0, len(fields) - 1))
        fields[at] = draw(st.sampled_from([bool(fields[at]), float(fields[at])]))
        n, rows = fields[0], fields[1:]
        columns = list(zip(rows[::2], rows[1::2]))
    return n, tuple(columns)


@settings(max_examples=400, deadline=None)
@given(column_tuples())
def test_constructor_rejects_what_the_box_loop_rejects(drawn):
    n, columns = drawn
    if {type(n)} | {type(j) for pair in columns for j in pair} != {int}:
        # a field that is not an int comes before any fault of the values
        with pytest.raises(TypeError, match="^n and rows must be integers$"):
            DellacConfig(n, columns)
        return
    fault = naive_fault(n, columns)
    if fault is None:
        assert DellacConfig(n, columns).columns == columns
    else:
        with pytest.raises(ValueError) as exc:
            DellacConfig(n, columns)
        assert str(exc.value) == fault
