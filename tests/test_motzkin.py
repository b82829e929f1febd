import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genocchi import motzkin
from genocchi.cli import run
from genocchi.errors import InternalInconsistencyError, ResourceLimitError
from genocchi.exactalg import IntPoly, LaurentPoly, ONE
from genocchi.dellac import h_poly_dellac
from genocchi.motzkin import (
    MotzkinPath,
    WeightSystem,
    fermionic_exponent,
    h_motzkin_rational,
    h_poly_fermionic,
    h_poly_laurent,
    integer_weight_system,
    iter_motzkin,
    laurent_weight_system,
    path_sums,
    q_binomial_or_zero,
    tilde_h,
    weighted_path_sum,
)
from genocchi.seidel import normalized_h
from reference import h_motzkin_rational_fraction, path_weight, step_weight

MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511]

H5_POLY = IntPoly((1, 4, 12, 25, 43, 57, 62, 50, 30, 10, 1))


def paths(n):
    return [MotzkinPath(heights) for heights in iter_motzkin(n)]


def rises_plus_falls(path):
    """The number of steps of the path that change height."""
    return sum(1 for a, b in zip(path.heights, path.heights[1:]) if a != b)


def motzkin_by_convolution(top):
    """Independent count oracle: M(n+1) = M(n) + sum M(k) M(n-1-k)."""
    m = [1, 1]
    while len(m) <= top:
        n = len(m) - 1
        m.append(m[n] + sum(m[k] * m[n - 1 - k] for k in range(n)))
    return m


def test_counts_match_convolution_recurrence():
    oracle = motzkin_by_convolution(12)
    assert oracle == MOTZKIN_NUMBERS
    for n in range(11):
        assert sum(1 for _ in iter_motzkin(n)) == oracle[n]


def test_path_listing_for_n3():
    listed = list(iter_motzkin(3))
    assert sorted(listed) == [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
    assert listed == list(iter_motzkin(3))  # deterministic


def test_empty_path():
    assert list(iter_motzkin(0)) == [(0,)]
    assert paths(0)[0].heights == (0,)


def test_path_validation():
    with pytest.raises(ValueError):
        MotzkinPath((0, 1))
    with pytest.raises(ValueError):
        MotzkinPath((0, 2, 0))
    with pytest.raises(ValueError):
        MotzkinPath((1, 0))
    assert rises_plus_falls(MotzkinPath((0, 1, 1, 0))) == 2


@pytest.mark.parametrize("heights", [(0, 0.5, 0), (0, 1.0, 0), (0.0,), (0, True, 0), [0, 1, 0], [0]])
def test_non_integer_heights_are_rejected(heights):
    # each passes the step loop, and its JSON line would read as no walk's
    # does; a list of heights would not hash
    with pytest.raises(TypeError, match="^heights must be integers$"):
        MotzkinPath(heights)


def streamed(n, as_json):
    """The output of enumerate motzkin for n, text or JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["enumerate", "motzkin", "--n", str(n)] + ["--json"] * as_json) == 0
    return out.getvalue()


@pytest.mark.parametrize("n", range(0, 9))
def test_json_line_and_render_match_the_fields(n):
    ps = paths(n)
    lines = [json.dumps({"n": len(p.heights) - 1, "heights": list(p.heights)}, separators=(",", ":")) for p in ps]
    assert streamed(n, True) == "".join(line + "\n" for line in lines) + f'{{"total":"{len(ps)}"}}\n'
    texts = [" ".join(str(v) for v in p.heights) for p in ps]
    assert streamed(n, False) == "".join(text + "\n" for text in texts) + f"total {len(ps)}\n"


def naive_fault(heights):
    """The first fault of a height sequence, or None if it is a path."""
    if len(heights) == 0:
        return "a path needs at least the starting height"
    if heights[0] != 0 or heights[-1] != 0:
        return "path must start and end at height 0"
    if any(v < 0 for v in heights):
        return "heights must stay nonnegative"
    if any(abs(b - a) > 1 for a, b in zip(heights, heights[1:])):
        return "steps must change height by at most 1"
    return None


@st.composite
def height_tuples(draw):
    # mostly invalid: a walked path with one height redrawn, or heights drawn
    # at random
    height = st.integers(-2, 4)
    if draw(st.booleans()):
        n = draw(st.integers(0, 7))
        heights = list(draw(st.sampled_from(list(iter_motzkin(n)))))
        heights[draw(st.integers(0, n))] = draw(height)
    else:
        heights = draw(st.lists(height, max_size=8))
    if heights and draw(st.integers(0, 4)) == 0:
        # sometimes one height a bool or a float
        at = draw(st.integers(0, len(heights) - 1))
        heights[at] = draw(st.sampled_from([bool(heights[at]), float(heights[at])]))
    return tuple(heights)


@settings(max_examples=400, deadline=None)
@given(height_tuples())
def test_constructor_rejects_what_the_step_loop_rejects(heights):
    if set(map(type, heights)) - {int}:
        # a height that is not an int comes before any fault of the values
        with pytest.raises(TypeError, match="^heights must be integers$"):
            MotzkinPath(heights)
        return
    fault = naive_fault(heights)
    if fault is None:
        assert MotzkinPath(heights).heights == heights
    else:
        with pytest.raises(ValueError) as exc:
            MotzkinPath(heights)
        assert str(exc.value) == fault


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------


def test_unit_weights_count_paths():
    ones = WeightSystem(lambda m: 1, lambda m: 1, lambda m: 1)
    for n in range(9):
        assert weighted_path_sum(n, ones) == MOTZKIN_NUMBERS[n]


def test_weighted_sum_of_empty_path_is_one():
    anything = WeightSystem(lambda m: 99, lambda m: 98, lambda m: 97)
    assert weighted_path_sum(0, anything) == 1


def test_integer_weights_give_h2():
    assert weighted_path_sum(2, integer_weight_system()) == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_integer_weights_give_h(n):
    assert weighted_path_sum(n, integer_weight_system()) == normalized_h(n)


def test_dp_equals_explicit_enumeration():
    rng = random.Random(3)
    tables = [{m: rng.randint(-4, 4) for m in range(8)} for _ in range(3)]
    ws = WeightSystem(tables[0].__getitem__, tables[1].__getitem__, tables[2].__getitem__)
    for n in range(7):
        explicit = sum(path_weight(p, ws) for p in paths(n))
        assert weighted_path_sum(n, ws) == explicit


weight_tables = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(0, 8), tables=st.tuples(weight_tables, weight_tables, weight_tables))
def test_path_sums_ask_each_weight_once_and_match_the_per_path_sum(order, tables):
    # zeros cut paths off and negative weights cancel totals
    asked = []

    def asking(name, table):
        def weight(m):
            asked.append((name, m))
            return table[m]

        return weight

    sums = path_sums(order, WeightSystem(*map(asking, "abg", tables)))
    assert len(asked) == len(set(asked))
    ws = WeightSystem(*(table.__getitem__ for table in tables))
    assert sums == [sum(path_weight(p, ws) for p in paths(n)) for n in range(order + 1)]
    assert all(type(total) is int for total in sums)


# ---------------------------------------------------------------------------
# the rational formula
# ---------------------------------------------------------------------------


def test_rational_terms_for_n3():
    ws_terms = []
    for p in paths(3):
        num = 1
        for f in p.heights:
            num *= (1 + f) ** 2
        ws_terms.append(Fraction(num, 2 ** rises_plus_falls(p)))
    assert sorted(ws_terms) == [1, 1, 1, 4]
    assert sum(ws_terms) == 7


@pytest.mark.parametrize("n, expected", [(1, 1), (3, 7), (5, 295)])
def test_rational_golden(n, expected):
    assert h_motzkin_rational(n) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_rational_equals_triangle(n):
    assert h_motzkin_rational(n) == normalized_h(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_rational_sum_over_a_power_of_two_equals_the_fraction_sum(n):
    assert h_motzkin_rational(n) == h_motzkin_rational_fraction(n)


def test_a_rational_sum_that_is_no_integer_is_an_internal_error(monkeypatch):
    # the one path weighs 3^2 / 2^2
    monkeypatch.setattr(motzkin, "iter_motzkin", lambda n: iter([(0, 2, 0)]))
    with pytest.raises(InternalInconsistencyError, match=r"^rational path sum for n=2 is 9/4$"):
        h_motzkin_rational(2)


def test_rational_terms_match_integer_weights_pathwise():
    # each path's integer weight equals its squared-heights term exactly,
    # and the rise/fall count is always even on a closed path
    ws = integer_weight_system()
    for n in range(1, 9):
        for p in paths(n):
            assert rises_plus_falls(p) % 2 == 0
            num = 1
            for f in p.heights:
                num *= (1 + f) ** 2
            assert path_weight(p, ws) == Fraction(num, 2 ** rises_plus_falls(p))


# ---------------------------------------------------------------------------
# the q-binomial product formula
# ---------------------------------------------------------------------------


def test_fermionic_golden_values():
    assert h_poly_fermionic(1) == ONE
    assert h_poly_fermionic(2) == IntPoly((1, 1))
    assert h_poly_fermionic(3) == IntPoly((1, 2, 3, 1))
    assert h_poly_fermionic(4) == IntPoly((1, 3, 7, 10, 10, 6, 1))
    assert h_poly_fermionic(5) == H5_POLY


@pytest.mark.parametrize("n", range(1, 9))
def test_fermionic_equals_dellac_statistic(n):
    assert h_poly_fermionic(n) == h_poly_dellac(n)


def fermionic_by_paths(n):
    """The q-binomial product formula summed path by path."""
    total = IntPoly()
    for f in iter_motzkin(n):
        term = ONE
        for k in range(1, n):
            term = term * q_binomial_or_zero(1 + f[k - 1], f[k])
            term = term * q_binomial_or_zero(1 + f[k + 1], f[k])
        total = total + term.shift(fermionic_exponent(f))
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_equals_the_per_path_sum(n):
    assert h_poly_fermionic(n) == fermionic_by_paths(n)


def test_exponent_nonnegative_and_shift_identity():
    for n in range(1, 11):
        for p in paths(n):
            f = p.heights
            expo = fermionic_exponent(f)
            assert expo >= 0
            shifted = n * (n - 1) // 2 + sum(
                f[k] * (f[k] - f[k + 1] - 2) for k in range(1, n)
            )
            assert expo == shifted


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_unrestricted_sum_equals_path_sum(n):
    # summing over all height vectors (not only Motzkin paths) changes
    # nothing: any jump of two or more kills a q-binomial factor
    total = IntPoly()
    for mids in product(range(n + 1), repeat=n - 1):
        f = (0,) + mids + (0,)
        term = ONE
        for k in range(1, n):
            term = term * q_binomial_or_zero(1 + f[k - 1], f[k])
            term = term * q_binomial_or_zero(1 + f[k + 1], f[k])
        if term.is_zero:
            continue
        expo = fermionic_exponent(f)
        assert expo >= 0
        total = total + term.shift(expo)
    assert total == h_poly_fermionic(n)


def test_qbin_or_zero_extends_by_zero():
    assert q_binomial_or_zero(2, 5).is_zero
    assert q_binomial_or_zero(3, -1).is_zero
    assert q_binomial_or_zero(4, 2) == IntPoly((1, 1, 2, 1, 1))


# ---------------------------------------------------------------------------
# the Laurent-weight route
# ---------------------------------------------------------------------------


def test_laurent_weight_values():
    ws = laurent_weight_system()
    assert ws.alpha(0) == LaurentPoly(0, ONE)
    assert ws.beta(0) == LaurentPoly(-1, ONE)
    assert ws.gamma(1) == LaurentPoly(-2, IntPoly((1, 2, 1)))
    # the per-path reference's choice of weight for one step
    assert step_weight(ws, 1, 0) == ws.beta(0)
    assert step_weight(ws, 0, 1) == ws.alpha(0)
    with pytest.raises(ValueError):
        step_weight(ws, 0, 2)


def test_laurent_golden_values():
    assert h_poly_laurent(1) == ONE
    assert h_poly_laurent(2) == IntPoly((1, 1))
    assert h_poly_laurent(4) == IntPoly((1, 3, 7, 10, 10, 6, 1))


@pytest.mark.parametrize("n", range(1, 15))
def test_laurent_equals_fermionic(n):
    assert h_poly_laurent(n) == h_poly_fermionic(n)


def test_laurent_raw_sum_sits_at_negative_offset():
    raw = weighted_path_sum(4, laurent_weight_system())
    assert isinstance(raw, LaurentPoly)
    assert raw.offset == -(4 * 3 // 2)


# ---------------------------------------------------------------------------
# reversal
# ---------------------------------------------------------------------------


def test_tilde_golden_values():
    assert tilde_h(0) == ONE
    assert tilde_h(2) == IntPoly((1, 1))
    assert tilde_h(3) == IntPoly((1, 3, 2, 1))
    assert tilde_h(4) == IntPoly((1, 6, 10, 10, 7, 3, 1))


def test_resource_limits():
    # the enumeration's checks fire at the call, before anything is iterated
    with pytest.raises(ResourceLimitError):
        iter_motzkin(15)
    with pytest.raises(ValueError):
        iter_motzkin(-1)
    with pytest.raises(ResourceLimitError):
        weighted_path_sum(15, integer_weight_system())
    with pytest.raises(ValueError):
        h_poly_fermionic(0)
    with pytest.raises(ResourceLimitError):
        h_poly_fermionic(15)
    with pytest.raises(ValueError):
        h_motzkin_rational(0)
