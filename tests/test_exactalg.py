import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from genocchi.errors import InexactDivisionError
from genocchi.exactalg import (
    ONE,
    ZERO,
    Factors,
    IntPoly,
    PowerSeries,
    over_factors,
    poly_reverse,
    q_binomial,
    unpack_poly,
)
from reference import poly_exact_div, q_factorial, q_int


def P(*coeffs):
    return IntPoly(coeffs)


def rand_poly(rng, max_deg=6, span=9):
    return IntPoly([rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


# ---------------------------------------------------------------------------
# IntPoly basics
# ---------------------------------------------------------------------------


def test_canonical_form_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).coeffs == ()
    assert not P()


def test_arithmetic_small_cases():
    assert P(1, 1) + P(0, -1) == ONE
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)
    Q = IntPoly((0, 1))
    assert (ONE + Q) * (ONE + Q) * (ONE + Q) == P(1, 3, 3, 1)
    assert 2 * Q == P(0, 2)
    assert Q + Q * -1 == ZERO
    assert ZERO * P(1, 2) == P(1, 2) * ZERO == ZERO * ZERO == ZERO
    assert P(1, 2, 3)(10) == 321
    assert P(1, 2, 3)(Fraction(1, 2)) == Fraction(11, 4)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.integers(-(2**70), 2**70), max_size=6).map(IntPoly), k=st.sampled_from((-3, 0, 1, 7)))
def test_an_int_multiplies_as_its_constant_polynomial(p, k):
    # the int path scales the coefficients without the constant's double loop
    assert (p * k).coeffs == (p * IntPoly((k,))).coeffs
    assert (k * p).coeffs == (p * k).coeffs
    assert p * 1 is p


def test_shift_multiplies_by_power_of_q():
    assert P(1, 1).shift(2) == P(0, 0, 1, 1)
    assert ZERO.shift(5) == ZERO
    with pytest.raises(ValueError):
        P(1).shift(-1)


def test_render_format():
    assert P(1, 2, 3, 1).render() == "1 + 2*q + 3*q^2 + q^3"
    assert P(0, 1).render() == "q"
    assert P(5).render() == "5"
    assert ZERO.render() == "0"
    assert P(0, 0, 7).render() == "7*q^2"
    assert P(1, -3, 0, -1).render() == "1 - 3*q - q^3"


# ---------------------------------------------------------------------------
# reversal
# ---------------------------------------------------------------------------


def test_reverse_golden_values():
    assert poly_reverse(P(1, 2, 3, 1), 3) == P(1, 3, 2, 1)
    assert poly_reverse(ONE, 0) == ONE
    assert poly_reverse(P(1, 1), 1) == P(1, 1)


def test_reverse_rejects_too_small_degree():
    with pytest.raises(ValueError):
        poly_reverse(P(1, 2, 3), 1)


def test_reverse_is_an_involution():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(rng)
        d = max(len(p.coeffs) - 1, 0) + rng.randint(0, 3)
        assert poly_reverse(poly_reverse(p, d), d) == p


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_exact_division_golden_values():
    assert poly_exact_div(P(1, 2, 1), P(1, 1)) == P(1, 1)
    assert poly_exact_div(P(1, 1), P(1, 1)) == ONE
    with pytest.raises(InexactDivisionError):
        poly_exact_div(P(1, 1, 1), P(1, 1))


def test_division_by_zero_is_a_domain_error():
    with pytest.raises(ValueError):
        poly_exact_div(ONE, ZERO)


def test_division_inverts_multiplication():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        a, b = rand_poly(rng), rand_poly(rng)
        if not b:
            continue
        assert poly_exact_div(a * b, b) == a
        checked += 1


def test_non_integer_quotient_is_inexact():
    # (q^2 - 1) / (2q - 2) is (q+1)/2 over the rationals, so not integral
    with pytest.raises(InexactDivisionError):
        poly_exact_div(P(-1, 0, 1), P(-2, 2))


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------


def test_q_binomial_golden_values():
    assert q_binomial(2, 1) == P(1, 1)
    for m in range(9):
        assert q_binomial(m, 0) == ONE
    assert q_binomial(4, 2) == P(1, 1, 2, 1, 1)


def test_q_binomial_needs_no_recursion_depth():
    q_binomial.cache_clear()  # a cold cache: no smaller values to lean on
    assert q_binomial(3000, 1) == IntPoly((1,) * 3000)
    assert q_binomial(3000, 2999) == IntPoly((1,) * 3000)


def test_q_binomial_rejects_bad_indices():
    # a negative upper index has no subsets to count; a lower index outside
    # 0..m is not bad, it counts none (below)
    for m, n in ((-1, 0), (-1, -1), (-2, 1)):
        with pytest.raises(ValueError):
            q_binomial(m, n)


def test_q_binomial_is_zero_outside_its_range():
    # the standard convention, which lets the fermionic sum run over every
    # height vector: a jump of two or more meets a zero factor
    for m, n in ((2, 3), (2, 5), (3, -1), (0, 1), (0, -1)):
        assert q_binomial(m, n) == ZERO
    assert q_binomial(4, 2) == P(1, 1, 2, 1, 1)


def brute_qbin(m, n):
    # sum of q^(sum of chosen - smallest possible sum) over n-subsets of 1..m
    counts = {}
    base = n * (n + 1) // 2
    for combo in combinations(range(1, m + 1), n):
        e = sum(combo) - base
        counts[e] = counts.get(e, 0) + 1
    top = max(counts) if counts else 0
    return IntPoly([counts.get(i, 0) for i in range(top + 1)])


@pytest.mark.parametrize("m", range(0, 9))
def test_q_binomial_matches_subset_statistic(m):
    for n in range(m + 1):
        assert q_binomial(m, n) == brute_qbin(m, n)


def test_q_binomial_matches_factorial_quotient():
    for m in range(0, 11):
        for n in range(m + 1):
            assert q_binomial(m, n) == poly_exact_div(
                q_factorial(m), q_factorial(n) * q_factorial(m - n)
            )


def one_minus_q_to(a):
    """1 - q^a, for a >= 1."""
    return IntPoly((1,) + (0,) * (a - 1) + (-1,))


@settings(max_examples=300, deadline=None)
@given(mk=st.integers(0, 16).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
@example(mk=(13, 1))  # sizes past m = 12, checked on every run
@example(mk=(16, 8))
def test_q_binomial_is_the_product_formula(mk):
    # [m choose k]_q = prod_{i=1..k} (1 - q^(m-k+i)) / (1 - q^i), divided
    # exactly, past the range the q-factorial quotient above checks
    m, k = mk
    num = den = ONE
    for i in range(1, k + 1):
        num = num * one_minus_q_to(m - k + i)
        den = den * one_minus_q_to(i)
    assert q_binomial(m, k) == poly_exact_div(num, den)


def test_q_binomial_structure():
    for m in range(13):
        for n in range(m + 1):
            b = q_binomial(m, n)
            assert b(1) == comb(m, n)
            assert all(c >= 0 for c in b.coeffs)
            expected_deg = n * (m - n)
            assert len(b.coeffs) - 1 == expected_deg
            assert b == poly_reverse(b, expected_deg)  # palindromic


def test_q_binomial_pascal_recurrence():
    for m in range(1, 13):
        for n in range(1, m):
            assert q_binomial(m, n) == q_binomial(m - 1, n - 1) + q_binomial(m - 1, n).shift(n)


def test_q_binomial_two_column_factorizations():
    # products of an even-step and a full geometric block
    for n in range(1, 7):
        even_block = IntPoly([1 if i % 2 == 0 else 0 for i in range(2 * n - 1)])
        assert q_binomial(2 * n, 2) == even_block * q_int(2 * n - 1)
        assert q_binomial(2 * n + 1, 2) == even_block * q_int(2 * n + 1)


def test_rational_canonical_form_is_fractions():
    # the package leans on fractions.Fraction: positive denominator, reduced
    r = Fraction(-4, -8)
    assert (r.numerator, r.denominator) == (1, 2)
    assert Fraction(6, -4).denominator == 2


def test_q_binomial_memo_survives_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    q_binomial.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: q_binomial(30, 15), range(32)))
    assert all(r == results[0] for r in results)
    assert results[0](1) == comb(30, 15)


def test_constants_hash_like_their_int_value():
    assert hash(IntPoly((5,))) == hash(5)
    assert hash(ZERO) == hash(0)
    assert {IntPoly((2,)): "a"}[IntPoly((2,))] == "a"


# ---------------------------------------------------------------------------
# the factor kernel
# ---------------------------------------------------------------------------

POLYS = st.lists(st.integers(-(2**70), 2**70), max_size=8).map(IntPoly)
EXPONENTS = st.lists(st.integers(1, 7), max_size=4)


def schoolbook_product(p, exponents):
    for a in exponents:
        p = p * one_minus_q_to(a)
    return p


@settings(max_examples=300, deadline=None)
@given(p=POLYS, ups=EXPONENTS, downs=EXPONENTS)
@example(p=P(1, 2, 3), ups=[], downs=[2, 3])  # a stride past 1 on every run
def test_over_factors_is_the_schoolbook_product_and_its_inverse(p, ups, downs):
    product = schoolbook_product(p, ups)
    assert IntPoly(over_factors(p.coeffs, ups, ())) == product
    assert IntPoly(over_factors(schoolbook_product(p, downs).coeffs, (), downs)) == p
    assert IntPoly(over_factors(schoolbook_product(product, downs).coeffs, ups, downs)) == schoolbook_product(
        product, ups
    )


@settings(max_examples=200, deadline=None)
@given(p=POLYS, b=st.integers(1, 7))
def test_over_factors_refuses_an_inexact_division(p, b):
    # p (1 - q^b) + 1 leaves the remainder 1
    with pytest.raises(InexactDivisionError):
        over_factors((p * one_minus_q_to(b) + 1).coeffs, (), (b,))


# q^shift prod (1 - q^(b c)) prod (1 - q^a) / prod (1 - q^b): every quotient exact
FACTORS = st.builds(
    lambda shift, pairs, extra: Factors(shift, tuple(b * c for b, c in pairs) + tuple(extra), tuple(b for b, _ in pairs)),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=3),
    st.lists(st.integers(1, 5), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(f=FACTORS, g=FACTORS, p=st.one_of(st.integers(-5, 5), POLYS))
def test_factors_multiply_and_add_as_their_expansion(f, g, p):
    # the forms contract_S_to_J and the path sweep use; each side's plain
    # expansion multiplies by the schoolbook product
    shift, ups, downs = f.factors
    plain_f, plain_g = IntPoly(f.coeffs), IntPoly(g.coeffs)
    assert plain_f == poly_exact_div(schoolbook_product(ONE, ups).shift(shift), schoolbook_product(ONE, downs))
    assert f * p == plain_f * p
    assert p * f == p * plain_f
    assert f * g == plain_f * plain_g
    assert f + g == plain_f + plain_g


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------


def test_series_inverse_of_one_minus_s():
    geom = PowerSeries(6, (ONE, IntPoly((-1,))) + (ZERO,) * 5).inverse()
    assert geom.coeffs == (ONE,) * 7


def test_series_inverse_requires_unit_constant():
    for head in (P(2), ZERO, P(-1), P(1, 1), P(0, 1)):
        for order in (0, 3):
            with pytest.raises(ValueError, match="constant term 1"):
                PowerSeries(order, (head,) + (ZERO,) * order).inverse()


def test_series_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [ONE] + [rand_poly(rng, max_deg=2, span=3) for _ in range(6)]
        inv = PowerSeries(6, coeffs).inverse().coeffs
        for n in range(7):
            total = sum((coeffs[i] * inv[n - i] for i in range(n + 1)), ZERO)
            assert total == (ONE if n == 0 else ZERO)


@settings(max_examples=200, deadline=None)
@given(tail=st.lists(st.lists(st.integers(-9, 9), max_size=4).map(IntPoly), max_size=8))
@example(tail=[P(-1), P(0, -2), P(3, 0, -1)])
def test_series_inverse_inverts(tail):
    # the product with the inverse, convolved through the order, is 1
    series = PowerSeries(len(tail), [ONE, *tail])
    inv = series.inverse()
    assert inv.order == series.order
    for n in range(series.order + 1):
        total = sum((series.coeffs[i] * inv.coeffs[n - i] for i in range(n + 1)), ZERO)
        assert total == (ONE if n == 0 else ZERO)


def test_series_length_validation():
    with pytest.raises(ValueError):
        PowerSeries(2, (ONE,))


def test_series_coefficients_are_polynomials():
    Q = IntPoly((0, 1))
    series = PowerSeries(2, (1, Q, 0))
    assert series == (2, (ONE, Q, ZERO))
    assert series.coeffs[1] == Q
    assert [c(3) for c in series.coeffs] == [1, 3, 0]


# ---------------------------------------------------------------------------
# packed polynomials
# ---------------------------------------------------------------------------


def pack(p, width):
    """The int whose slot i, bits i*width .. (i+1)*width - 1, holds
    coefficient i of p: what unpack_poly reads."""
    return sum(c << i * width for i, c in enumerate(p.coeffs))


def slot_coefficients(width):
    top = (1 << width) - 1  # the largest coefficient a slot holds
    return st.lists(st.one_of(st.just(0), st.just(top), st.integers(0, top)), max_size=12)


packed_cases = st.integers(1, 80).flatmap(lambda w: st.tuples(st.just(w), slot_coefficients(w)))


@settings(max_examples=300, deadline=None)
@given(case=packed_cases)
@example(case=(1, []))  # the zero polynomial
@example(case=(64, [(1 << 64) - 1] * 5))  # the largest coefficients only
def test_pack_round_trip(case):
    width, coeffs = case
    p = IntPoly(coeffs)
    packed = pack(p, width)
    assert unpack_poly(packed, width) == p
    assert (packed == 0) == (not p)
    # multiplying by q^k is a shift of k slots
    assert unpack_poly(packed << 3 * width, width) == p.shift(3)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(2, 40), data=st.data())
def test_packed_sums_add_slot_by_slot(width, data):
    # coefficients below half a slot cannot carry when two are added
    half = st.lists(st.integers(0, (1 << (width - 1)) - 1), max_size=8)
    p, r = IntPoly(data.draw(half)), IntPoly(data.draw(half))
    assert unpack_poly(pack(p, width) + pack(r, width), width) == p + r


def test_unpack_rejects_what_no_packing_gives():
    assert unpack_poly(255 + (1 << 8), 8) == P(255, 1)
    with pytest.raises(ValueError):
        unpack_poly(-1, 8)
    for width in (0, -3):
        with pytest.raises(ValueError):
            unpack_poly(1, width)
