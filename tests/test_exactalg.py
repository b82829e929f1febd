import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from genocchi.errors import InexactDivisionError
from genocchi.exactalg import (
    ONE,
    Q,
    ZERO,
    IntPoly,
    LaurentPoly,
    PowerSeries,
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
    assert P().is_zero


def test_degree_of_zero_is_an_error():
    with pytest.raises(ValueError):
        _ = ZERO.degree
    assert P(0, 0, 5).degree == 2


def test_arithmetic_small_cases():
    assert P(1, 1) + P(0, -1) == ONE
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)
    assert (ONE + Q) * (ONE + Q) * (ONE + Q) == P(1, 3, 3, 1)
    assert 2 * Q == P(0, 2)
    assert Q + (-Q) == ZERO
    assert P(1, 2, 3)(10) == 321
    assert P(1, 2, 3)(Fraction(1, 2)) == Fraction(11, 4)


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
        d = (p.degree if not p.is_zero else 0) + rng.randint(0, 3)
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
        if b.is_zero:
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


def test_q_binomial_structure():
    for m in range(13):
        for n in range(m + 1):
            b = q_binomial(m, n)
            assert b(1) == comb(m, n)
            assert all(c >= 0 for c in b.coeffs)
            expected_deg = n * (m - n)
            assert (b.degree if not b.is_zero else 0) == expected_deg
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
# Laurent polynomials
# ---------------------------------------------------------------------------


def test_laurent_canonicalization():
    # the body's leading zeros move into the offset, and zero sits at offset
    # 0, so that tuple equality is value equality
    assert LaurentPoly(-2, P(0, 1, 1)) == LaurentPoly(-1, P(1, 1)) == (-1, P(1, 1))
    assert LaurentPoly(3, P(0, 0, 5)) == (5, P(5))
    assert LaurentPoly(5, ZERO) == (0, ZERO)
    assert hash(LaurentPoly(-2, P(0, 1, 1))) == hash((-1, P(1, 1)))


def test_a_laurent_poly_equals_no_poly_or_int():
    assert LaurentPoly(0, P(1, 1)) != P(1, 1)
    assert LaurentPoly(0, ONE) != 1


def test_laurent_arithmetic():
    a = LaurentPoly(-1, P(1, 1))  # q^-1 + 1
    b = LaurentPoly(0, P(1))
    assert a + b == LaurentPoly(-1, P(1, 2))
    assert a * a == LaurentPoly(-2, P(1, 2, 1))
    assert 3 * b == b * 3 == LaurentPoly(0, P(3))
    assert 0 * a == (0, ZERO)
    assert a + LaurentPoly(-1, P(-1, -1)) == (0, ZERO)
    assert a.shift(-2) + LaurentPoly(2, ONE) == LaurentPoly(-3, P(1, 1, 0, 0, 0, 1))


laurent_parts = st.tuples(st.integers(-6, 6), st.lists(st.integers(-4, 4), max_size=5).map(IntPoly))


@settings(max_examples=200, deadline=None)
@given(x=laurent_parts, y=laurent_parts, k=st.integers(-3, 3))
def test_laurent_arithmetic_agrees_with_shifted_polynomials(x, y, k):
    # q^12 clears every negative exponent the parts and their product reach
    (a, p), (b, r) = x, y
    u, v = LaurentPoly(a, p), LaurentPoly(b, r)
    assert (u + v).shift(12).to_poly() == p.shift(a + 12) + r.shift(b + 12)
    assert (u * v).shift(12).to_poly() == (p * r).shift(a + b + 12)
    assert (k * u).shift(12).to_poly() == (u * k).shift(12).to_poly() == (k * p).shift(a + 12)
    assert u.shift(k).shift(-k) == u


def test_laurent_to_poly():
    assert LaurentPoly(2, P(1, 1)).to_poly() == P(0, 0, 1, 1)
    assert LaurentPoly(-4, ZERO).to_poly() == ZERO
    with pytest.raises(ValueError):
        LaurentPoly(-1, P(1)).to_poly()


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------


def test_series_inverse_of_one_minus_s():
    geom = PowerSeries(6, (ONE, IntPoly((-1,))) + (ZERO,) * 5).inverse()
    assert all(geom.coefficient(n) == ONE for n in range(7))


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries(3, (P(2), ZERO, ZERO, ZERO)).inverse()


def test_series_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [ONE] + [rand_poly(rng, max_deg=2, span=3) for _ in range(6)]
        inv = PowerSeries(6, coeffs).inverse().coeffs
        for n in range(7):
            total = sum((coeffs[i] * inv[n - i] for i in range(n + 1)), ZERO)
            assert total == (ONE if n == 0 else ZERO)


def test_series_length_validation():
    with pytest.raises(ValueError):
        PowerSeries(2, (ONE,))
    with pytest.raises(ValueError):
        PowerSeries(1, (ONE, ONE)).coefficient(2)


def test_series_coefficients_are_polynomials():
    series = PowerSeries(2, (1, Q, 0))
    assert series == (2, (ONE, Q, ZERO))
    assert series.coefficient(1) == Q
    assert series.evaluate_q(3) == [1, 3, 0]


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
    assert (packed == 0) == p.is_zero
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
