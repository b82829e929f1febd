import pytest

from genocchi.errors import ResourceLimitError
from genocchi.exactalg import IntPoly, ONE, ZERO
from genocchi.hanzeng import HANZENG_MAX_N, hanzeng_barc
from genocchi.motzkin import tilde_h
from genocchi.seidel import h_sequence
from reference import _substitute, hanzeng_C, poly_exact_div

H = list(h_sequence(8))  # h(0)..h(7)

Q = IntPoly((0, 1))

# frozen by a hand-executed run of the recurrence, as x-coefficient tuples:
# C_2 = 1 + qx, C_3 = (1+q)(1+qx)^2
C2 = (ONE, Q)
C3 = (IntPoly((1, 1)), IntPoly((0, 2, 2)), IntPoly((0, 0, 1, 1)))

BARC = {
    1: (1,),
    2: (1,),
    3: (1, 1),
    4: (1, 3, 2, 1),
    5: (1, 6, 10, 10, 7, 3, 1),
    6: (1, 10, 30, 50, 62, 57, 43, 25, 12, 4, 1),
}


def test_first_recurrence_values():
    assert hanzeng_C(1) == (ONE,)
    assert hanzeng_C(2) == C2
    assert hanzeng_C(3) == C3


def test_substitution_examples():
    # x -> 1 + qx on x-coefficient lists
    assert _substitute([ZERO, ONE]) == [ONE, Q]
    assert _substitute([IntPoly((7,))]) == [IntPoly((7,))]
    assert _substitute([ZERO, ZERO, ONE]) == [ONE, IntPoly((0, 2)), IntPoly((0, 0, 1))]


@pytest.mark.parametrize("n, coeffs", sorted(BARC.items()))
def test_normalized_polynomials_golden(n, coeffs):
    assert hanzeng_barc(n) == IntPoly(coeffs)


@pytest.mark.parametrize("n", range(1, 25))
def test_the_q_integer_table_equals_the_bivariate_recurrence(n):
    # C_n(1, q) / (1+q)^(n-1) from the x-coefficient lists, divided by the
    # general exact division
    at_one = sum(hanzeng_C(n), ZERO)
    for _ in range(n - 1):
        at_one = poly_exact_div(at_one, ONE + Q)
    assert hanzeng_barc(n) == at_one


@pytest.mark.parametrize("n", range(0, 15))
def test_identity_with_reversed_polynomials(n):
    assert hanzeng_barc(n + 1) == tilde_h(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_value_at_one_is_the_shifted_sequence(n):
    # also exercises exactness of every intermediate division up to n = 8
    assert hanzeng_barc(n)(1) == H[n - 1]


def test_domain_errors():
    with pytest.raises(ValueError):
        hanzeng_C(0)
    with pytest.raises(ValueError):
        hanzeng_barc(0)


def test_recurrence_is_bounded():
    # raised before any recursion, so a huge index cannot exhaust the stack
    for n in (HANZENG_MAX_N + 1, 1200):
        with pytest.raises(ResourceLimitError):
            hanzeng_C(n)
        with pytest.raises(ResourceLimitError):
            hanzeng_barc(n)
