import random

import pytest

from genocchi.contfrac import (
    AffineSFraction,
    JFraction,
    NAMED_FRACTIONS,
    SFraction,
    contract_S_to_J,
    contract_S_to_J_affine,
    expand,
    fraction_f1,
    fraction_f2,
    fraction_hn,
    fraction_viennot,
    spec_from_dict,
)
from genocchi.exactalg import IntPoly, ONE, q_binomial
from genocchi.motzkin import MotzkinPath, iter_motzkin, tilde_h
from genocchi.seidel import h_sequence, median_sequence
from genocchi.pathsums import WeightSystem
from reference import path_weight


def const_list(series):
    return series.evaluate_q(1)


def int_sfraction(values, c0=1):
    vals = tuple(int(v) for v in values)
    return SFraction(
        c=lambda k: IntPoly((vals[k - 1],)) if 1 <= k <= len(vals) else IntPoly(),
        c0=IntPoly((c0,)),
    )


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_constant_gamma_collapses_to_geometric_series():
    spec = JFraction(gamma=lambda k: IntPoly((3,)), lam=lambda k: IntPoly())
    series = expand(spec, 6)
    assert const_list(series) == [3**n for n in range(7)]


def test_f1_low_order_coefficients():
    series = expand(fraction_f1(), 4)
    assert series.coefficient(0) == ONE
    assert series.coefficient(1) == ONE
    assert series.coefficient(2) == IntPoly((1, 1))
    assert series.coefficient(3) == IntPoly((1, 3, 2, 1))
    assert series.coefficient(4) == IntPoly((1, 6, 10, 10, 7, 3, 1))


def test_viennot_generates_median_numbers():
    series = expand(fraction_viennot(), 5)
    assert const_list(series) == [1, 1, 2, 8, 56, 608]
    longer = expand(fraction_viennot(), 8)
    assert const_list(longer)[1:] == list(median_sequence(8))


def test_hn_generates_normalized_numbers():
    assert const_list(expand(fraction_hn(), 8)) == list(h_sequence(9))


def test_hn_coefficient_law():
    c = fraction_hn().c
    assert [c(k) for k in range(1, 9)] == [1, 1, 3, 3, 6, 6, 10, 10]


def test_f2_coefficient_law():
    c = fraction_f2().c
    assert c(1) == ONE
    assert c(2) == IntPoly((0, 1))
    assert c(3) == q_binomial(3, 2)
    assert c(4) == q_binomial(3, 2).shift(1)
    assert c(5) == q_binomial(4, 2)


@pytest.mark.parametrize("name", sorted(NAMED_FRACTIONS))
@pytest.mark.parametrize("order", range(11))
def test_depth_stability(name, order):
    # expanding deeper leaves the lower coefficients unchanged
    spec = NAMED_FRACTIONS[name]()
    deeper = expand(spec, order + 3)
    assert expand(spec, order).coeffs == deeper.coeffs[: order + 1]


def test_expansion_is_not_capped_like_an_enumeration(monkeypatch):
    monkeypatch.setenv("GENOCCHI_MAX_N", "2")
    assert const_list(expand(fraction_hn(), 20)) == list(h_sequence(21))


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        expand(fraction_f1(), -1)


# ---------------------------------------------------------------------------
# the two q-fractions agree and generate the reversed polynomials
# ---------------------------------------------------------------------------


def test_f1_equals_f2():
    assert expand(fraction_f1(), 10) == expand(fraction_f2(), 10)


@pytest.mark.parametrize("via", ("f1", "f2"))
def test_series_coefficients_are_reversed_polynomials(via):
    series = expand(NAMED_FRACTIONS[via](), 7)
    for n in range(8):
        assert series.coefficient(n) == tilde_h(n)


def test_tilde_series_edges():
    assert const_list(expand(fraction_f1(), 0)) == [1]
    low = expand(fraction_f1(), 2)
    assert low.coefficient(2) == IntPoly((1, 1))


def test_q1_specialization_matches_plain_fraction():
    at_one = expand(fraction_f1(), 8).evaluate_q(1)
    assert at_one == const_list(expand(fraction_hn(), 8))
    assert at_one == list(h_sequence(9))


# ---------------------------------------------------------------------------
# Flajolet: J-fraction coefficients are weighted path sums, checked here
# against explicit path enumeration rather than the transfer sweep
# ---------------------------------------------------------------------------


def enumerated_path_sum(n, ws):
    total = sum((path_weight(MotzkinPath(h), ws) for h in iter_motzkin(n)), IntPoly())
    return total if isinstance(total, IntPoly) else ONE * total


def j_weights(spec):
    # gamma comes from the fraction; the lambdas split as alpha(k) = lam(k+1),
    # beta = 1, since only the product alpha*beta enters
    return WeightSystem(alpha=lambda m: spec.lam(m + 1), beta=lambda m: ONE, gamma=spec.gamma)


def test_expansion_matches_weighted_path_sums_for_f1():
    spec = fraction_f1()
    series = expand(spec, 8)
    ws = j_weights(spec)
    for n in range(9):
        assert series.coefficient(n) == enumerated_path_sum(n, ws)


def test_expansion_matches_weighted_path_sums_random():
    rng = random.Random(17)
    gammas = [rng.randint(-3, 3) for _ in range(8)]
    lams = [rng.randint(-3, 3) for _ in range(8)]
    spec = JFraction(
        gamma=lambda k: IntPoly((gammas[k],)),
        lam=lambda k: IntPoly((lams[k - 1],)),
    )
    ws = WeightSystem(alpha=lambda m: lams[m], beta=lambda m: 1, gamma=lambda m: gammas[m])
    series = expand(spec, 6)
    for n in range(7):
        assert series.coefficient(n) == enumerated_path_sum(n, ws)


@pytest.mark.parametrize("name", sorted(NAMED_FRACTIONS))
def test_every_named_fraction_is_a_weighted_path_sum(name):
    spec = NAMED_FRACTIONS[name]()
    ws = j_weights(spec if isinstance(spec, JFraction) else contract_S_to_J(spec))
    series = expand(spec, 8)
    for n in range(9):
        assert series.coefficient(n) == enumerated_path_sum(n, ws)


# ---------------------------------------------------------------------------
# contraction transforms
# ---------------------------------------------------------------------------


def test_pairwise_contraction_recovers_the_j_fraction():
    contracted = contract_S_to_J(fraction_f2())
    f1 = fraction_f1()
    for k in range(6):
        assert contracted.gamma(k) == f1.gamma(k)
    for k in range(1, 6):
        assert contracted.lam(k) == f1.lam(k)
    # the worked coefficient: gamma_1 = q + (3 choose 2) = (1+q)^2
    assert contracted.gamma(1) == IntPoly((1, 2, 1)) == q_binomial(2, 1) * q_binomial(2, 1)
    assert contracted.lam(2) == (q_binomial(3, 2) * q_binomial(3, 2)).shift(1)
    assert expand(contracted, 8) == expand(fraction_f2(), 8)


def test_affine_contraction_of_the_median_fraction():
    affine = contract_S_to_J_affine(fraction_viennot())
    assert affine.head == ONE
    assert affine.linear == ONE
    assert [affine.gamma(k) for k in (1, 2, 3, 4, 5)] == [2, 8, 18, 32, 50]
    assert [affine.lam(k) for k in (1, 2, 3, 4)] == [4, 36, 144, 400]
    assert expand(affine, 10) == expand(fraction_viennot(), 10)


def test_contraction_of_the_zero_fraction():
    zero = int_sfraction(())
    assert const_list(expand(zero, 5)) == [1, 0, 0, 0, 0, 0]
    assert expand(contract_S_to_J(zero), 5) == expand(zero, 5)
    assert expand(contract_S_to_J_affine(zero), 5) == expand(zero, 5)


def test_contraction_keeps_the_head_constant():
    spec = int_sfraction((2, 1, 3), c0=4)
    reference = expand(spec, 6)
    assert reference.coefficient(0) == IntPoly((4,))
    assert expand(contract_S_to_J(spec), 6) == reference
    assert expand(contract_S_to_J_affine(spec), 6) == reference


@pytest.mark.parametrize("trial", range(20))
def test_contractions_on_random_sequences(trial):
    rng = random.Random(1000 + trial)
    values = [rng.randint(1, 5) for _ in range(14)]
    spec = int_sfraction(values)
    reference = expand(spec, 6)
    assert expand(contract_S_to_J(spec), 6) == reference
    assert expand(contract_S_to_J_affine(spec), 6) == reference


# ---------------------------------------------------------------------------
# ad-hoc spec parsing
# ---------------------------------------------------------------------------


def test_spec_from_dict_presets_and_kinds():
    assert expand(spec_from_dict({"preset": "viennot"}), 5) == expand(fraction_viennot(), 5)
    j = spec_from_dict({"kind": "J", "gamma": [1, 2], "lambda": [3]})
    assert isinstance(j, JFraction)
    assert j.gamma(0) == 1 and j.gamma(1) == 2 and j.gamma(5) == 0
    assert j.lam(1) == 3 and j.lam(2) == 0
    s = spec_from_dict({"kind": "S", "c0": 2, "c": [1, 1]})
    assert isinstance(s, SFraction)
    assert const_list(expand(s, 3)) == [2, 2, 4, 8]


def test_spec_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        spec_from_dict({"preset": "nope"})
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "X"})
    with pytest.raises(TypeError):
        expand(object(), 3)


def test_spec_from_dict_is_strict():
    # no silent coercion of values, no ignored keys
    for data in (
        {"kind": "S", "c": [1.9, True, "3"]},
        {"kind": "S", "c": [1], "c0": True},
        {"kind": "S", "c": 5},
        {"kind": "S", "c": [1], "extra": 0},
        {"kind": "J", "gamma": [1], "c": [1]},
        {"kind": "J", "lambda": [2.0]},
        {"kind": ["S"]},
        {"preset": ["hn"]},
        {"preset": "hn", "c": [1]},
        [1, 2],
    ):
        with pytest.raises(ValueError):
            spec_from_dict(data)


def test_affine_spec_direct_construction():
    # 1 + s/(1 - s) has coefficients 1, 1, 1, 1, ...
    spec = AffineSFraction(
        head=ONE, linear=ONE, gamma=lambda k: ONE if k == 1 else IntPoly(), lam=lambda k: IntPoly()
    )
    assert const_list(expand(spec, 5)) == [1, 1, 1, 1, 1, 1]
