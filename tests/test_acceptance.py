"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints its own pass line; `pytest -v` additionally shows one line
per criterion through the test names.
"""

import json
import random

from genocchi import dellac
from genocchi.admissible import count_closed_column_graded, iter_admissible
from genocchi.cli import run
from genocchi.contfrac import (
    SFraction,
    contract_S_to_J,
    contract_S_to_J_affine,
    expand,
    fraction_f1,
    fraction_f2,
    fraction_hn,
    fraction_viennot,
)
from genocchi.dellac import DellacConfig, dellac_length, h_poly_dellac, iter_dellac
from genocchi.exactalg import IntPoly
from genocchi.motzkin import (
    fermionic_exponent,
    h_motzkin_rational,
    h_poly_fermionic,
    h_poly_laurent,
    integer_weight_system,
    iter_motzkin,
    tilde_h,
    weighted_path_sum,
)
from genocchi.hanzeng import hanzeng_barc
from genocchi.oracles import count_dumont, count_triangle_pairs
from genocchi.seidel import h_sequence, median_sequence

H_POLYS = {
    1: IntPoly((1,)),
    2: IntPoly((1, 1)),
    3: IntPoly((1, 2, 3, 1)),
    4: IntPoly((1, 3, 7, 10, 10, 6, 1)),
}

CATALOGUE_3 = {
    ((1, 2), (3, 4), (5, 6)),
    ((1, 2), (3, 5), (4, 6)),
    ((1, 2), (4, 5), (3, 6)),
    ((1, 3), (2, 4), (5, 6)),
    ((1, 3), (2, 5), (4, 6)),
    ((1, 4), (2, 3), (5, 6)),
    ((1, 4), (2, 5), (3, 6)),
}


def report(k, name):
    print(f"criterion {k:2d} ({name}): PASS")


def test_criterion_01_golden_sequences(capsys):
    assert run(["seq", "h", "--count", "7"]) == 0
    assert run(["seq", "H", "--count", "5"]) == 0
    assert run(["seq", "genocchi1", "--count", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1 1 2 7 38 295 3098", "1 2 8 56 608", "1 1 3 17 155"]
    report(1, "golden sequences")


def test_criterion_02_golden_polynomials_three_ways():
    for n, expected in H_POLYS.items():
        assert h_poly_dellac(n) == expected
        assert h_poly_fermionic(n) == expected
        assert h_poly_laurent(n) == expected
    report(2, "golden polynomials, three routes")


def test_criterion_03_six_way_count_agreement():
    spec = integer_weight_system()
    hs = list(h_sequence(8))
    for n in range(1, 8):
        h = hs[n]
        assert sum(1 for _ in iter_dellac(n)) == h
        assert sum(1 for _ in iter_admissible(n)) == h
        assert count_closed_column_graded(n) == h
        assert h_motzkin_rational(n) == h
        assert weighted_path_sum(n, spec) == h
    for n in range(1, 5):
        assert count_dumont(n) == hs[n]
    for n in range(1, 7):
        assert count_triangle_pairs(n) == hs[n + 1]
    report(3, "six-way count agreement")


def test_criterion_04_dellac_catalogue():
    configs = [DellacConfig(3, columns) for columns in iter_dellac(3)]
    assert {c.columns for c in configs} == CATALOGUE_3
    assert sorted(dellac_length(c) for c in configs) == [0, 1, 1, 2, 2, 2, 3]
    assert h_poly_dellac(3) == IntPoly((1, 2, 3, 1))
    report(4, "three-column catalogue")


def test_criterion_05_generating_function_identities():
    for via in (fraction_f1, fraction_f2):
        series = expand(via(), 6)
        for n in range(7):
            assert series.coeffs[n] == tilde_h(n)
    q1 = [c(1) for c in expand(fraction_f1(), 8).coeffs]
    plain = [c(1) for c in expand(fraction_hn(), 8).coeffs]
    hs = list(h_sequence(9))
    assert q1 == plain == hs
    viennot = [c(1) for c in expand(fraction_viennot(), 8).coeffs]
    medians = list(median_sequence(8))  # H(2n - 1) at index n - 1
    for n in range(1, 9):
        assert viennot[n] == (1 << (n - 1)) * hs[n - 1] == medians[n - 1]
    report(5, "generating-function identities")


def test_criterion_06_hanzeng_identity():
    for n in range(7):
        assert hanzeng_barc(n + 1) == tilde_h(n)  # raises on any inexact division
    report(6, "recurrence polynomials equal reversed polynomials")


def test_criterion_07_contraction_transforms():
    order = 10
    f2 = fraction_f2()
    assert expand(contract_S_to_J(f2), order) == expand(f2, order)
    assert expand(contract_S_to_J(f2), order) == expand(fraction_f1(), order)
    assert expand(contract_S_to_J_affine(f2), order) == expand(f2, order)
    vi = fraction_viennot()
    assert expand(contract_S_to_J(vi), order) == expand(vi, order)
    assert expand(contract_S_to_J_affine(vi), order) == expand(vi, order)
    rng = random.Random(20250809)
    for _ in range(100):
        values = tuple(rng.randint(1, 5) for _ in range(2 * order + 2))
        spec = SFraction(
            c=lambda k, v=values: IntPoly((v[k - 1],)) if k <= len(v) else IntPoly()
        )
        reference = expand(spec, order)
        assert expand(contract_S_to_J(spec), order) == reference
        assert expand(contract_S_to_J_affine(spec), order) == reference
    report(7, "contraction transforms")


def test_criterion_08_divisibility():
    medians = list(median_sequence(13))  # H(2n + 1) at index n
    for n in range(1, 13):
        assert medians[n] % (1 << n) == 0
    report(8, "power-of-two divisibility")


def test_criterion_09_structural_properties():
    for n in range(1, 8):
        p = h_poly_fermionic(n)
        d = n * (n - 1) // 2
        assert len(p.coeffs) - 1 == d
        assert p.coeffs[0] == 1
        assert p.coeffs[d] == 1
    for n in range(11):
        for f in iter_motzkin(n):
            expo = fermionic_exponent(f)
            assert expo >= 0
            assert expo == n * (n - 1) // 2 + sum(
                f[k] * (f[k] - f[k + 1] - 2) for k in range(1, n)
            )
    report(9, "structural properties")


def test_criterion_10_mutation_sensitivity(monkeypatch, capsys):
    monkeypatch.setattr(dellac, "_row_window", lambda n, col: (col, n + col - 1))
    exit_code = run(["verify", "--n-max", "3", "--json"])
    out = capsys.readouterr().out
    assert exit_code == 1
    data = json.loads(out)
    assert data["failures"] >= 1
    counts = next(c for c in data["checks"] if c["name"] == "counts-agree")
    assert counts["status"] == "fail"
    assert "n=3" in counts["detail"]
    report(10, "mutation sensitivity")
