import pytest

from genocchi import admissible, dellac, hanzeng, verify
from genocchi.errors import InexactDivisionError, InternalInconsistencyError, ResourceLimitError
from genocchi.exactalg import ZERO, IntPoly
from genocchi.verify import CROSSCHECK_MAX_N, CheckReport, crosscheck

EXPECTED_CHECKS = {
    "contraction-named",
    "contraction-random",
    "counts-agree",
    "divisibility",
    "dumont-oracle",
    "hanzeng-reversal",
    "hq-three-way",
    "q1-hn-series",
    "series-f1",
    "series-f2",
    "triangle-pairs-oracle",
    "viennot-doubling",
}


def test_all_checks_pass_at_n3():
    report = crosscheck(3)
    assert report.failures == 0
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    assert all(c.status == "pass" for c in report.checks)
    by_name = {c.name: c for c in report.checks}
    assert by_name["counts-agree"].detail == "h-values: 1,1,2,7"


def test_every_check_appears_exactly_once():
    names = [c.name for c in crosscheck(2).checks]
    assert len(names) == len(set(names)) == len(EXPECTED_CHECKS)
    assert names == sorted(names)


def test_report_is_deterministic():
    assert crosscheck(3, seed=5).json_dict() == crosscheck(3, seed=5).json_dict()


def test_seed_is_recorded():
    report = crosscheck(2, seed=42)
    assert report.seed == 42
    assert report.json_dict()["seed"] == 42
    detail = next(c for c in report.checks if c.name == "contraction-random").detail
    assert "seed=42" in detail


def test_range_caps_are_trimmed_to_n_max():
    report = crosscheck(2)
    by_name = {c.name: c for c in report.checks}
    assert by_name["dumont-oracle"].range == "n=1..2"
    assert by_name["divisibility"].range == "n=1..12"


def test_n_max_bounds():
    with pytest.raises(ValueError):
        crosscheck(0)
    with pytest.raises(ValueError):
        crosscheck(CROSSCHECK_MAX_N + 1)


def test_table_rendering():
    report = crosscheck(2)
    table = report.table()
    for name in EXPECTED_CHECKS:
        assert name in table
    assert "0 failure(s)" in table


def test_json_shape():
    data = crosscheck(2).json_dict()
    assert set(data) == {"n_max", "seed", "checks", "failures"}
    assert all(set(c) == {"name", "range", "status", "detail"} for c in data["checks"])
    assert data["failures"] == 0


def test_corrupted_window_is_detected(monkeypatch):
    # shrink the allowed band's top row by one: the n=3 catalogue loses members
    monkeypatch.setattr(dellac, "_row_window", lambda n, col: (col, n + col - 1))
    report = crosscheck(3)
    assert report.failures >= 1
    counts = next(c for c in report.checks if c.name == "counts-agree")
    assert counts.status == "fail"
    assert counts.detail == "dellac n=1: 0 != 1; dellac n=2: 0 != 2; dellac n=3: 0 != 7"


def test_corrupted_window_fails_the_polynomial_check(monkeypatch):
    # the transfer sweep reads the same band: no configuration fits at n=1
    monkeypatch.setattr(dellac, "_row_window", lambda n, col: (col, n + col - 1))
    report = crosscheck(3)
    three_way = next(c for c in report.checks if c.name == "hq-three-way")
    assert three_way.status == "fail"
    assert three_way.detail == (
        "dellac/fermionic n=1: 0 != 1; dellac/fermionic n=2: 0 != 1 + q; "
        "dellac/fermionic n=3: 0 != 1 + 2*q + 3*q^2 + q^3"
    )


def over_one_plus_qx(b):
    # the Han-Zeng division with the wrong divisor 1 + qx
    u, quotient = ZERO, []
    for c in b:
        u = c - u.shift(1)
        quotient.append(u)
    if quotient.pop():
        raise InexactDivisionError("bivariate division leaves a remainder")
    return quotient


def test_wrong_hanzeng_divisor_fails_the_reversal_check(monkeypatch):
    monkeypatch.setattr(hanzeng, "_over_divisor", over_one_plus_qx)
    by_name = {c.name: c for c in crosscheck(3).checks}
    assert by_name["hanzeng-reversal"].status == "fail"
    assert "InternalInconsistencyError('recurrence step n=2" in by_name["hanzeng-reversal"].detail
    assert by_name["hq-three-way"].status == "pass"


@pytest.mark.parametrize("error", [InternalInconsistencyError, ResourceLimitError])
def test_a_raising_check_keeps_its_problems(monkeypatch, error):
    # wrong for n < 2, raising from n = 2: both the mismatches and the error are reported
    def barc(n):
        if n > 2:
            raise error("gave up")
        return IntPoly((5,))

    monkeypatch.setattr(verify, "hanzeng_barc", barc)
    check = next(c for c in crosscheck(3).checks if c.name == "hanzeng-reversal")
    assert check.status == "fail"
    assert check.detail == f"n=0: 5 != 1; n=1: 5 != 1; {error.__name__}('gave up')"


def shift_elements(walk):
    return (tuple(m << 1 for m in masks) for masks in walk)


def repeat_first(walk):
    first = next(walk)
    return (first for _ in [first, *walk])


@pytest.mark.parametrize("corrupt", [shift_elements, repeat_first])
def test_count_preserving_walk_corruption_is_detected(monkeypatch, corrupt):
    # the count stays right, so only the validated objects can expose the walk
    iter_admissible = verify.iter_admissible
    monkeypatch.setattr(verify, "iter_admissible", lambda n: corrupt(iter_admissible(n)))
    counts = next(c for c in crosscheck(4).checks if c.name == "counts-agree")
    assert counts.status == "fail"
    assert "admissible n=4" in counts.detail


def arrow_target_off_by_one(self, v):
    # the grid digraph with its missing arrows one row early: (l, l) -> ...
    # stays out, (l, l + 1) -> (l + 1, l + 1) comes in
    l, j = v
    if l + 1 <= self.n - 1 and l != j:
        return (l + 1, j)
    return None


def test_wrong_grid_digraph_is_detected(monkeypatch):
    # the closed-subset count is the same under this digraph, so only the
    # closure of each walked sequence can expose it
    monkeypatch.setattr(admissible.GammaGraph, "arrow_target", arrow_target_off_by_one)
    by_name = {c.name: c for c in crosscheck(4).checks}
    assert by_name["counts-agree"].status == "fail"
    assert by_name["counts-agree"].detail == (
        "admissible n=3: invalid item: vertex set [(1, 2), (2, 1), (2, 3)] "
        "is not closed in GammaGraph(3); "
        "admissible n=4: invalid item: vertex set [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)] "
        "is not closed in GammaGraph(4)"
    )
    assert {c.name for c in by_name.values() if c.status == "fail"} == {"counts-agree"}


def test_skipped_status_when_a_model_is_capped(monkeypatch):
    monkeypatch.setenv("GENOCCHI_MAX_N", "2")
    report = crosscheck(3)
    by_name = {c.name: c for c in report.checks}
    assert by_name["counts-agree"].status == "skipped"
    # checks that stay under the cap still run
    assert by_name["divisibility"].status == "pass"


def test_failures_property_counts_only_failures():
    report = CheckReport(n_max=1, seed=0)
    assert report.failures == 0
