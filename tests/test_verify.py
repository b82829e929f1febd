import json
import random
from json.encoder import py_encode_basestring_ascii

import pytest

from genocchi import admissible, dellac, hanzeng, seidel, verify
from genocchi import report as report_module
from genocchi.contfrac import SFraction, contract_S_to_J, expand
from genocchi.errors import InternalInconsistencyError, ResourceLimitError
from genocchi.exactalg import IntPoly
from genocchi.hanzeng import _over_q_power
from genocchi.lanes import random_draws
from genocchi.verify import CROSSCHECK_MAX_N, CheckReport, CheckResult, crosscheck

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


@pytest.mark.parametrize("n_max", [1, 7, 8])
def test_crosscheck_sweeps_the_seidel_triangle_at_most_three_times(monkeypatch, n_max):
    # one sweep each for the shared h, viennot-doubling's medians and divisibility
    sweeps = []
    columns = seidel.seidel_columns

    def counted(n_columns):
        sweeps.append(n_columns)
        yield from columns(n_columns)

    monkeypatch.setattr(seidel, "seidel_columns", counted)
    assert crosscheck(n_max).failures == 0
    assert len(sweeps) <= 3


def test_a_seidel_fault_fails_every_check_that_reads_the_triangle(monkeypatch):
    columns = seidel.seidel_columns

    def faulty(n_columns):
        for n, col in enumerate(columns(n_columns), start=1):
            yield (col[0] + 1, *col[1:]) if n == 6 else col  # H(5) = g(1, 6): 8 -> 9

    monkeypatch.setattr(seidel, "seidel_columns", faulty)
    failed = {c.name for c in crosscheck(4).checks if c.status == "fail"}
    assert failed == {"counts-agree", "dumont-oracle", "triangle-pairs-oracle", "viennot-doubling", "divisibility"}


def test_table_rendering():
    report = crosscheck(2)
    table = report.table()
    for name in EXPECTED_CHECKS:
        assert name in table
    assert "0 failure(s)" in table


def test_a_report_without_checks_renders_only_its_summary():
    assert CheckReport(n_max=1, seed=0).table() == "0 checks, 0 failure(s), seed=0"


def test_json_shape():
    data = crosscheck(2).json_dict()
    assert set(data) == {"n_max", "seed", "checks", "failures"}
    assert all(set(c) == {"name", "range", "status", "detail"} for c in data["checks"])
    assert data["failures"] == 0


ODD_CHECKS = (
    CheckResult('a "quoted" name', "n=1..2", "pass", "a back\\slash and a solidus /"),
    CheckResult("tab\tand newline\n", "\r\x00\x1f\x7f", "fail", "é ü κ \u2028 \U0001f600 \ufeff"),
)


@pytest.mark.parametrize("checks", [(), ODD_CHECKS], ids=["empty", "odd-strings"])
@pytest.mark.parametrize("escaper", ["c", "python"])
def test_the_json_text_is_what_json_dumps_writes(monkeypatch, checks, escaper):
    # the C escaper json.dumps calls, and the pure-Python one json falls back
    # to, which the report uses where _json is missing
    if escaper == "python":
        monkeypatch.setattr(report_module, "_json_string", py_encode_basestring_ascii)
    report = CheckReport(3, -7, checks)
    assert report.json_text() == json.dumps(report.json_dict(), separators=(",", ":"))


def test_a_failing_report_writes_what_json_dumps_writes(monkeypatch):
    monkeypatch.setattr(dellac, "_row_window", lambda n, col: (col, n + col - 1))
    report = crosscheck(3, seed=2**70)
    assert report.failures
    assert report.json_text() == json.dumps(report.json_dict(), separators=(",", ":"))


@pytest.mark.parametrize("seed", [0, 1, 7, -3, 140892, 596854, 2**70])
def test_the_trials_draw_what_randint_draws(seed):
    rng = random.Random(seed)
    assert random_draws(seed, 2_000) == [rng.randint(1, 5) for _ in range(2_000)]


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


def over_q_power_too_high(p, j):
    # the Han-Zeng division with the wrong divisor q (1 + qx - x), which is
    # q^(j+1) at x = [j]_q
    return _over_q_power(p, j + 1)


def test_wrong_hanzeng_divisor_fails_the_reversal_check(monkeypatch):
    monkeypatch.setattr(hanzeng, "_over_q_power", over_q_power_too_high)
    by_name = {c.name: c for c in crosscheck(3).checks}
    assert by_name["hanzeng-reversal"].status == "fail"
    assert "InternalInconsistencyError('recurrence step n=2" in by_name["hanzeng-reversal"].detail
    assert by_name["hq-three-way"].status == "pass"


@pytest.mark.parametrize("error", [InternalInconsistencyError, ResourceLimitError])
def test_a_raising_check_keeps_its_problems(monkeypatch, error):
    # wrong for n < 2, raising from n = 2: both the mismatches and the error are reported
    def barcs(count):
        yield from (IntPoly((5,)), IntPoly((5,)))
        raise error("gave up")

    monkeypatch.setattr(verify, "hanzeng_sequence", barcs)
    check = next(c for c in crosscheck(3).checks if c.name == "hanzeng-reversal")
    assert check.status == "fail"
    assert check.detail == f"n=0: 5 != 1; n=1: 5 != 1; {error.__name__}('gave up')"


def test_hanzeng_reversal_builds_one_table(monkeypatch):
    # crosscheck(7) reads hanzeng_barc(1..8) from one sweep: past C_1, the
    # rows C_2..C_8 of one table over [1]..[8], 7 rows of 28 entries in all,
    # where a table per index builds rows C_2..C_k for each k: 28 rows, 84 entries
    steps = []
    over_q_power = hanzeng._over_q_power
    monkeypatch.setattr(hanzeng, "_over_q_power", lambda p, j: steps.append(j) or over_q_power(p, j))
    by_name = {c.name: c for c in crosscheck(7).checks}
    assert by_name["hanzeng-reversal"].status == "pass"
    assert steps.count(1) == 7  # each row past C_1 opens with the entry at [1]
    assert len(steps) == 8 * 7 // 2


def test_the_fermionic_route_is_swept_once(monkeypatch):
    # crosscheck(7) reads h_n(q), and tilde_h(n) reversed from it, for every
    # n <= 7 from one sweep to 7, not one sweep per n
    calls = []
    sequence = verify.fermionic_sequence
    monkeypatch.setattr(verify, "fermionic_sequence", lambda n_max: calls.append(n_max) or sequence(n_max))
    report = crosscheck(7)
    assert report.failures == 0
    assert calls == [7]


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
    # the one fermionic sweep checks the cap at n_max, before any row reads it
    for name in ("hq-three-way", "series-f1", "series-f2", "hanzeng-reversal"):
        assert by_name[name].status == "skipped"
        assert by_name[name].detail == "motzkin enumeration capped at n=2, got n=3"


def test_failures_property_counts_only_failures():
    report = CheckReport(n_max=1, seed=0)
    assert report.failures == 0


def test_a_contraction_wrong_on_some_trials_names_exactly_those(monkeypatch):
    # the trials are expanded together, one lane each; a contraction that
    # squares c(3) for lambda_2 is wrong exactly where c(3) != c(4), and the
    # report names the trials that one expansion per trial finds wrong
    def wrong(spec):
        right = contract_S_to_J(spec)
        return right._replace(lam=lambda k: spec.c(3) * spec.c(3) if k == 2 else right.lam(k))

    monkeypatch.setattr(verify, "contract_S_to_J", wrong)
    rng = random.Random(7)
    expected = []
    for trial in range(verify.RANDOM_INSTANCES):
        values = [rng.randint(1, 5) for _ in range(2 * verify.CONTRACTION_ORDER + 2)]
        spec = SFraction(c=lambda k, v=tuple(values): v[k - 1] if k <= len(v) else 0)
        if expand(wrong(spec), verify.CONTRACTION_ORDER) != expand(spec, verify.CONTRACTION_ORDER):
            expected.append(f"pairwise contraction fails on trial {trial}")
    assert 0 < len(expected) < verify.RANDOM_INSTANCES
    check = next(c for c in crosscheck(1, seed=7).checks if c.name == "contraction-random")
    assert (check.status, check.detail) == ("fail", "; ".join(expected))
