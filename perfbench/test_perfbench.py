"""Tests of the benchmark's own logic: span arithmetic, repeat counting,
output checks and the traced child.  Run with

    python -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import hashlib
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def spans(rows):
    """rows of (name_id, parent, start, end, outermost) -> summarize() arguments."""
    cols = list(zip(*rows))
    return (
        array("H", cols[0]),
        array("i", cols[1]),
        array("d", cols[2]),
        array("d", cols[3]),
        array("b", cols[4]),
    )


def test_self_time_subtracts_direct_children_only():
    # a[0,10] > b[1,5] > c[2,3];  a > b[6,7]
    rows = [(0, -1, 0.0, 10.0, 1), (1, 0, 1.0, 5.0, 1), (2, 1, 2.0, 3.0, 1), (1, 0, 6.0, 7.0, 1)]
    out = tracer.summarize(["a", "b", "c"], *spans(rows))
    assert out["names"]["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert out["names"]["b"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert out["names"]["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert out["top_level_s"] == 10.0


def test_busy_counts_a_recursive_name_once():
    # r[0,8] > r[1,5]: busy is the outer span only, self splits the interval
    rows = [(0, -1, 0.0, 8.0, 1), (0, 0, 1.0, 5.0, 0)]
    out = tracer.summarize(["r"], *spans(rows))
    assert out["names"]["r"] == {"calls": 2, "busy_s": 8.0, "self_s": 8.0}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrapped_calls_nest_and_keep_lru_cache_interface():
    t = tracer.Tracer(clock=FakeClock())

    @functools.lru_cache(maxsize=None)
    def leaf(n):
        return n

    leaf_w = t.wrap("m.leaf", leaf)
    outer = t.wrap("m.outer", lambda n: leaf_w(n) + leaf_w(n + 1))
    assert outer(1) == 3
    leaf_w.cache_clear()
    assert leaf_w.cache_info().currsize == 0
    out = tracer.summarize(t.names, t.name_ids, t.parents, t.starts, t.ends, t.outermost)
    # outer spans clock ticks 1..6, each leaf one tick
    assert out["names"]["m.outer"] == {"calls": 1, "busy_s": 5.0, "self_s": 3.0}
    assert out["names"]["m.leaf"]["calls"] == 2
    assert out["names"]["m.leaf"]["self_s"] == 2.0


def test_repeat_share_counts_equal_route_calls():
    t = tracer.Tracer()
    f = t.wrap("m.f", lambda n: n, route=True)
    g = t.wrap("m.g", lambda n: n, route=True)
    for n in (3, 3, 4, 3):
        f(n)
    g(3)
    assert (t.route_calls, t.route_repeats) == (5, 2)


def test_repeat_key_compares_specs_by_value_not_identity():
    from genocchi.contfrac import fraction_f2, fraction_hn

    t = tracer.Tracer()
    expand = t.wrap("contfrac.expand", lambda spec, order: order, route=True)
    expand(fraction_f2(), 6)  # fresh closures on every call
    expand(fraction_f2(), 6)
    expand(fraction_hn(), 6)
    expand(fraction_f2(), 7)
    assert (t.route_calls, t.route_repeats) == (4, 1)


def test_mul_accounting_by_shorter_operand():
    from genocchi.exactalg import IntPoly

    t = tracer.Tracer()
    mul = t.wrap_mul(IntPoly.__mul__, IntPoly)
    a, b = IntPoly(range(1, 11)), IntPoly(range(1, 71))
    assert mul(a, b) == a * b
    assert mul(b, b) == b * b
    assert mul(a, 2) == a * 2
    c = t.counters
    assert len(t.name_ids) == 3  # one span per multiply
    assert c["exactalg.mul.products_medium"] == 700
    assert c["exactalg.mul.products_large"] == 4900
    assert c["exactalg.mul.products_small"] == 10
    assert c["exactalg.mul.coef_products"] == 5610


def result(out: bytes, code: int = 0) -> run.Result:
    return run.Result(
        argv=["python", "-m", "genocchi.cli", "x"],
        code=code,
        wall_s=1.0,
        cpu_s=1.0,
        rss_mb=1.0,
        nbytes=len(out),
        sha256=hashlib.sha256(out).hexdigest(),
        head=out,
        tail=out.rstrip(b"\n").rsplit(b"\n", 1)[-1],
    )


def test_digest_check_fails_on_corrupted_reference_and_bad_exit():
    out = b'{"coeffs":["1","3"]}\n'
    good = {"poly x": hashlib.sha256(out).hexdigest()}
    corrupted = {"poly x": "0" + good["poly x"][1:]}
    check = run.expect_digest("poly x")
    assert check(result(out), good) is None
    assert "digest" in check(result(out), corrupted)
    assert "exit 1" in check(result(out, code=1), good)
    assert "no reference" in check(result(out), {})


def test_verify_digest_ignores_only_the_seed():
    report = b'{"n_max":2,"seed":%d,"checks":[{"detail":"3 instances, seed=%d"}],"failures":0}\n'
    reference = {"v": hashlib.sha256(run.verify_normalizer(0)(report % (0, 0))).hexdigest()}
    assert run.verify_check("v", 41)(result(report % (41, 41)), reference) is None
    assert run.verify_check("v", 41)(result(report % (41, 42)), reference) is not None
    failing = report.replace(b'"failures":0', b'"failures":1') % (41, 41)
    assert run.verify_check("v", 41)(result(failing), reference) is not None


def test_limit_output_is_checked_against_the_full_stream():
    full = result(b"a\nb\nc\n{\"total\":\"3\"}\n")
    assert run.limited_prefix(full, result(b"a\nb\n{\"total\":\"3\"}\n"), 2) is None
    assert run.limited_prefix(full, result(b"a\nc\n{\"total\":\"3\"}\n"), 2) is not None


def test_plain_int_contraction_matches_the_package():
    from genocchi.contfrac import expand, spec_from_dict

    c = [2, 7, 1, 8, 2, 8, 1, 8]
    s_spec = spec_from_dict({"kind": "S", "c": c})
    j_spec = spec_from_dict(run.contract_s_to_j(c))
    assert expand(s_spec, 9) == expand(j_spec, 9)


def test_traced_child_matches_untraced_output(tmp_path):
    argv = ["series", "f1", "--order", "5", "--json"]
    env = run.child_env(ROOT)
    plain = subprocess.run(
        [sys.executable, "-m", "genocchi.cli", *argv], env=env, capture_output=True, check=True
    )
    prefix = str(tmp_path / "t")
    traced = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), prefix, *argv],
        env=env,
        capture_output=True,
        check=True,
    )
    assert traced.stdout == plain.stdout
    header, *arrays = tracer.read_spans(prefix)
    out = tracer.summarize(header["names"], *arrays)
    assert out["names"]["contfrac.expand"]["calls"] == 1
    assert out["names"]["exactalg.mul"]["calls"] > 0
    assert out["top_level_s"] <= header["run_s"]


def test_run_process_reports_the_child_alone(tmp_path):
    res = run.run_process(
        [sys.executable, "-c", "print('x' * 10); raise SystemExit(3)"], ROOT, tmp_path / "err"
    )
    assert res.code == 3
    assert res.head == b"x" * 10 + b"\n"
    assert res.sha256 == hashlib.sha256(res.head).hexdigest()
    assert res.rss_mb > 0 and res.cpu_s >= 0
