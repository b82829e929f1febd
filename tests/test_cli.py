import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from genocchi import (
    admissible,
    cli,
    dellac,
    hanzeng,
    iter_admissible,
    iter_dellac,
    iter_motzkin,
    motzkin,
    seidel,
    specfile,
    stream_admissible,
    stream_dellac,
    stream_motzkin,
)
from genocchi.admissible import AdmissibleSequence
from genocchi.cli import COMMANDS, _fast_parse, run
from genocchi.cli_print import SEQ_MAX_COUNT, SERIES_MAX_ORDER, _decimals
from genocchi.cli_usage import build_parser
from genocchi.dellac import DellacConfig
from genocchi.errors import InternalInconsistencyError
from genocchi.motzkin import MotzkinPath
from genocchi.walk import layered_blocks

SRC = str(Path(__file__).resolve().parents[1] / "src")


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def output_lines(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue().splitlines()


@lru_cache(maxsize=None)
def unlimited_json(model, n):
    return tuple(output_lines(["enumerate", model, "--n", str(n), "--json"]))


def test_seq_h_golden(capsys):
    assert run(["seq", "h", "--count", "7"]) == 0
    assert lines_of(capsys) == ["1 1 2 7 38 295 3098"]


def test_seq_median_golden(capsys):
    assert run(["seq", "H", "--count", "5"]) == 0
    assert lines_of(capsys) == ["1 2 8 56 608"]


def test_seq_genocchi1_golden(capsys):
    assert run(["seq", "genocchi1", "--count", "5"]) == 0
    assert lines_of(capsys) == ["1 1 3 17 155"]


def test_seq_json_round_trip(capsys):
    assert run(["seq", "H", "--count", "3", "--json"]) == 0
    raw = lines_of(capsys)[0]
    assert raw == '{"name":"H","label":"H_{2n-1}","values":["1","2","8"]}'
    assert json.dumps(json.loads(raw), separators=(",", ":")) == raw


def test_seq_h_json_has_no_label(capsys):
    assert run(["seq", "h", "--count", "2", "--json"]) == 0
    assert lines_of(capsys)[0] == '{"name":"h","values":["1","1"]}'


def test_poly_golden(capsys):
    assert run(["poly", "hq", "--n", "4"]) == 0
    assert lines_of(capsys) == ["1 + 3*q + 7*q^2 + 10*q^3 + 10*q^4 + 6*q^5 + q^6"]


def test_poly_variants(capsys):
    assert run(["poly", "tildehq", "--n", "3"]) == 0
    assert run(["poly", "barc", "--n", "4"]) == 0
    out = lines_of(capsys)
    assert out == ["1 + 3*q + 2*q^2 + q^3"] * 2


def test_poly_json_round_trip(capsys):
    assert run(["poly", "hq", "--n", "3", "--json"]) == 0
    raw = lines_of(capsys)[0]
    assert raw == '{"coeffs":["1","2","3","1"]}'
    assert json.dumps(json.loads(raw), separators=(",", ":")) == raw


def test_enumerate_dellac_with_limit(capsys):
    assert run(["enumerate", "dellac", "--n", "3", "--limit", "2"]) == 0
    out = lines_of(capsys)
    assert out == [
        "1: 1 2",
        "2: 3 4",
        "3: 5 6",
        "",
        "1: 1 2",
        "2: 3 5",
        "3: 4 6",
        "",
        "total 7",
    ]


def test_enumerate_dellac_json_stream(capsys):
    assert run(["enumerate", "dellac", "--n", "3", "--json"]) == 0
    out = lines_of(capsys)
    assert len(out) == 8
    first = json.loads(out[0])
    assert first == {"n": 3, "columns": [[1, 2], [3, 4], [5, 6]]}
    assert json.loads(out[-1]) == {"total": "7"}


def test_enumerate_limit_zero_prints_only_the_total(capsys):
    assert run(["enumerate", "dellac", "--n", "3", "--limit", "0"]) == 0
    assert lines_of(capsys) == ["total 7"]


def test_negative_limit_exits_2(capsys):
    assert run(["enumerate", "dellac", "--n", "3", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --limit must be nonnegative\n"


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["dellac", "admissible", "motzkin"]),
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=400),
)
def test_limit_prints_a_prefix_and_the_full_total(model, n, k):
    full = unlimited_json(model, n)
    limited = output_lines(["enumerate", model, "--n", str(n), "--limit", str(k), "--json"])
    assert limited == list(full[: min(k, len(full) - 1)]) + [full[-1]]


WALKS = {"dellac": iter_dellac, "admissible": iter_admissible, "motzkin": iter_motzkin}


@pytest.mark.parametrize("model", sorted(WALKS))
@pytest.mark.parametrize("n", range(1, 8))
def test_swept_limit_total_equals_the_walked_count(model, n):
    # under --limit the total is h(n) from the triangle, or for Motzkin a sweep of
    # the walk's heights; without a limit it counts the printed objects
    walked = sum(1 for _ in WALKS[model](n))
    total = output_lines(["enumerate", model, "--n", str(n), "--limit", "0"])
    assert total == [f"total {walked}"]
    *objects, last = unlimited_json(model, n)
    assert len(objects) == walked
    assert json.loads(last) == {"total": str(walked)}


def test_limit_above_sys_maxsize_is_at_most_k():
    huge = output_lines(["enumerate", "motzkin", "--n", "2", "--limit", str(10**30)])
    assert huge == output_lines(["enumerate", "motzkin", "--n", "2", "--limit", "2"])


def test_limited_total_needs_no_walk(monkeypatch):
    # about 1.3e26 paths: only a sweep can count them
    monkeypatch.setenv("GENOCCHI_MAX_N", "100")
    out = output_lines(["enumerate", "motzkin", "--n", "60", "--limit", "1"])
    assert out == [" ".join(["0"] * 61), "total 128453535912993825479057919"]


def test_enumerate_admissible_and_motzkin(capsys):
    assert run(["enumerate", "admissible", "--n", "2"]) == 0
    assert lines_of(capsys) == ["1", "2", "total 2"]
    assert run(["enumerate", "motzkin", "--n", "3", "--json"]) == 0
    out = [json.loads(line) for line in lines_of(capsys)]
    assert out[-1] == {"total": "4"}
    assert {tuple(o["heights"]) for o in out[:-1]} == {
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 1, 1, 0),
    }


def test_count_subcommands(capsys):
    assert run(["count", "dumont", "--n", "2"]) == 0
    assert run(["count", "triangles", "--n", "3"]) == 0
    assert lines_of(capsys) == ["2", "38"]


def test_series_viennot_golden(capsys):
    assert run(["series", "viennot", "--order", "5"]) == 0
    assert lines_of(capsys) == ["1 1 2 8 56 608"]


def test_series_f1_prints_polynomials(capsys):
    assert run(["series", "f1", "--order", "3"]) == 0
    assert lines_of(capsys) == [
        "s^0: 1",
        "s^1: 1",
        "s^2: 1 + q",
        "s^3: 1 + 3*q + 2*q^2 + q^3",
    ]


def test_series_json_round_trip(capsys):
    assert run(["series", "hn", "--order", "3", "--json"]) == 0
    raw = lines_of(capsys)[0]
    data = json.loads(raw)
    assert data == {
        "order": 3,
        "coeffs": [{"coeffs": ["1"]}, {"coeffs": ["1"]}, {"coeffs": ["2"]}, {"coeffs": ["7"]}],
    }
    assert json.dumps(data, separators=(",", ":")) == raw


@given(st.lists(st.integers().map(str)))
def test_decimal_arrays_are_what_json_writes(values):
    assert _decimals(values) == json.dumps(values, separators=(",", ":"))


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "genocchi1", "--count", "4"],
        ["seq", "H", "--count", "1"],
        ["poly", "barc", "--n", "5"],
        ["poly", "tildehq", "--n", "0"],
        ["series", "f1", "--order", "3"],
        ["series", "custom", "--order", "4", "--spec", "@signed.json"],
        ["enumerate", "motzkin", "--n", "3", "--limit", "1"],
    ],
    ids=" ".join,
)
def test_hand_written_payloads_are_what_json_writes(tmp_path, argv):
    # every payload but the verify report is written without json
    (tmp_path / "signed.json").write_text('{"kind": "J", "gamma": [-3, 0, 2], "lambda": [-1, 5]}')
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    for line in output_lines(argv + ["--json"]):
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_series_custom_catalan(tmp_path, capsys):
    # all-ones numerators give the Catalan generating function
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "S", "c": [1] * 10}), encoding="utf-8")
    assert run(["series", "custom", "--spec", str(spec), "--order", "6"]) == 0
    catalan = [1]
    for _ in range(6):
        catalan.append(sum(catalan[i] * catalan[-1 - i] for i in range(len(catalan))))
    assert lines_of(capsys) == [" ".join(str(c) for c in catalan)]


def test_series_custom_preset_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "hn"}), encoding="utf-8")
    assert run(["series", "custom", "--spec", str(spec), "--order", "4"]) == 0
    assert lines_of(capsys) == ["1 1 2 7 38"]


def test_verify_passes_and_round_trips(capsys):
    assert run(["verify", "--n-max", "3", "--json"]) == 0
    raw = lines_of(capsys)[0]
    data = json.loads(raw)
    assert data["failures"] == 0
    assert json.dumps(data, separators=(",", ":")) == raw


def test_verify_table_output(capsys):
    assert run(["verify", "--n-max", "2"]) == 0
    out = capsys.readouterr()
    assert "counts-agree" in out.out
    assert "0 failure(s)" in out.out
    assert "elapsed" in out.err  # timing is informational, kept off stdout


VERIFY_N3_TABLE = """\
PASS    contraction-named      order=10     ok
PASS    contraction-random     order=10     100 instances, seed=0
PASS    counts-agree           n=1..3       h-values: 1,1,2,7
PASS    divisibility           n=1..12      ok
PASS    dumont-oracle          n=1..3       ok
PASS    hanzeng-reversal       n=0..3       ok
PASS    hq-three-way           n=1..3       ok
PASS    q1-hn-series           n=0..3       ok
PASS    series-f1              n=0..3       ok
PASS    series-f2              n=0..3       ok
PASS    triangle-pairs-oracle  n=1..3       ok
PASS    viennot-doubling       n=0..3       ok
12 checks, 0 failure(s), seed=0
"""


def test_verify_table_golden(capsys):
    assert run(["verify", "--n-max", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_N3_TABLE


def test_verify_json_golden_at_n8(capsys):
    # the whole report at the widest range, pinned by its digest
    assert run(["verify", "--n-max", "8", "--json", "--seed", "0"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "25fbd4f78a667649a1c023bdbbc3e5cac79d79a0a557b7f3af10fb9801922d52"
    )


def test_verify_detects_injected_window_bug(monkeypatch, capsys):
    monkeypatch.setattr(dellac, "_row_window", lambda n, col: (col, n + col - 1))
    assert run(["verify", "--n-max", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_byte_identical_reruns(capsys):
    assert run(["verify", "--n-max", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--n-max", "3", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["seq", "nope", "--count", "3"]) == 2
    assert run(["seq", "h"]) == 2
    assert run(["series", "custom", "--order", "3"]) == 2
    assert run(["series", "f1", "--order", "3", "--spec", "x.json"]) == 2
    assert run(["verify", "--n-max", "99"]) == 2
    assert run(["seq", "h", "--count", "0"]) == 2
    capsys.readouterr()


def test_missing_spec_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["series", "custom", "--spec", str(missing), "--order", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["series", "custom", "--spec", str(bad), "--order", "2"]) == 2
    capsys.readouterr()


def test_a_spec_path_that_is_not_a_regular_file_exits_2(tmp_path, capsys):
    # refused before a byte is read: a device or a FIFO could be read, or
    # waited on, without end
    for path in (tmp_path, Path(os.devnull)):
        assert run(["series", "custom", "--order", "3", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not a regular file\n"


def test_a_spec_file_past_its_byte_bound_exits_3(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    text = json.dumps({"preset": "hn"})
    spec.write_text(text.ljust(specfile.SPEC_MAX_BYTES), encoding="utf-8")
    assert run(["series", "custom", "--order", "4", "--spec", str(spec)]) == 0
    assert lines_of(capsys) == ["1 1 2 7 38"]
    spec.write_text(text.ljust(specfile.SPEC_MAX_BYTES + 1), encoding="utf-8")
    assert run(["series", "custom", "--order", "4", "--spec", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {spec}: spec files are capped at {specfile.SPEC_MAX_BYTES} bytes\n"


def test_a_spec_literal_past_the_int_digit_limit_exits_3(tmp_path, capsys):
    # refused before int() reads it, whose own error names a Python call
    spec = tmp_path / "spec.json"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for literal, status in (("1" * 4300, 0), ("-" + "1" * 4300, 0), ("1" * 4301, 3), ("-" + "1" * 4301, 3)):
            spec.write_text(f'{{"kind": "S", "c": [{literal}]}}', encoding="utf-8")
            assert run(["series", "custom", "--order", "0", "--spec", str(spec)]) == status
            captured = capsys.readouterr()
            if status:
                assert captured.out == ""
                assert captured.err == f"error: {spec}: an integer has more than 4300 digits\n"
            else:
                assert captured.out == "1\n"
        sys.set_int_max_str_digits(0)  # no limit, no check
        assert run(["series", "custom", "--order", "0", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == "1\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_spec_file_content_errors_name_the_file(tmp_path, capsys):
    cases = {
        '{"kind":': "Expecting value: line 1 column 9 (char 8)",
        '{"kind": "S", "c": [1.5]}': "spec field 'c' must be a list of integers",
        '{"preset": "f3"}': "unknown preset 'f3'",
        # json.loads alone would keep the last "c", and the command print 1 2 4 8
        '{"kind":"S","c":[1],"c":[2]}': "spec key 'c' appears more than once",
    }
    spec = tmp_path / "spec.json"
    for text, message in cases.items():
        spec.write_text(text, encoding="utf-8")
        assert run(["series", "custom", "--spec", str(spec), "--order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {spec}: {message}\n"


def test_over_nested_spec_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert run(["series", "custom", "--order", "3", "--spec", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_coercible_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    for data in ({"kind": "S", "c": [1.9, True, "3"]}, {"kind": "J", "gamma": [1], "c": [2]}):
        spec.write_text(json.dumps(data), encoding="utf-8")
        assert run(["series", "custom", "--spec", str(spec), "--order", "3"]) == 2
    assert capsys.readouterr().err.count("error:") == 2
    spec.write_text(json.dumps({"kind": "J", "gamma": [1, 2], "lambda": [1]}), encoding="utf-8")
    assert run(["series", "custom", "--spec", str(spec), "--order", "3"]) == 0
    assert capsys.readouterr().out.split() == ["1", "1", "2", "5"]


def test_resource_limit_exits_3(capsys):
    assert run(["count", "dumont", "--n", "5"]) == 3
    assert run(["enumerate", "dellac", "--n", "9"]) == 3
    assert run(["poly", "barc", "--n", "1200"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: Han-Zeng recurrence capped at n=48"
    )


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(n):
        raise InternalInconsistencyError(f"C_{n}(1, q) is not divisible by (1+q)^{n - 1}")

    # the CLI looks the route up in its home module when the command runs
    monkeypatch.setattr(hanzeng, "hanzeng_barc", broken)
    assert run(["poly", "barc", "--n", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: InternalInconsistencyError: C_5(1, q) is not divisible by (1+q)^4\n"
    )


def one_run(items):
    """layers for a walk of the single run items, every state 0."""
    return lambda n: (len(items), 0, lambda level, state: [(items[level], 0)])


def rewired(module, level, old, new):
    """The model's own layers, with the choice old, an (item, next state)
    pair, offered at level replaced by new."""
    real = module.layers

    def layers(n):
        depth, root, choices = real(n)

        def patched(lvl, state):
            return [new if lvl == level and choice == old else choice for choice in choices(lvl, state)]

        return depth, root, patched

    return layers


def bits(*members):
    """The mask of a set of rows or elements."""
    return sum(1 << j for j in members)


# walks whose objects the constructor rejects: (n, layers, message, lines
# before).  The first three are one run no deeper than the model's shared
# levels, so the split is at level 0 and the fault lies in the one tail: a
# repeated row, a subset outside its successor plus one, a step of two.  The
# others rewire one choice of the model's own walk, deeper than its shared
# levels, so that the one fault lies in a prefix (a band, a size, a negative
# height), in a tail shared by several prefixes, or only across the split (a
# row used on both sides, a containment, a step of two, each after a prefix
# that leads to the wrong state); the case's name gives the side.  In
# "dellac-tail-split" the tail's first column and its rest each pass their
# checks, and only a row marked in both makes the tail fail
INVALID_WALKS = {
    "dellac": (3, one_run(((1, 2), (2, 4), (5, 6))), "row 2 marked twice", 0),
    "admissible": (3, one_run((0b0110, 0b1000)), "I_1 exceeds I_2 plus {2}", 0),
    "motzkin": (3, one_run((2, 0, 0)), "steps must change height by at most 1", 0),
    "dellac-prefix": (
        6,
        rewired(dellac, 1, ((3, 5), bits(1, 2, 3, 5)), ((3, 11), bits(1, 2, 3, 5))),
        "box (2, 11) outside the allowed band",
        162,
    ),
    "dellac-tail": (
        6,
        rewired(dellac, 3, ((6, 8), bits(*range(1, 9))), ((6, 11), bits(*range(1, 9)))),
        "box (4, 11) outside the allowed band",
        18,
    ),
    "dellac-across": (
        6,
        rewired(dellac, 1, ((3, 5), bits(1, 2, 3, 5)), ((3, 5), bits(1, 2, 3, 6))),
        "row 5 marked twice",
        162,
    ),
    "dellac-tail-split": (
        6,
        rewired(dellac, 2, ((4, 6), bits(*range(1, 7))), ((4, 7), bits(*range(1, 7)))),
        "row 7 marked twice",
        162,
    ),
    "admissible-prefix": (
        6,
        rewired(admissible, 0, (bits(1, 2, 3, 4, 6), bits(*range(1, 7))), (bits(*range(1, 7)), bits(*range(1, 7)))),
        "I_5 must have exactly 5 elements",
        295,
    ),
    "admissible-tail": (
        6,
        rewired(admissible, 3, (bits(1, 3), bits(1, 2, 3)), (bits(1, 7), bits(1, 2, 3))),
        "I_2 contains elements outside 1..6",
        2,
    ),
    "admissible-across": (
        6,
        rewired(admissible, 1, (bits(1, 2, 3, 5), bits(1, 2, 3, 4, 5)), (bits(1, 2, 3, 5), bits(1, 2, 3, 4, 6))),
        "I_3 exceeds I_4 plus {4}",
        60,
    ),
    "motzkin-prefix": (11, rewired(motzkin, 3, (1, 1), (-1, 1)), "heights must stay nonnegative", 127),
    "motzkin-tail": (8, rewired(motzkin, 6, (1, 1), (-1, 1)), "heights must stay nonnegative", 1),
    "motzkin-across": (11, rewired(motzkin, 4, (0, 0), (0, 2)), "steps must change height by at most 1", 30),
}
MODULES = {"dellac": dellac, "admissible": admissible, "motzkin": motzkin}
# each model's stream rules, by the model module's name
RULES = {
    dellac.__name__: stream_dellac,
    admissible.__name__: stream_admissible,
    motzkin.__name__: stream_motzkin,
}


@pytest.mark.parametrize(
    "obj, field",
    [
        (DellacConfig(2, ((1, 2), (3, 4))), "columns"),
        (AdmissibleSequence(3, (0b10, 0b110)), "masks"),
        (MotzkinPath((0, 1, 0)), "heights"),
    ],
)
def test_a_model_object_is_hashable_and_refuses_assignment(obj, field):
    assert obj in {type(obj)(*obj)}  # hashed and compared by its fields
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1


def reference_line(model, n, item, as_json):
    """One walked object's output line, the per-object way: built through
    its constructor, then its fields dumped by json or formatted."""
    if model == "dellac":
        columns = DellacConfig(n, item).columns
        if as_json:
            return json.dumps({"n": n, "columns": [list(p) for p in columns]}, separators=(",", ":")) + "\n"
        return "\n".join(f"{col}: {lo} {hi}" for col, (lo, hi) in enumerate(columns, start=1)) + "\n\n"
    if model == "admissible":
        sets = map(admissible._elems, AdmissibleSequence(n, item).masks)
        if as_json:
            return json.dumps({"n": n, "sets": [list(s) for s in sets]}, separators=(",", ":")) + "\n"
        return (" | ".join(",".join(map(str, s)) for s in sets) or "()") + "\n"
    heights = MotzkinPath(item).heights
    if as_json:
        return json.dumps({"n": len(heights) - 1, "heights": list(heights)}, separators=(",", ":")) + "\n"
    return " ".join(map(str, heights)) + "\n"


def fault_side(module, n):
    """Where the first object of the model's walk that its rules reject
    fails the stream's checks: "prefix", "tail" when its head or its rest
    fails or the two do not join, or "across" when the prefix and the tail
    pass and only their join fails."""
    prefix_piece, first, rest, join, joined, _ = RULES[module.__name__].stream_pieces(n, True)
    for prefix, _, tails in layered_blocks(*module.layers(n), module.SHARED_LEVELS):
        for head, _, rests in tails:
            for run in rests:
                try:
                    summary, _ = prefix_piece(prefix)
                except ValueError:
                    return "prefix"
                try:
                    tail_summary = join(first(head, len(prefix))[0], rest(run, len(prefix))[0])
                except ValueError:
                    return "tail"
                if tail_summary is None:
                    return "tail"
                if not joined(summary, tail_summary):
                    return "across"
    return None


@pytest.mark.parametrize("case", sorted(INVALID_WALKS))
def test_an_invalid_walked_object_is_an_internal_error(monkeypatch, capsys, case):
    # the streamed objects are still validated: a walk that yields one the
    # constructor rejects stops the stream with exit 4, after the lines of
    # the objects before it
    n, layers, message, before = INVALID_WALKS[case]
    model, _, side = case.partition("-")
    module = MODULES[model]
    monkeypatch.setattr(module, "layers", layers)
    assert (layers(n)[0] > module.SHARED_LEVELS) == bool(side)  # where the split is
    assert fault_side(module, n) == (side.partition("-")[0] or "tail")
    lines = []
    for item in WALKS[model](n):
        try:
            lines.append(reference_line(model, n, item, True))
        except ValueError as exc:
            assert str(exc) == message
            break
    assert len(lines) == before
    assert run(["enumerate", model, "--n", str(n), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "".join(lines)
    assert captured.err == f"internal error: ValueError: {message}\n"


def test_the_split_case_fails_only_across_the_first_column_and_the_rest(monkeypatch):
    n, layers, message, _ = INVALID_WALKS["dellac-tail-split"]
    monkeypatch.setattr(dellac, "layers", layers)
    blocks = layered_blocks(*layers(n), dellac.SHARED_LEVELS)
    prefix, head, rest = next(
        (prefix, head, rest)
        for prefix, _, tails in blocks
        for head, _, rests in tails
        for rest in rests
        if head == ((4, 7),)
    )
    with pytest.raises(ValueError) as raised:
        dellac._piece(n, prefix + head + rest, 1, whole=True)
    assert str(raised.value) == message
    lead = dellac._piece(n, head, len(prefix) + 1)  # the first column passes alone
    after = dellac._piece(n, rest, len(prefix) + 2)  # and so does the rest
    assert stream_dellac._join(lead, after) is None


@lru_cache(maxsize=None)
def reference_lines(model, n, as_json):
    return tuple(reference_line(model, n, item, as_json) for item in WALKS[model](n))


# sizes past the first split level: Dellac n >= 4, admissible n >= 5, Motzkin n >= 4
MODEL_SIZES = st.one_of(
    st.tuples(st.sampled_from(["dellac", "admissible"]), st.integers(1, 6)),
    st.tuples(st.just("motzkin"), st.integers(0, 10)),
)


@settings(max_examples=60, deadline=None)
@given(
    model_n=MODEL_SIZES,
    as_json=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 320)),
)
def test_stream_is_byte_identical_to_the_per_object_reference(model_n, as_json, limit):
    model, n = model_n
    lines = reference_lines(model, n, as_json)
    if as_json:
        total = json.dumps({"total": str(len(lines))}, separators=(",", ":"))
    else:
        total = f"total {len(lines)}"
    argv = ["enumerate", model, "--n", str(n)]
    argv += ([] if limit is None else ["--limit", str(limit)]) + (["--json"] if as_json else [])
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    assert out.getvalue() == "".join(lines[:limit]) + total + "\n"


def test_lines_before_an_invalid_walked_object_are_written(monkeypatch, capsys):
    # heights 0, 1, 2 after the first step, then back to 0: the third path
    # steps by two, so the two before it are printed, then the error
    choices = {0: [(0, 0), (1, 0), (2, 0)], 1: [(0, 0)]}
    monkeypatch.setattr(motzkin, "layers", lambda n: (2, 0, lambda level, state: choices[level]))
    assert run(["enumerate", "motzkin", "--n", "2", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == '{"n":2,"heights":[0,0,0]}\n{"n":2,"heights":[0,1,0]}\n'
    assert captured.err == "internal error: ValueError: steps must change height by at most 1\n"


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.lines = []  # the lines each write ends, one entry per write

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def prefix_sizes(module, n):
    """The objects of each walk prefix, in the order the walk hands them over."""
    blocks = layered_blocks(*module.layers(n), module.SHARED_LEVELS)
    return [sum(len(rests) for _, _, rests in tails) for _, _, tails in blocks]


def test_enumerate_writes_blocks_of_lines():
    out = CountingStdout()
    with redirect_stdout(out):
        assert run(["enumerate", "motzkin", "--n", "10", "--json"]) == 0
    objects = len(out.getvalue().splitlines()) - 1
    assert objects == 2188
    sizes = prefix_sizes(motzkin, 10)
    assert len(sizes) == 35 and sum(sizes) == objects
    # one write per walk prefix with all its lines, then print's text and newline for the total
    assert out.lines == sizes + [0, 1]


def test_stream_checks_each_shared_piece_once(monkeypatch):
    # the stream's speed rests on this: one piece check per walk prefix, one
    # per head of each state's tails, and one per rest of each next state,
    # however many prefixes, states and objects share them
    calls = []
    piece = dellac._piece
    monkeypatch.setattr(dellac, "_piece", lambda *args, **kw: calls.append(args) or piece(*args, **kw))
    objects = len(output_lines(["enumerate", "dellac", "--n", "6", "--json"])) - 1
    blocks = list(layered_blocks(*dellac.layers(6), dellac.SHARED_LEVELS))
    states = {state: tails for _, state, tails in blocks}
    heads = [head for tails in states.values() for head, _, _ in tails]
    rests = {nxt: rests for tails in states.values() for _, nxt, rests in tails}
    assert len(calls) == len(blocks) + len(heads) + sum(map(len, rests.values())) == 40 + 90 + 244
    tails = {head + rest for tails in states.values() for head, _, runs in tails for rest in runs}
    assert len(calls) < len(blocks) + len(tails)  # a check per prefix and per tail: 40 + 1,131
    assert objects == 3098


@pytest.mark.parametrize("model, n", [("dellac", 6), ("admissible", 7), ("motzkin", 12)])
def test_stream_joins_once_per_distinct_tail_summary_of_each_prefix_summary_and_state(monkeypatch, model, n):
    # whether a tail joins depends only on the prefix's summary and the
    # tail's, so the join rule runs once per distinct tail summary of the
    # state, for each distinct pair of prefix summary and state
    module = MODULES[model]
    rules = RULES[module.__name__]
    prefix_piece, first, rest, join, _, _ = rules.stream_pieces(n, True)
    kinds, tails_of, pairs = {}, {}, set()
    for prefix, state, tails in layered_blocks(*module.layers(n), module.SHARED_LEVELS):
        level = len(prefix)
        summaries = {join(first(h, level)[0], rest(r, level)[0]) for h, _, rests in tails for r in rests}
        kinds.setdefault(state, summaries)
        tails_of[state] = sum(len(rests) for _, _, rests in tails)
        pairs.add((prefix_piece(prefix)[0], state))
    calls = []
    joined = rules._joined
    monkeypatch.setattr(rules, "_joined", lambda *args: calls.append(args) or joined(*args))
    objects = len(output_lines(["enumerate", model, "--n", str(n), "--json"])) - 1
    assert len(calls) == sum(len(kinds[state]) for _, state in pairs)
    assert len(calls) < sum(tails_of[state] for _, state in pairs) < objects  # once per tail
    if model == "dellac":  # every tail of a state uses the rows the state leaves free
        assert all(len(summaries) == 1 for summaries in kinds.values())


@lru_cache(maxsize=None)
def walk_pieces(model, n):
    """The (prefix, head, rest) of every tail of every block of the model's
    walk for n, one prefix per distinct state."""
    module = MODULES[model]
    states = {}
    for prefix, state, tails in layered_blocks(*module.layers(n), module.SHARED_LEVELS):
        states.setdefault(state, [(prefix, head, rest) for head, _, rests in tails for rest in rests])
    return [piece for pieces in states.values() for piece in pieces]


def full_piece(model, n, prefix, tail, as_json):
    """A tail's summary and the line it makes with prefix, by the model's
    rule over the flat tail: its _piece and its stream encoding over the whole run, which
    a split tail must agree with.  Raises where that rule does."""
    level = len(prefix)
    if model == "dellac":
        head, foot = (f'{{"n":{n},"columns":[', "]}\n") if as_json else ("", "\n\n")
        summary = dellac._piece(n, tail, level + 1)
        encode = stream_dellac._encode
        return summary, head + encode(prefix, 1, as_json) + encode(tail, level + 1, as_json) + foot
    if model == "admissible":
        head, foot = (f'{{"n":{n},"sets":[', "]}\n") if as_json else ("", "\n")
        lower, upper = tail[::-1], prefix[::-1]
        summary = admissible._piece(n, lower, 1)
        texts = [stream_admissible._subset_text(mask, as_json) for mask in lower]
        body = stream_admissible._encode(texts, 1, as_json) if lower or as_json else "()"
        upper_texts = [stream_admissible._subset_text(mask, as_json) for mask in upper]
        return summary, head + body + stream_admissible._encode(upper_texts, n - level, as_json) + foot
    head, foot = (f'{{"n":{level + len(tail)},"heights":[', "]}\n") if as_json else ("", "\n")
    summary = motzkin._piece(tail)
    encode = stream_motzkin._encode
    return summary, head + encode((0,) + prefix, 0, as_json) + encode(tail, level + 1, as_json) + foot


def mutated(model, run, data):
    """run, or a copy with one field changed: another int, a value that
    equals an int but is not one (True, 2.0), a non-number, a list where a
    tuple belongs."""
    kind = data.draw(st.sampled_from(["same", "value", "not an int", "list"]))
    if kind == "same" or not run:
        return run
    if kind == "list" and (model != "dellac" or data.draw(st.booleans())):
        return list(run)
    i = data.draw(st.integers(0, len(run) - 1))
    field = run[i]
    if model == "dellac" and kind == "list":
        field = list(field)
    else:
        j = data.draw(st.integers(0, 1))
        leaf = field[j] if model == "dellac" else field
        if kind == "value":
            leaf = data.draw(st.integers(-1, 2 * leaf + 2))
        else:
            leaf = data.draw(st.sampled_from([float(leaf), leaf == 1, leaf == 0, str(leaf), None]))
        field = field[:j] + (leaf,) + field[j + 1 :] if model == "dellac" else leaf
    return run[:i] + (field,) + run[i + 1 :]


SPLIT_SIZES = {"dellac": st.integers(1, 6), "admissible": st.integers(1, 7), "motzkin": st.integers(0, 10)}


@pytest.mark.parametrize("model", sorted(SPLIT_SIZES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_split_tail_piece_is_the_full_rule_over_the_flat_tail(model, data):
    # the stream's rules for a tail's head and for its rest, composed by the
    # model's join, over walked tails with a field of the head or the rest
    # changed: each gives the full rule's summary and line, or None exactly
    # where the full rule raises
    n = data.draw(SPLIT_SIZES[model])
    as_json = data.draw(st.booleans())
    module = MODULES[model]
    prefix_piece, first, rest, join, _, prefix_first = RULES[module.__name__].stream_pieces(n, as_json)
    pieces = walk_pieces(model, n)
    for index in data.draw(st.lists(st.integers(0, len(pieces) - 1), min_size=1, max_size=12)):
        prefix, head, after = pieces[index]
        if data.draw(st.booleans()):
            head = mutated(model, head, data)
        else:
            after = mutated(model, after, data)
        tail = head + after if type(head) is type(after) is tuple else [*head, *after]
        try:
            expected = full_piece(model, n, prefix, tail, as_json)
        except (TypeError, ValueError):
            expected = None
        composed = None
        try:
            (lead, lead_text), (end, end_text) = first(head, len(prefix)), rest(after, len(prefix))
        except (TypeError, ValueError):
            pass
        else:
            summary = join(lead, end)
            if summary is not None:
                text = prefix_piece(prefix)[1]
                composed = summary, lead_text.join((text, end_text) if prefix_first else (end_text, text))
        assert composed == expected


@pytest.mark.parametrize("as_json", [False, True])
def test_admissible_stream_formats_each_distinct_subset_once(monkeypatch, as_json):
    masks = {mask for item in iter_admissible(7) for mask in item}
    calls = []
    elems = admissible._elems
    monkeypatch.setattr(admissible, "_elems", lambda mask: calls.append(mask) or elems(mask))
    output_lines(["enumerate", "admissible", "--n", "7"] + ["--json"] * as_json)
    assert sorted(calls) == sorted(masks)
    assert len(masks) == 126


def test_limit_across_a_block_boundary():
    # the limit cuts one walk prefix's lines: some before it go out, some after it do not
    starts = [0]
    for size in prefix_sizes(motzkin, 12):
        starts.append(starts[-1] + size)
    assert any(start < 1500 < end for start, end in zip(starts, starts[1:]))
    full = unlimited_json("motzkin", 12)
    limited = output_lines(["enumerate", "motzkin", "--n", "12", "--limit", "1500", "--json"])
    assert limited == list(full[:1500]) + [full[-1]]


def test_unbuffered_stdout_gives_the_same_bytes():
    argv = [sys.executable, "-m", "genocchi.cli", "enumerate", "motzkin", "--n", "12", "--json"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    buffered = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
    unbuffered = subprocess.run(
        argv, env=dict(env, PYTHONUNBUFFERED="1"), capture_output=True, check=True, timeout=60
    )
    assert buffered.stderr == unbuffered.stderr == b""
    assert buffered.stdout == unbuffered.stdout
    assert buffered.stdout.count(b"\n") == 15512


def test_seq_count_is_bounded(capsys):
    # H has the largest terms of the three sequences
    assert run(["seq", "H", "--count", str(SEQ_MAX_COUNT), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["values"]) == SEQ_MAX_COUNT
    for name in ("H", "h", "genocchi1"):
        assert run(["seq", name, "--count", str(SEQ_MAX_COUNT + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seq --count capped at 900, got {SEQ_MAX_COUNT + 1}\n"


@pytest.mark.parametrize("as_json, out", [(False, "1 1 2"), (True, '{"name":"h","values":["1","1","2"')])
def test_seq_writes_the_terms_before_an_inexact_term(monkeypatch, capsys, as_json, out):
    # each term goes out as it is computed; the fault stops the output there
    monkeypatch.setattr(seidel, "median_sequence", lambda count: iter([1, 2, 8, 57]))
    assert run(["seq", "h", "--count", "4"] + ["--json"] * as_json) == 4
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == "internal error: InternalInconsistencyError: H(7) = 57 is not divisible by 2^3\n"


def test_seq_and_series_write_a_piece_at_a_time():
    for argv, pieces in (
        (["seq", "H", "--count", "5"], 5),
        (["seq", "h", "--count", "7", "--json"], 7),
        (["series", "hn", "--order", "4"], 5),
        (["series", "f1", "--order", "3"], 4),
        (["series", "f1", "--order", "3", "--json"], 4),
    ):
        out = CountingStdout()
        with redirect_stdout(out):
            assert run(argv) == 0
        assert len(out.lines) == pieces + 2  # the head, one write per term, the end


# A launcher that imports nothing of its own, as perfbench/launch.py: Linux
# carries a process's peak RSS across exec, so a command forked from pytest
# would report at least pytest's peak.
PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, "-m", "genocchi.cli", *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv: str) -> float:
    """The peak RSS of a fresh `genocchi argv` process, read with os.wait4."""
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PEAK_RSS, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    status, kib = map(int, out.split())
    assert status == 0
    return kib / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_seq_holds_one_column_not_the_sequence():
    # 900 terms of up to 4,300 digits: kept, with their texts and the joined
    # output, they raised the peak by about 13.7 MB over a one-term command;
    # written as they come, by about 5 MB
    grown = peak_rss_mb("seq", "H", "--count", "900", "--json") - peak_rss_mb("seq", "h", "--count", "1", "--json")
    assert grown < 9


def test_series_order_is_bounded(capsys):
    assert run(["series", "hn", "--order", str(SERIES_MAX_ORDER)]) == 0
    assert len(capsys.readouterr().out.split()) == SERIES_MAX_ORDER + 1
    for name in ("f1", "custom"):  # refused before the spec file is looked for
        assert run(["series", name, "--order", str(SERIES_MAX_ORDER + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: series --order capped at 64, got {SERIES_MAX_ORDER + 1}\n"


def test_a_series_past_the_int_print_limit_exits_3(tmp_path, capsys):
    # checked before the first line: str() of such an int would raise midway
    spec = tmp_path / "spec.json"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for c0, c1, status in (
            (10**2000, 10**2300 - 1, 0),  # s^1 is 10^4300 - 10^2000: 4300 digits
            (10**2000, 10**2300, 3),  # s^1 is 10^4300: 4301 digits
            (-(10**2000), 10**2300, 3),
        ):
            spec.write_text(json.dumps({"kind": "S", "c0": c0, "c": [c1]}), encoding="utf-8")
            for as_json in ([], ["--json"]):
                assert run(["series", "custom", "--order", "1", "--spec", str(spec), *as_json]) == status
                captured = capsys.readouterr()
                if status:
                    assert captured.out == ""
                    assert captured.err == "error: series --order 1 gives a coefficient of more than 4300 digits\n"
        sys.set_int_max_str_digits(0)  # no limit, no check
        assert run(["series", "custom", "--order", "1", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == f"{-(10**2000)} {-(10**4300)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_env_cap_reaches_the_cli(monkeypatch, capsys):
    monkeypatch.setenv("GENOCCHI_MAX_N", "2")
    assert run(["enumerate", "dellac", "--n", "3"]) == 3
    capsys.readouterr()


def test_malformed_env_cap_is_a_usage_error_under_verify(monkeypatch, capsys):
    monkeypatch.setenv("GENOCCHI_MAX_N", "abc")
    assert run(["verify", "--n-max", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GENOCCHI_MAX_N must be a nonnegative integer, got 'abc'\n"


@pytest.mark.parametrize(
    "value",
    ["x" * 100_000, "\x01" * 100_000, "\U000e0000" * 1_000, "1\n" * 50],
    ids=["letters", "control", "escaped-wide", "lines"],
)
def test_a_long_malformed_env_cap_is_echoed_short(monkeypatch, capsys, value):
    # a prefix and the length, on one line, however long the value
    monkeypatch.setenv("GENOCCHI_MAX_N", value)
    assert run(["enumerate", "dellac", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err.encode()) < 200
    assert f"... ({len(value)} characters)" in captured.err


def test_env_cap_past_the_int_digit_limit_is_a_usage_error(monkeypatch, capsys):
    # a decimal value int() refuses to read: the variable is named, not echoed
    digits = sys.get_int_max_str_digits() + 1
    monkeypatch.setenv("GENOCCHI_MAX_N", "1" * digits)
    assert run(["enumerate", "dellac", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GENOCCHI_MAX_N must be a nonnegative integer of at most {digits - 1} digits\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


HELP = {
    (): """\
usage: genocchi [-h] {seq,poly,enumerate,count,series,verify} ...

Median Genocchi numbers and their q-analogues, exactly.

positional arguments:
  {seq,poly,enumerate,count,series,verify}
    seq                 print the first terms of a sequence
    poly                print one q-polynomial
    enumerate           stream combinatorial objects
    count               run a brute-force oracle count
    series              expand a continued fraction
    verify              run the cross-check matrix

options:
  -h, --help            show this help message and exit
""",
    ("seq",): """\
usage: genocchi seq [-h] --count COUNT [--json] {h,H,genocchi1}

positional arguments:
  {h,H,genocchi1}

options:
  -h, --help       show this help message and exit
  --count COUNT
  --json
""",
    ("poly",): """\
usage: genocchi poly [-h] --n N [--json] {hq,tildehq,barc}

positional arguments:
  {hq,tildehq,barc}

options:
  -h, --help         show this help message and exit
  --n N
  --json
""",
    ("enumerate",): """\
usage: genocchi enumerate [-h] --n N [--limit LIMIT] [--json]
                          {dellac,admissible,motzkin}

positional arguments:
  {dellac,admissible,motzkin}

options:
  -h, --help            show this help message and exit
  --n N
  --limit LIMIT
  --json
""",
    ("count",): """\
usage: genocchi count [-h] --n N {dumont,triangles}

positional arguments:
  {dumont,triangles}

options:
  -h, --help          show this help message and exit
  --n N
""",
    ("series",): """\
usage: genocchi series [-h] --order ORDER [--spec SPEC] [--json]
                       {f1,f2,hn,viennot,custom}

positional arguments:
  {f1,f2,hn,viennot,custom}

options:
  -h, --help            show this help message and exit
  --order ORDER
  --spec SPEC           JSON spec file for 'custom'
  --json
""",
    ("verify",): """\
usage: genocchi verify [-h] [--n-max N_MAX] [--seed SEED] [--json]

options:
  -h, --help     show this help message and exit
  --n-max N_MAX
  --seed SEED
  --json
""",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "top")
def test_help_text_golden(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out == HELP[command]
    assert captured.err == ""


USAGE_ERRORS = [
    (["frobnicate"], 2, "genocchi: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'seq', 'poly', 'enumerate', 'count', 'series', 'verify')\n"),
    (["seq", "nope", "--count", "3"], 2,
     "genocchi seq: error: argument name: invalid choice: 'nope' (choose from 'h', 'H', 'genocchi1')\n"),
    (["seq", "h"], 2, "genocchi seq: error: the following arguments are required: --count\n"),
    (["series", "custom", "--order", "3"], 2, "error: series custom requires --spec FILE\n"),
    (["series", "f1", "--order", "3", "--spec", "x.json"], 2, "error: --spec applies only to 'series custom'\n"),
    (["verify", "--n-max", "99"], 2, "error: n_max must be between 1 and 8\n"),
    (["seq", "h", "--count", "0"], 2, "error: --count must be positive\n"),
    (["seq", "h", "--cou", "3"], 0, ""),  # argparse reads the abbreviation
]


@pytest.mark.parametrize("argv, status, err", USAGE_ERRORS, ids=[" ".join(a) for a, _, _ in USAGE_ERRORS])
def test_usage_error_lines_are_unchanged(capsys, argv, status, err):
    assert run(argv) == status
    assert capsys.readouterr().err == err


@lru_cache(maxsize=None)
def full_parser():
    return build_parser(COMMANDS)


# every word of the grammar, and what only the full parser reads or refuses:
# abbreviations, --opt=value, --, help, repeats, ints argparse's int() reads
# (signs, spaces, underscores, full-width and Arabic-Indic digits) and stray words
WORDS = sorted(
    {
        *COMMANDS,
        *(choice for _, _, pos, _ in COMMANDS.values() if pos for choice in pos[1]),
        *(option[0] for _, _, _, options in COMMANDS.values() for option in options),
        "--cou", "--n-m", "--lim", "--js", "--ord", "--se", "--n=5", "--count=3", "--json=1",
        "--", "-h", "--help", "-", "", "stray", "x.json", "-x.json",
    }
)
VALUES = ["0", "3", "-2", "-0", "007", str(10**30), "+5", " 5", "1_0", "\uff15", "\u0663", "2.5", "abc", "x.json"]
TOKENS = st.sampled_from(WORDS + VALUES)


@st.composite
def command_lines(draw):
    """A subcommand's positional and option pairs in a drawn order, with
    stray tokens dropped in: many well-formed lines, and many near misses."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, positional, options = COMMANDS[command]
    usually = st.sampled_from([True, True, True, False])
    parts = [[draw(st.sampled_from(positional[1]))]] if positional and draw(usually) else []
    for flag, _, kind, _, _ in options:
        if draw(usually):
            well_formed = st.integers(-3, 60).map(str) if kind is int else st.just("x.json")
            value = st.sampled_from([well_formed, well_formed, well_formed, TOKENS]).flatmap(lambda v: v)
            parts.append([flag] if kind is bool else [flag, draw(value)])
    parts = draw(st.permutations(parts))
    stray = st.lists(st.tuples(st.integers(0, len(parts)), TOKENS), min_size=1, max_size=2)
    for at, token in draw(st.sampled_from([st.just([]), st.just([]), stray]).flatmap(lambda v: v)):
        parts.insert(at, [token])
    return [command] + [token for part in parts for token in part]


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(command_lines(), command_lines(), st.lists(TOKENS, max_size=7)))
def test_the_fast_parse_agrees_with_argparse_wherever_it_reads(argv):
    fast = _fast_parse(argv)
    if fast is not None:
        assert vars(fast) == vars(full_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "h", "--count", "7"],
        ["poly", "--json", "--n", "24", "barc"],
        ["enumerate", "motzkin", "--limit", "-1", "--n", "4"],
        ["count", "dumont", "--n", "3"],
        ["series", "custom", "--spec", "s.json", "--order", "4", "--json"],
        ["verify"],
        ["verify", "--seed", "-3", "--n-max", "5", "--json"],
    ],
    ids=" ".join,
)
def test_a_well_formed_line_takes_the_fast_parse(argv):
    fast = _fast_parse(argv)
    assert fast is not None
    assert vars(fast) == vars(full_parser().parse_args(argv))


def read_one_line_then_close(argv):
    """Run the CLI, read one line of its output, close the pipe; return the
    line, the exit status and the standard error."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "genocchi.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    status = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    return line, status, err


def test_closed_stdout_pipe_exits_quietly():
    # the output outgrows the pipe, so the writer meets the closed end
    line, status, err = read_one_line_then_close(["enumerate", "motzkin", "--n", "14"])
    assert line == b"0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    assert status == 141
    assert err == b""


def test_closed_stdout_pipe_exits_quietly_json():
    # the same on the JSON stream, which writes each line in one call
    line, status, err = read_one_line_then_close(["enumerate", "dellac", "--n", "7", "--json"])
    assert line == b'{"n":7,"columns":[[1,2],[3,4],[5,6],[7,8],[9,10],[11,12],[13,14]]}\n'
    assert status == 141
    assert err == b""


def fresh_buffered(argv, **streams):
    """Run `python -m genocchi.cli argv` with a buffered stdout: a short
    output then stays in memory until the one flush after run() returns."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-m", "genocchi.cli", *argv], env=env, timeout=120, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_disk_at_the_final_flush_exits_2():
    with open("/dev/full", "wb") as full:
        done = fresh_buffered(["seq", "h", "--count", "3"], stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr == b"error: [Errno 28] No space left on device\n"


def test_a_pipe_closed_before_the_final_flush_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = fresh_buffered(["seq", "h", "--count", "3"], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize("fd, line, out", [(1, "count dumont --n 3", b""), (2, "seq h --count 3", b"1 1 2\n")])
def test_a_command_started_with_a_closed_stream_exits_as_run_returns(fd, line, out):
    # the interpreter then sets sys.stdout or sys.stderr to None, which the final flush skips
    done = fresh_buffered(line.split(), capture_output=True, preexec_fn=lambda: os.close(fd))
    assert done.returncode == 0
    assert done.stdout == out


@pytest.mark.parametrize("line, status", [("seq h --count 0", 2), ("seq h --count 901", 3), ("verify --n-max 2", 0)])
def test_with_stderr_closed_no_error_or_timing_line_reaches_stdout(line, status):
    # sys.stderr is then None, and print(..., file=None) writes to stdout
    done = fresh_buffered(line.split(), capture_output=True, preexec_fn=lambda: os.close(2))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run(line.split()) == status
    assert done.returncode == status
    assert done.stdout == out.getvalue().encode()


def test_with_no_stderr_an_internal_error_writes_nothing(monkeypatch):
    def broken(n):
        raise InternalInconsistencyError("gave up")

    monkeypatch.setattr(hanzeng, "hanzeng_barc", broken)
    monkeypatch.setattr(sys, "stderr", None)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["poly", "barc", "--n", "5"]) == 4
    assert out.getvalue() == ""


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone, with the descriptor fd, or none."""

    def __init__(self, fd=None):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


def test_an_in_process_broken_pipe_without_a_descriptor_exits_141():
    with redirect_stdout(BrokenStdout()):
        assert run(["seq", "h", "--count", "3"]) == 141


def test_an_in_process_broken_pipe_points_the_descriptor_at_devnull(tmp_path):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        free = os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor
        os.close(free)
        with redirect_stdout(BrokenStdout(fd)):
            assert run(["seq", "h", "--count", "3"]) == 141
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        assert probe == free  # the descriptor opened for the dup is closed again
    finally:
        os.close(fd)


@pytest.mark.parametrize(
    "line, status",
    [
        ("seq h --count 7", 0),
        ("series f1 --order 5 --json", 0),
        ("verify --n-max 3 --json --seed 1", 0),
        ("seq h --count 0", 2),
        ("seq h --count 901", 3),
    ],
)
def test_a_fresh_command_ends_with_everything_run_wrote(line, status):
    # the process ends with os._exit, after its own flush: nothing written may be lost
    argv = line.split()
    done = fresh_buffered(argv, capture_output=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(argv) == status
    assert done.returncode == status
    assert done.stdout == out.getvalue().encode()
    assert done.stderr == err.getvalue().encode()


# hostile values for any numeric argument: argparse rejects the last three
HOSTILE = ("-1", "-7", str(10**30), "abc", "2.5", "")


def size(top):
    return st.one_of(st.integers(0, top).map(str), st.sampled_from(HOSTILE))


def argv_of(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def words(*names):
    return st.sampled_from(names).map(lambda name: [name])


def arg(flag, values):
    return values.map(lambda v: [flag, v])


def option(flag, values):
    return st.one_of(st.just([]), arg(flag, values))


JSON = st.sampled_from([[], ["--json"]])
# "@name" stands for a file in the spec directory; missing.json is never written
SPEC = option(
    "--spec",
    st.sampled_from(["@good.json", "@bad.json", "@shape.json", "@deep.json", "@missing.json"]),
)

ARGV = st.one_of(
    argv_of(words("seq"), words("h", "H", "genocchi1"), arg("--count", size(50)), JSON),
    argv_of(words("poly"), words("hq", "tildehq", "barc"), arg("--n", size(5)), JSON),
    argv_of(
        words("enumerate"),
        words("dellac", "admissible", "motzkin"),
        arg("--n", size(5)),
        option("--limit", size(50)),
        JSON,
    ),
    argv_of(words("count"), words("dumont", "triangles"), arg("--n", size(5))),
    argv_of(
        words("series"),
        words("f1", "f2", "hn", "viennot", "custom"),
        arg("--order", size(12)),
        SPEC,
        JSON,
    ),
    argv_of(
        words("verify"),
        option("--n-max", size(4)),
        option("--seed", st.one_of(st.integers(-3, 3).map(str), st.sampled_from(HOSTILE))),
        JSON,
    ),
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs")
    (path / "good.json").write_text('{"kind": "S", "c": [1, 2, 3]}', encoding="utf-8")
    (path / "bad.json").write_text("{not json", encoding="utf-8")
    (path / "shape.json").write_text('{"kind": "J", "gamma": [1.5]}', encoding="utf-8")
    (path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    return path


CAP = st.one_of(st.sampled_from([None, "abc", "-1"]), st.integers(0, 6).map(str))
# enumerate --limit with GENOCCHI_MAX_N up to 40: only a total that needs no
# sweep of masks or pools keeps the command within the deadline
LIMITED = st.tuples(
    argv_of(
        words("enumerate"),
        words("dellac", "admissible", "motzkin"),
        arg("--n", size(40)),
        arg("--limit", st.one_of(st.integers(0, 50).map(str), st.sampled_from(("-1", "abc", "")))),
        JSON,
    ),
    st.integers(0, 40).map(str),
)


@settings(max_examples=150, deadline=2000)
@given(argv_cap=st.one_of(st.tuples(ARGV, CAP), LIMITED))
def test_fuzzed_argv_ends_in_an_answer_or_one_error_line(spec_dir, argv_cap):
    argv, cap = argv_cap
    argv = [str(spec_dir / a[1:]) if a.startswith("@") else a for a in argv]
    err = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), redirect_stderr(err):
        os.environ.pop("GENOCCHI_MAX_N", None)
        if cap is not None:
            os.environ["GENOCCHI_MAX_N"] = cap
        status = run(argv)
    assert status in (0, 2, 3), (argv, cap, status, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, cap, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
