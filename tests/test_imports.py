"""What a command loads: each subcommand imports only its own route, no
command imports dataclasses or fractions, a well-formed command line is
read without argparse and written without json (save the verify report and
the spec files), and the package namespace loads a name's home module
on first use.  The import sets are read in a fresh
interpreter, since this process has loaded everything.
What the commands reach: every function the package defines runs in some
command, save a few listed with their reasons."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import genocchi
from genocchi import cli

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = Path(genocchi.__file__).resolve().parent

# modules every command may load: the CLI, its error types and its bounds
FRONT = {"cli", "errors", "limits"}

RUN_CLI = """
import contextlib, io, sys
import genocchi.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        genocchi.cli.run(sys.argv[1:])
"""


def all_modules_after(code: str, *argv: str) -> set[str]:
    """Every module a fresh interpreter holds after running code with argv."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return set(out.split())


def package_modules(modules: set[str]) -> set[str]:
    """The genocchi.* modules among modules, without the prefix."""
    return {m.removeprefix("genocchi.") for m in modules if m.startswith("genocchi.")}


def modules_after(code: str, *argv: str) -> set[str]:
    """The genocchi.* modules, without the prefix, that a fresh interpreter
    holds after running code with argv."""
    return package_modules(all_modules_after(code, *argv))


def loaded(*argv: str) -> set[str]:
    """The modules `genocchi.cli.run(argv)` leaves loaded, or `import
    genocchi.cli` alone when argv is empty."""
    return modules_after(RUN_CLI, *argv)


def test_importing_the_cli_loads_no_route():
    assert loaded() == FRONT


def test_seq_loads_only_seidel():
    assert loaded("seq", "H", "--count", "5") == FRONT | {"seidel"}


def test_poly_barc_loads_only_han_zeng():
    assert loaded("poly", "barc", "--n", "5").isdisjoint({"motzkin", "contfrac", "verify"})


def test_series_loads_no_enumeration_or_matrix():
    modules = loaded("series", "f1", "--order", "5")
    assert "contfrac" in modules
    assert modules.isdisjoint({"verify", "dellac", "admissible", "oracles", "hanzeng", "seidel"})


def test_enumerate_loads_only_its_model():
    # and the walk and the stream: no path sweep and no polynomial code
    for model in ("dellac", "admissible", "motzkin"):
        assert loaded("enumerate", model, "--n", "4") == FRONT | {model, "walk", "stream"}


def test_a_public_name_loads_its_home_module_on_first_use():
    assert modules_after("import genocchi") == set()
    assert modules_after("import genocchi; genocchi.IntPoly") == {"exactalg"}


@pytest.mark.parametrize("name", genocchi.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(genocchi, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(genocchi)[name] is value  # bound on first use


@pytest.mark.parametrize(
    "name", ["q_int", "q_factorial", "TrianglePair", "genocchi_first", "hanzeng_C", "poly_exact_div"]
)
def test_a_name_only_tests_used_is_not_public(name):
    # the references live in tests/reference.py; genocchi_first_sequence
    # serves for the single number
    assert name not in genocchi.__all__
    with pytest.raises(AttributeError):
        getattr(genocchi, name)


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from genocchi import *", namespace)
    assert set(genocchi.__all__) <= set(namespace)
    assert set(genocchi.__all__) <= set(dir(genocchi))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        genocchi.no_such_name
    with pytest.raises(ImportError):
        exec("from genocchi import no_such_name", {})


# Every function, method and property the package defines is reached by some
# command: code that only tests call belongs in the tests (see reference.py).
# These are the exceptions, each with its reason.
UNREACHED = {
    "cli.main": "the console-script entry point; the runs below call cli.run",
    "cli._internal_error": "exit 4: reached only when the program itself is at fault",
    "cli._walk_fault": "exit 4 for a walked object its model's rules reject",
    "dellac.dellac_length": "the acceptance criteria's per-configuration statistic",
    "motzkin.fermionic_exponent": "the acceptance criteria's per-path exponent",
    "exactalg.PowerSeries.inverse": "the perfbench tracer reads and patches it by name",
    "exactalg.IntPoly.__setattr__": "the immutability guard: runs only when code misuses a value",
    "exactalg.IntPoly.__str__": "failure details and debugging: the commands print render()",
    "exactalg.IntPoly.__repr__": "failure details and debugging",
    "exactalg.IntPoly.__neg__": "PowerSeries.inverse and the Han-Zeng reference in tests/reference.py use it",
    "exactalg.IntPoly.__hash__": "IntPoly defines __eq__, so it must hash as the ints it equals do",
}

SPECS = {
    "s.json": {"kind": "S", "c0": 2, "c": [1, 2, 3]},
    "j.json": {"kind": "J", "gamma": [1, 2], "lambda": [3]},
    "preset.json": {"preset": "f2"},
}

# (exit status, argv): every subcommand form at a small size
REACH_RUNS = [
    *(
        (0, ["enumerate", model, "--n", n, *flags])
        for model, n in (("dellac", "4"), ("admissible", "5"), ("motzkin", "4"))
        for flags in ([], ["--json"], ["--limit", "3"])
    ),
    (0, ["count", "dumont", "--n", "2"]),
    (0, ["count", "triangles", "--n", "3"]),
    *((0, ["series", name, "--order", "4"]) for name in ("f1", "f2", "hn", "viennot")),
    *((0, ["series", "custom", "--order", "4", "--json", "--spec", "@" + f]) for f in SPECS),
    *((0, ["seq", name, "--count", "5", "--json"]) for name in ("h", "H", "genocchi1")),
    *((0, ["poly", name, "--n", "4", "--json"]) for name in ("hq", "tildehq", "barc")),
    (0, ["verify", "--n-max", "5", "--json"]),
    (0, ["verify", "--n-max", "5"]),
    (2, ["seq", "h"]),
]


def own_code(func) -> bool:
    """Whether func, unwrapped, is a function compiled from the package's
    own source files."""
    code = getattr(inspect.unwrap(func), "__code__", None)
    return code is not None and Path(code.co_filename).resolve().parent == PACKAGE


def defined_functions():
    """(qualified name, function) for each function, method and property
    accessor that a module of the package defines, dunder methods included.
    Only the package's own code counts: a member a class inherits from the
    standard library, such as a NamedTuple's _make, _replace, _asdict and
    generated __new__ and __repr__, shares its code with all such classes
    and is not listed.  An alias such as __rmul__ = __mul__ shares its
    original's code, and one name is listed for both."""
    for info in pkgutil.iter_modules(genocchi.__path__):
        module = importlib.import_module(f"genocchi.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__") or getattr(value, "__module__", None) != module.__name__:
                continue
            if not isinstance(value, type):
                if own_code(value):
                    yield f"{info.name}.{name}", value
                continue
            for attr, member in vars(value).items():
                if isinstance(member, property):
                    accessors = [member.fget, member.fset, member.fdel]
                else:
                    accessors = [getattr(member, "__func__", member)]  # static and class methods
                for func in filter(own_code, accessors):
                    yield f"{info.name}.{name}.{attr}", func


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """A directory holding the SPECS files."""
    directory = tmp_path_factory.mktemp("specs")
    for name, spec in SPECS.items():
        (directory / name).write_text(json.dumps(spec), encoding="utf-8")
    return directory


def with_specs(argv: list[str], spec_dir: Path) -> list[str]:
    """argv with each @name replaced by the path of that spec file."""
    return [str(spec_dir / a[1:]) if a.startswith("@") else a for a in argv]


# standard modules no command needs: dataclasses loads inspect, ast, dis and
# tokenize, and fractions loads decimal and numbers, which would cost every
# command more start-up than most of its computation
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}


@pytest.fixture(scope="module")
def bare_modules():
    """What a fresh interpreter holds before any command: a .pth file in
    site-packages may import standard modules at start-up."""
    return all_modules_after("")


@pytest.fixture(scope="module")
def command_modules(spec_dir):
    """all_modules_after(RUN_CLI, *argv) for a REACH_RUNS argv, from one
    fresh interpreter per command form however many tests ask."""
    seen: dict = {}

    def modules(argv: list[str]) -> set[str]:
        key = tuple(with_specs(argv, spec_dir))
        if key not in seen:
            seen[key] = all_modules_after(RUN_CLI, *key)
        return seen[key]

    return modules


@pytest.mark.parametrize("argv", [argv for _, argv in REACH_RUNS], ids=" ".join)
def test_no_command_loads_a_heavy_standard_module(argv, command_modules, bare_modules):
    added = command_modules(argv) - bare_modules
    assert not added & HEAVY
    if argv[0] == "enumerate":
        assert "genocchi.exactalg" not in added  # the stream does no polynomial arithmetic


def test_importing_the_cli_loads_neither_argparse_nor_json(bare_modules):
    assert not (all_modules_after("import genocchi.cli") - bare_modules) & {"argparse", "json"}


@pytest.mark.parametrize("argv", [argv for status, argv in REACH_RUNS if status == 0], ids=" ".join)
def test_a_well_formed_command_line_skips_argparse_and_json(argv, command_modules, bare_modules):
    added = command_modules(argv) - bare_modules
    assert "argparse" not in added
    if argv[0] != "verify" and "custom" not in argv:  # the report and the spec reader use json
        assert "json" not in added


@pytest.mark.parametrize("argv", [argv for _, argv in REACH_RUNS if argv[0] == "series"], ids=" ".join)
def test_a_series_command_loads_only_the_path_sweep(argv, command_modules):
    # contfrac expands by pathsums.path_sums; neither motzkin.py nor the walk is compiled
    assert package_modules(command_modules(argv)) == FRONT | {"contfrac", "pathsums", "exactalg"}


def test_the_commands_reach_every_member_the_package_defines(spec_dir):
    members = {}
    for name, func in defined_functions():
        if hasattr(func, "cache_clear"):
            func.cache_clear()  # a cached call runs no frame for arguments seen before
        members[inspect.unwrap(func).__code__] = name
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    statuses = []
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for _, argv in REACH_RUNS:
                statuses.append(cli.run(with_specs(argv, spec_dir)))
        finally:
            sys.setprofile(previous)
    assert statuses == [status for status, _ in REACH_RUNS]
    unreached = {name for code, name in members.items() if code not in reached}
    assert unreached == set(UNREACHED)
