"""What a command loads: each subcommand imports only its own handler
module and its own route, every module verify compiles stays at or under
the token line past which compiling it takes a larger peak, no command
imports dataclasses or fractions, a well-formed command line is read
without argparse and written without json (save the spec files of series
custom), and the package namespace loads a name's home module on first
use.  The import sets are read in a fresh
interpreter, since this process has loaded everything.
What the commands reach: every function the package defines runs in some
command, save a few listed with their reasons.  What each module imports,
it uses."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tokenize
import types
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
    # and the printing commands' handlers
    assert loaded("seq", "H", "--count", "5") == FRONT | {"cli_print", "seidel"}


def test_poly_barc_loads_only_han_zeng():
    assert loaded("poly", "barc", "--n", "5").isdisjoint({"motzkin", "contfrac", "verify"})


def test_series_loads_no_enumeration_or_matrix():
    modules = loaded("series", "f1", "--order", "5")
    assert "contfrac" in modules
    assert modules.isdisjoint({"verify", "dellac", "admissible", "oracles", "hanzeng", "seidel"})


def test_enumerate_loads_only_its_model():
    # and the walk, the stream that holds its handler and the model's own
    # stream rules: no path sweep and no polynomial code
    for model in ("dellac", "admissible", "motzkin"):
        own = {model, "walk", "stream", f"stream_{model}"}
        assert loaded("enumerate", model, "--n", "4") == FRONT | own


def test_a_public_name_loads_its_home_module_on_first_use():
    assert modules_after("import genocchi") == set()
    assert modules_after("import genocchi; genocchi.IntPoly") == {"exactalg"}


@pytest.mark.parametrize("name", genocchi.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(genocchi, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(genocchi)[name] is value  # bound on first use


def test_the_laurent_type_is_gone():
    # the Laurent-weight route runs on IntPoly weights, gauged to stay
    # polynomials, and needs no type of its own
    from genocchi import exactalg

    assert "LaurentPoly" not in genocchi.__all__
    with pytest.raises(AttributeError):
        genocchi.LaurentPoly
    assert not hasattr(exactalg, "LaurentPoly")


@pytest.mark.parametrize(
    "name",
    ["q_int", "q_factorial", "TrianglePair", "genocchi_first", "hanzeng_C", "poly_exact_div", "is_closed_in_gamma"],
)
def test_a_name_only_tests_used_is_not_public(name):
    # the references live in tests/reference.py; genocchi_first_sequence
    # serves for the single number
    assert name not in genocchi.__all__
    with pytest.raises(AttributeError):
        getattr(genocchi, name)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_a_module_uses_every_name_it_imports(module):
    # a deletion can leave an import behind, such as a typing name only the
    # deleted code read; from __future__ imports switch features on.  An
    # unquoted annotation parses to the names it reads, so they count as used
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()


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
    "cli._handler": "builds COMMANDS while cli.py is imported, before any run below",
    "errors.internal_error": "exit 4: reached only when the program itself is at fault",
    "stream._walk_fault": "exit 4 for a walked object its model's rules reject",
    "dellac.dellac_length": "the acceptance criteria's per-configuration statistic",
    "motzkin.fermionic_exponent": "the acceptance criteria's per-path exponent",
    "exactalg.PowerSeries.inverse": "the perfbench tracer reads and patches it by name",
    "exactalg.IntPoly.__setattr__": "the immutability guard: runs only when code misuses a value",
    "exactalg.IntPoly.__repr__": "failure details and debugging",
    "exactalg.IntPoly.__str__": "failure details and debugging",
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
    original's code, and one name is listed for both unless the alias has
    a code of its own (own_alias_code)."""
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
    if "custom" not in argv:  # the spec reader uses json
        assert "json" not in added


@pytest.mark.parametrize("argv", [argv for _, argv in REACH_RUNS if argv[0] == "series"], ids=" ".join)
def test_a_series_command_loads_only_the_path_sweep(argv, command_modules):
    # contfrac expands by its own path_sums; neither motzkin.py nor the walk is
    # compiled, and only series custom loads the spec file reader
    spec = {"specfile"} if "custom" in argv else set()
    assert package_modules(command_modules(argv)) == FRONT | {"cli_print", "contfrac", "exactalg"} | spec


# what each command form loads besides FRONT: its handler module and its route
ROUTES = {
    "seq": {"cli_print", "seidel"},
    "poly hq": {"cli_print", "motzkin", "walk", "exactalg"},
    "poly tildehq": {"cli_print", "motzkin", "walk", "exactalg"},
    "poly barc": {"cli_print", "hanzeng", "exactalg"},
    "count": {"cli_print", "oracles", "walk"},
    "series": {"cli_print", "contfrac", "exactalg"},
    "enumerate": {"walk", "stream"},  # its model and its rules, and seidel under --limit
}
HANDLERS = {"cli_print", "cli_usage"}


@pytest.mark.parametrize("argv", [argv for status, argv in REACH_RUNS if status == 0], ids=" ".join)
def test_each_command_loads_only_its_handler_and_its_route(argv, command_modules):
    modules = package_modules(command_modules(argv)) - FRONT
    if argv[0] == "verify":
        # no cli_* handler module, no stream and no spec file reader
        assert not {m for m in modules if m in HANDLERS | {"specfile"} or m.startswith("stream")}
        assert "verify" in modules
        return
    route = ROUTES.get(" ".join(argv[:2])) or ROUTES[argv[0]]
    if argv[0] == "enumerate":
        route = route | {argv[1], f"stream_{argv[1]}"}
        if "--limit" in argv and argv[1] != "motzkin":
            route = route | {"seidel"}
    if "custom" in argv:
        route = route | {"specfile"}
    assert modules == route


# a module's compile() peak jumps by about 120 KB once it passes this many
# tokens (tokenize's, without the encoding, comments and the NL tokens of
# blank lines and of lines inside brackets), and without a bytecode cache a
# fresh command compiles every module it loads
COMPILE_TOKEN_LINE = 2048


def parser_tokens(module: str) -> int:
    with open(PACKAGE / f"{module}.py", "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        return sum(1 for t in tokens if t.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def test_every_module_verify_compiles_is_under_the_token_line(command_modules):
    modules = package_modules(command_modules(["verify", "--n-max", "5", "--json"]))
    sizes = {module: parser_tokens(module) for module in modules}
    assert {m: size for m, size in sizes.items() if size > COMPILE_TOKEN_LINE} == {}
    assert len(modules) > len(FRONT)


@pytest.fixture
def own_alias_code(monkeypatch):
    """For one test, each alias the package defines, such as __rmul__ =
    __mul__ or __str__ = render, runs a copy of its original's code under
    its own name: a run through the alias then reaches the alias alone."""
    for name, func in list(defined_functions()):
        home, _, attr = name.rpartition(".")
        owner = importlib.import_module(f"genocchi.{home.partition('.')[0]}")
        for part in home.split(".")[1:]:
            owner = getattr(owner, part)
        if inspect.isfunction(vars(owner)[attr]) and func.__name__ != attr:
            code = func.__code__.replace(co_name=attr)
            copy = types.FunctionType(code, func.__globals__, attr, func.__defaults__, func.__closure__)
            monkeypatch.setattr(owner, attr, copy)


def test_the_commands_reach_every_member_the_package_defines(spec_dir, own_alias_code):
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
