"""What a command loads: each subcommand imports only its own route, and the
package namespace loads a name's home module on first use.  The import sets
are read in a fresh interpreter, since this process has loaded everything."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genocchi

SRC = Path(__file__).resolve().parents[1] / "src"

# modules every command may load: the CLI, its error types and its bounds
FRONT = {"cli", "errors", "limits"}

RUN_CLI = """
import contextlib, io, sys
import genocchi.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        genocchi.cli.run(sys.argv[1:])
"""


def modules_after(code: str, *argv: str) -> set[str]:
    """The genocchi.* modules, without the prefix, that a fresh interpreter
    holds after running code with argv."""
    listing = "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('genocchi.')))"
    out = subprocess.run(
        [sys.executable, "-c", code + listing, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return {name.removeprefix("genocchi.") for name in out.split()}


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
    modules = loaded("enumerate", "motzkin", "--n", "4")
    assert {"motzkin", "walk"} <= modules
    assert modules.isdisjoint({"dellac", "admissible", "verify"})


def test_a_public_name_loads_its_home_module_on_first_use():
    assert modules_after("import genocchi") == set()
    assert modules_after("import genocchi; genocchi.IntPoly") == {"errors", "exactalg"}


@pytest.mark.parametrize("name", genocchi.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(genocchi, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(genocchi)[name] is value  # bound on first use


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
