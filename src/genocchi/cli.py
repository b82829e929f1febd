"""Command-line interface.

Subcommands: seq (integer sequences), poly (q-polynomials), enumerate
(stream combinatorial objects), count (brute-force oracles), series
(continued-fraction expansions), verify (the cross-check matrix).  Each
subcommand imports its handler and its route when it is called, so a
command loads, and compiles, only the code it runs; importing this module
loads none of the routes and none of the handlers.  The seq, poly, series
and count handlers live in cli_print.py, the enumerate handler beside the
stream it drives, in stream.py, the verify handler beside the report it
writes, in report.py, and the argparse parser in cli_usage.py.

The grammar is written once, in COMMANDS.  A well-formed command line
(exact subcommand and option names, each at most once, decimal ints) is
read from that table directly; anything else (help, an abbreviation,
--opt=value, a usage error) goes to the argparse parser built from the same
table, so a well-formed command loads neither argparse nor json.

enumerate writes its lines through stream.py, which checks, joins and
encodes each piece the walk shares once; seq and series write each term or
coefficient as soon as it is known.  specfile.read_spec reads the spec file
of series custom.

Exit status (errors.py): 0 success, 1 verification failures, 2 usage
error, 3 resource limit exceeded, 4 internal error (a broken identity or
any other uncaught exception, reported as one `internal error:` line), 141
(128 + SIGPIPE) when the reader closes stdout early.  A failed final write
maps like any other: main flushes stdout after run() returns (141, or one
`error:` line and 2), then skips the interpreter's teardown with os._exit,
so atexit hooks that other code puts into the CLI process do not run.
All output is deterministic; JSON payloads use decimal strings for big
integers and round-trip byte-identically.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import Sequence

from .errors import BROKEN_PIPE, RESOURCE_ERROR, USAGE_ERROR, ResourceLimitError, complain, internal_error
from .limits import CROSSCHECK_MAX_N


def _handler(home: str, name: str):
    """The handler name of the module home, imported when it runs."""
    return lambda args: getattr(import_module(f".{home}", __package__), name)(args)


# The command line, written once: subcommand -> (help, handler, positional,
# options).  The positional is (dest, choices), or None; each option is
# (flag, dest, kind, default, help), where kind is int, str or bool (a flag
# that stores True) and an option whose default is ... (Ellipsis) must be
# given.
COMMANDS = {
    "seq": (
        "print the first terms of a sequence",
        _handler("cli_print", "cmd_seq"),
        ("name", ("h", "H", "genocchi1")),
        (("--count", "count", int, ..., None), ("--json", "json", bool, False, None)),
    ),
    "poly": (
        "print one q-polynomial",
        _handler("cli_print", "cmd_poly"),
        ("name", ("hq", "tildehq", "barc")),
        (("--n", "n", int, ..., None), ("--json", "json", bool, False, None)),
    ),
    "enumerate": (
        "stream combinatorial objects",
        _handler("stream", "cmd_enumerate"),
        ("model", ("dellac", "admissible", "motzkin")),
        (
            ("--n", "n", int, ..., None),
            ("--limit", "limit", int, None, None),
            ("--json", "json", bool, False, None),
        ),
    ),
    "count": (
        "run a brute-force oracle count",
        _handler("cli_print", "cmd_count"),
        ("model", ("dumont", "triangles")),
        (("--n", "n", int, ..., None),),
    ),
    "series": (
        "expand a continued fraction",
        _handler("cli_print", "cmd_series"),
        ("name", ("f1", "f2", "hn", "viennot", "custom")),
        (
            ("--order", "order", int, ..., None),
            ("--spec", "spec", str, None, "JSON spec file for 'custom'"),
            ("--json", "json", bool, False, None),
        ),
    ),
    "verify": (
        "run the cross-check matrix",
        _handler("report", "cmd_verify"),
        None,
        (
            ("--n-max", "n_max", int, CROSSCHECK_MAX_N - 1, None),
            ("--seed", "seed", int, 0, None),
            ("--json", "json", bool, False, None),
        ),
    ),
}


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, read from COMMANDS as
    cli_usage.build_parser's parser reads them: the exact subcommand, then
    its positional and options in any order, each given at most once, an
    int as ASCII decimal digits after an optional minus sign, and a string
    that does not start with a dash.  None for anything else (help, an
    abbreviation, --opt=value, --, a repeat, an unknown or missing
    argument), which the parser then reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, positional, options = COMMANDS[argv[0]]
    dest, choices = positional or (None, ())
    by_flag = {option[0]: option for option in options}
    args = {"command": argv[0], "fn": handler}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in by_flag:
            if token not in choices or dest in args:
                return None
            args[dest] = token
            continue
        _, option_dest, kind, _, _ = by_flag[token]
        if option_dest in args:
            return None
        if kind is bool:
            args[option_dest] = True
            continue
        value = next(tokens, None)
        if value is None:
            return None
        if kind is int:
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() reads
                return None
        elif value.startswith("-"):
            return None
        args[option_dest] = value
    if positional is not None and dest not in args:
        return None
    for _, option_dest, _, default, _ in options:
        if option_dest not in args:
            if default is ...:
                return None
            args[option_dest] = default
    return SimpleNamespace(**args)


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv)
    if args is None:
        from .cli_usage import build_parser

        try:
            args = build_parser(COMMANDS).parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and usage errors
            return int(exc.code or 0)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        complain(f"error: {exc}")
        return RESOURCE_ERROR
    except BrokenPipeError:
        # exit as SIGPIPE would; a stdout with a descriptor goes to /dev/null
        # to keep a flush at exit quiet
        try:
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
        except (OSError, ValueError):  # an in-process stream may have none
            return BROKEN_PIPE
        os.dup2(null, fd)
        os.close(null)
        return BROKEN_PIPE
    except (ValueError, OSError) as exc:  # includes malformed JSON spec files
        complain(f"error: {exc}")
        return USAGE_ERROR
    except Exception as exc:  # a fault of the program, not of its input
        return internal_error(exc)


def main() -> None:
    status = run()
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        status = BROKEN_PIPE
    except OSError as exc:
        complain(f"error: {exc}")
        status = USAGE_ERROR
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
