"""Command-line interface.

Subcommands: seq (integer sequences), poly (q-polynomials), enumerate
(stream combinatorial objects), count (brute-force oracles), series
(continued-fraction expansions), verify (the cross-check matrix).  Each
subcommand imports its route when it is called, so a command loads only
the modules it runs; importing this module loads none of the routes.

The grammar is written once, in COMMANDS.  A well-formed command line
(exact subcommand and option names, each at most once, decimal ints) is
read from that table directly; anything else (help, an abbreviation,
--opt=value, a usage error) goes to the argparse parser built from the same
table, so importing this module loads neither argparse nor json.

enumerate writes its lines through stream.py, which checks, joins and
encodes each piece the walk shares once; seq and series write each term or
coefficient as soon as it is known.  contfrac.read_spec reads the spec file
of series custom.

Exit status: 0 success, 1 verification failures, 2 usage error, 3 resource
limit exceeded, 4 internal error (a broken identity or any other uncaught
exception, reported as one `internal error:` line), 141 (128 + SIGPIPE)
when the reader closes stdout early.  A failed final write maps like any
other: main flushes stdout after run() returns (141, or one `error:` line
and 2), then skips the interpreter's teardown with os._exit, so atexit
hooks that other code puts into the CLI process do not run.
All output is deterministic; JSON payloads use decimal strings for big
integers and round-trip byte-identically.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .errors import InternalInconsistencyError, ResourceLimitError
from .limits import CROSSCHECK_MAX_N

if TYPE_CHECKING:
    import argparse

    from .exactalg import PowerSeries

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4
BROKEN_PIPE = 141

# fixed bounds, checked before any work: not far past 900 terms the values
# outgrow Python's 4300-digit limit on int-to-str conversion, and the cost of
# a q-fraction expansion climbs steeply with the order
SEQ_MAX_COUNT = 900
SERIES_MAX_ORDER = 64


# a decimal string as json.dumps writes it: digits and a minus sign need no
# escape.  Every payload but the verify report holds only these, ints and
# fixed keys.
_quoted = '"{}"'.format


def _decimals(values) -> str:
    """A JSON array of decimal strings, byte for byte as json.dumps writes it."""
    return "[" + ",".join(map(_quoted, values)) + "]"


def _write_joined(head: str, pieces, sep: str, end: str) -> None:
    """Write head, the pieces separated by sep, then end, each piece as soon
    as it is made: a command holds one piece's text, not its whole output.
    A fault while a piece is made leaves the pieces before it written."""
    write = sys.stdout.write
    write(head)
    lead = ""
    for piece in pieces:
        write(lead + piece)
        lead = sep
    write(end)


def _complain(line: str) -> None:
    # None when the process starts with fd 2 closed: print would use stdout
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _internal_error(exc: Exception) -> int:
    _complain(f"internal error: {type(exc).__name__}: {exc}")
    return INTERNAL_ERROR


def _print_series(series: PowerSeries, as_json: bool) -> None:
    coeffs = series.coeffs
    if as_json:
        pieces = ('{"coeffs":' + _decimals(c.coeff_strings()) + "}" for c in coeffs)
        _write_joined(f'{{"order":{series.order},"coeffs":[', pieces, ",", "]}\n")
    elif all(len(c.coeffs) < 2 for c in coeffs):
        _write_joined("", (c.coeff_strings()[0] for c in coeffs), " ", "\n")
    else:
        _write_joined("", (f"s^{n}: {c.render()}" for n, c in enumerate(coeffs)), "\n", "\n")


def _cmd_seq(args) -> int:
    from .seidel import genocchi_first_sequence, h_sequence, median_sequence

    if args.count < 1:
        raise ValueError("--count must be positive")
    if args.count > SEQ_MAX_COUNT:
        raise ResourceLimitError(f"seq --count capped at {SEQ_MAX_COUNT}, got {args.count}")
    values = {
        "h": h_sequence,
        "H": median_sequence,
        "genocchi1": genocchi_first_sequence,
    }[args.name](args.count)
    if args.json:
        label = ',"label":"H_{2n-1}"' if args.name == "H" else ""
        _write_joined(f'{{"name":"{args.name}"{label},"values":[', map(_quoted, values), ",", "]}\n")
    else:
        _write_joined("", map(str, values), " ", "\n")
    return 0


def _cmd_poly(args) -> int:
    if args.name == "barc":
        from .hanzeng import hanzeng_barc as route
    else:
        from .motzkin import h_poly_fermionic, tilde_h

        route = h_poly_fermionic if args.name == "hq" else tilde_h
    p = route(args.n)
    print('{"coeffs":' + _decimals(p.coeff_strings()) + "}" if args.json else p.render())
    return 0


def _cmd_enumerate(args) -> int:
    from .stream import write_lines
    from .walk import layered_sweep

    if args.model == "dellac":
        from . import dellac as model
        from .dellac import DellacConfig as build, iter_dellac as walk
    elif args.model == "admissible":
        from . import admissible as model
        from .admissible import AdmissibleSequence as build, iter_admissible as walk
    else:
        from . import motzkin as model
        from .motzkin import MotzkinPath, iter_motzkin as walk

        def build(n, heights):
            return MotzkinPath(heights)

    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    items = walk(args.n)  # checks n, before anything is walked
    stop = sys.maxsize if args.limit is None else args.limit
    written, faulty = write_lines(sys.stdout.write, model, args.n, args.json, stop)
    if faulty:
        # n was checked above, so an object its walk yields and its rules
        # reject is a fault of the walk
        return _walk_fault(build, args.n, items, written)

    if args.limit is None:
        total = written
    elif args.model == "motzkin":
        # the walk's own layers, swept over heights: the total visits no path
        swept = layered_sweep(*model.layers(args.n), lambda level, state, item, runs: runs)
        total = sum(swept.values())
    else:
        from .seidel import h_sequence

        for total in h_sequence(args.n + 1):  # configurations and sequences both number h(n)
            pass

    if args.json:
        print(f'{{"total":"{total}"}}')
    else:
        print(f"total {total}")
    return 0


def _walk_fault(build, n: int, items, index: int) -> int:
    """Exit 4 with the constructor's message for the walk's object at index,
    which failed its check in the stream."""
    try:
        build(n, next(islice(items, index, None)))
    except (TypeError, ValueError) as exc:
        return _internal_error(exc)
    raise InternalInconsistencyError(f"object {index} of the walk fails its stream check but builds")


def _cmd_count(args) -> int:
    from .oracles import count_dumont, count_triangle_pairs

    fn = {"dumont": count_dumont, "triangles": count_triangle_pairs}[args.model]
    print(fn(args.n))
    return 0


def _cmd_series(args) -> int:
    from .contfrac import NAMED_FRACTIONS, expand, read_spec

    if args.order > SERIES_MAX_ORDER:
        raise ResourceLimitError(f"series --order capped at {SERIES_MAX_ORDER}, got {args.order}")
    # the interpreter's limit on converting an int from or to a string (0: none,
    # as before Python 3.10.7): a spec literal past it is refused before int()
    # reads it, and a coefficient past it before the first line is written
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if args.name == "custom":
        if not args.spec:
            raise ValueError("series custom requires --spec FILE")
        spec = read_spec(args.spec, limit)
    else:
        if args.spec:
            raise ValueError("--spec applies only to 'series custom'")
        spec = NAMED_FRACTIONS[args.name]()
    series = expand(spec, args.order)
    largest = max((max(map(abs, c.coeffs)) for c in series.coeffs if c.coeffs), default=0)
    if limit and largest >= 10**limit:
        raise ResourceLimitError(f"series --order {args.order} gives a coefficient of more than {limit} digits")
    _print_series(series, args.json)
    return 0


def _cmd_verify(args) -> int:
    from .verify import crosscheck

    started = time.monotonic()
    report = crosscheck(args.n_max, seed=args.seed)
    if args.json:
        print(report.json_text())
    else:
        print(report.table())
        _complain(f"elapsed: {time.monotonic() - started:.2f}s")
    return 1 if report.failures else 0


# The command line, written once: subcommand -> (help, handler, positional,
# options).  The positional is (dest, choices), or None; each option is
# (flag, dest, kind, default, help), where kind is int, str or bool (a flag
# that stores True) and an option whose default is REQUIRED must be given.
REQUIRED = object()
COMMANDS = {
    "seq": (
        "print the first terms of a sequence",
        _cmd_seq,
        ("name", ("h", "H", "genocchi1")),
        (("--count", "count", int, REQUIRED, None), ("--json", "json", bool, False, None)),
    ),
    "poly": (
        "print one q-polynomial",
        _cmd_poly,
        ("name", ("hq", "tildehq", "barc")),
        (("--n", "n", int, REQUIRED, None), ("--json", "json", bool, False, None)),
    ),
    "enumerate": (
        "stream combinatorial objects",
        _cmd_enumerate,
        ("model", ("dellac", "admissible", "motzkin")),
        (
            ("--n", "n", int, REQUIRED, None),
            ("--limit", "limit", int, None, None),
            ("--json", "json", bool, False, None),
        ),
    ),
    "count": (
        "run a brute-force oracle count",
        _cmd_count,
        ("model", ("dumont", "triangles")),
        (("--n", "n", int, REQUIRED, None),),
    ),
    "series": (
        "expand a continued fraction",
        _cmd_series,
        ("name", ("f1", "f2", "hn", "viennot", "custom")),
        (
            ("--order", "order", int, REQUIRED, None),
            ("--spec", "spec", str, None, "JSON spec file for 'custom'"),
            ("--json", "json", bool, False, None),
        ),
    ),
    "verify": (
        "run the cross-check matrix",
        _cmd_verify,
        None,
        (
            ("--n-max", "n_max", int, CROSSCHECK_MAX_N - 1, None),
            ("--seed", "seed", int, 0, None),
            ("--json", "json", bool, False, None),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # argparse's own error line without the usage block, so that every
            # usage error is one line; subcommand parsers inherit this class
            self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="genocchi",
        description="Median Genocchi numbers and their q-analogues, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, handler, positional, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if positional is not None:
            dest, choices = positional
            p.add_argument(dest, choices=choices)
        for flag, dest, kind, default, option_help in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true")
            elif default is REQUIRED:
                p.add_argument(flag, dest=dest, type=kind, required=True)
            else:
                p.add_argument(flag, dest=dest, type=kind, default=default, help=option_help)
        p.set_defaults(fn=handler)
    return parser


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, read from COMMANDS as
    build_parser's parser reads them: the exact subcommand, then its
    positional and options in any order, each given at most once, an int
    as ASCII decimal digits after an optional minus sign, and a string that
    does not start with a dash.  None for anything else (help, an
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
            if default is REQUIRED:
                return None
            args[option_dest] = default
    return SimpleNamespace(**args)


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and usage errors
            return int(exc.code or 0)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        _complain(f"error: {exc}")
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
        _complain(f"error: {exc}")
        return USAGE_ERROR
    except Exception as exc:  # a fault of the program, not of its input
        return _internal_error(exc)


def main() -> None:
    status = run()
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        status = BROKEN_PIPE
    except OSError as exc:
        _complain(f"error: {exc}")
        status = USAGE_ERROR
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
