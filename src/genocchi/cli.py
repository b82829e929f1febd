"""Command-line interface.

Subcommands: seq (integer sequences), poly (q-polynomials), enumerate
(stream combinatorial objects), count (brute-force oracles), series
(continued-fraction expansions), verify (the cross-check matrix).  Each
subcommand imports its route when it is called, so a command loads only
the modules it runs; importing this module loads none of the routes.

Exit status: 0 success, 1 verification failures, 2 usage error, 3 resource
limit exceeded, 4 internal error (a broken identity or any other uncaught
exception, reported as one `internal error:` line), 141 (128 + SIGPIPE)
when the reader closes stdout early.
All output is deterministic; JSON payloads use decimal strings for big
integers and round-trip byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from .errors import InternalInconsistencyError, ResourceLimitError
from .limits import CROSSCHECK_MAX_N

if TYPE_CHECKING:
    from .exactalg import IntPoly, PowerSeries

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4
BROKEN_PIPE = 141

# fixed bounds, checked before any work: not far past 900 terms the values
# outgrow Python's 4300-digit limit on int-to-str conversion, and the cost of
# a q-fraction expansion climbs steeply with the order
SEQ_MAX_COUNT = 900
SERIES_MAX_ORDER = 64

# enumerate writes its lines in blocks of this many (about 18 KB of Dellac
# JSON at n = 7): one system call per block, not per line, where stdout is
# unbuffered; larger blocks were no faster and hold more memory
WRITE_BLOCK_LINES = 256


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return INTERNAL_ERROR


def _print_poly(p: IntPoly, as_json: bool) -> None:
    if as_json:
        print(_dump({"coeffs": p.coeff_strings()}))
    else:
        print(p.render())


def _print_series(series: PowerSeries, as_json: bool) -> None:
    if as_json:
        print(
            _dump(
                {
                    "order": series.order,
                    "coeffs": [{"coeffs": c.coeff_strings()} for c in series.coeffs],
                }
            )
        )
        return
    if all(c.is_zero or c.degree == 0 for c in series.coeffs):
        print(" ".join(str(c.constant_term) for c in series.coeffs))
    else:
        for n, c in enumerate(series.coeffs):
            print(f"s^{n}: {c.render()}")


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
        payload: dict = {"name": args.name}
        if args.name == "H":
            payload["label"] = "H_{2n-1}"
        payload["values"] = [str(v) for v in values]
        print(_dump(payload))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def _cmd_poly(args) -> int:
    if args.name == "barc":
        from .hanzeng import hanzeng_barc as route
    else:
        from .motzkin import h_poly_fermionic, tilde_h

        route = h_poly_fermionic if args.name == "hq" else tilde_h
    _print_poly(route(args.n), args.json)
    return 0


def _cmd_enumerate(args) -> int:
    from .walk import layered_blocks, layered_sweep

    if args.model == "dellac":
        from .dellac import DellacConfig as build, iter_dellac as walk, layers, stream_pieces
    elif args.model == "admissible":
        from .admissible import AdmissibleSequence as build, iter_admissible as walk, layers, stream_pieces
    else:
        from .motzkin import MotzkinPath, iter_motzkin as walk, layers, stream_pieces

        def build(n, heights):
            return MotzkinPath(heights)

    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    items = walk(args.n)  # checks n, before anything is walked
    # a blank line closes each Dellac grid in text mode
    end = "\n\n" if args.model == "dellac" and not args.json else "\n"
    prefix_piece, tail_piece, joined = stream_pieces(args.n, args.json, end)
    write = sys.stdout.write
    # each state's tails, checked and encoded once for this stream
    tails_of: dict = {}
    block: list[str] = []
    written = 0  # the objects in blocks already written
    for prefix, state, tails in layered_blocks(*layers(args.n)):
        summary, text = _checked(prefix_piece, prefix)
        pieces = tails_of.get(state)
        if pieces is None:
            pieces = tails_of[state] = [_checked(tail_piece, tail, len(prefix)) for tail in tails]
        if args.limit is not None:
            pieces = pieces[: args.limit - written - len(block)]
        for tail_summary, pair in pieces:
            if not joined(summary, tail_summary):
                # n was checked above, so an object its walk yields and its
                # rules reject is a fault of the walk; the lines before it
                # still go out
                write("".join(block))
                return _walk_fault(build, args.n, items, written + len(block))
            block.append(text.join(pair))  # the tail's before, the prefix, its after
            if len(block) == WRITE_BLOCK_LINES:
                write("".join(block))
                written += len(block)
                block.clear()
        if written + len(block) == args.limit:
            break
    write("".join(block))

    if args.limit is None:
        total = written + len(block)
    elif args.model == "motzkin":
        # the walk's own layers, swept over heights: the total visits no path
        swept = layered_sweep(*layers(args.n), lambda level, state, item, runs: runs)
        total = sum(swept.values())
    else:
        from .seidel import normalized_h

        total = normalized_h(args.n)  # configurations and sequences both number h(n)

    if args.json:
        print(_dump({"total": str(total)}))
    else:
        print(f"total {total}")
    return 0


def _checked(piece, *args):
    """A stream piece's (summary, text), or (None, None) when the walk made it
    unreadable; the object's constructor then names the fault."""
    try:
        return piece(*args)
    except (TypeError, ValueError):
        return None, None


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
    from .contfrac import NAMED_FRACTIONS, expand, spec_from_dict

    if args.order > SERIES_MAX_ORDER:
        raise ResourceLimitError(f"series --order capped at {SERIES_MAX_ORDER}, got {args.order}")
    if args.name == "custom":
        if not args.spec:
            raise ValueError("series custom requires --spec FILE")
        with open(args.spec, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.spec}: JSON nested too deeply") from None
        spec = spec_from_dict(data)
    else:
        if args.spec:
            raise ValueError("--spec applies only to 'series custom'")
        spec = NAMED_FRACTIONS[args.name]()
    _print_series(expand(spec, args.order), args.json)
    return 0


def _cmd_verify(args) -> int:
    from .verify import crosscheck

    started = time.monotonic()
    report = crosscheck(args.n_max, seed=args.seed)
    if args.json:
        print(_dump(report.json_dict()))
    else:
        print(report.table())
        elapsed = time.monotonic() - started
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 1 if report.failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own error line without the usage block, so that every
        # usage error is one line; subcommand parsers inherit this class
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genocchi",
        description="Median Genocchi numbers and their q-analogues, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print the first terms of a sequence")
    p.add_argument("name", choices=("h", "H", "genocchi1"))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("poly", help="print one q-polynomial")
    p.add_argument("name", choices=("hq", "tildehq", "barc"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("enumerate", help="stream combinatorial objects")
    p.add_argument("model", choices=("dellac", "admissible", "motzkin"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="run a brute-force oracle count")
    p.add_argument("model", choices=("dumont", "triangles"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("series", help="expand a continued fraction")
    p.add_argument("name", choices=("f1", "f2", "hn", "viennot", "custom"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--spec", default=None, help="JSON spec file for 'custom'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run the cross-check matrix")
    p.add_argument("--n-max", type=int, default=CROSSCHECK_MAX_N - 1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except BrokenPipeError:
        # keep the flush at exit quiet, and exit as SIGPIPE would have
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, OSError) as exc:  # includes malformed JSON spec files
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a fault of the program, not of its input
        return _internal_error(exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
