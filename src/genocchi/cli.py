"""Command-line interface.

Subcommands: seq (integer sequences), poly (q-polynomials), enumerate
(stream combinatorial objects), count (brute-force oracles), series
(continued-fraction expansions), verify (the cross-check matrix).

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
from itertools import count
from typing import Sequence

from . import admissible, dellac, motzkin
from .contfrac import NAMED_FRACTIONS, expand, spec_from_dict
from .dellac import DellacConfig, iter_dellac
from .admissible import AdmissibleSequence, iter_admissible
from .errors import ResourceLimitError
from .exactalg import IntPoly, PowerSeries
from .hanzeng import hanzeng_barc
from .motzkin import MotzkinPath, h_poly_fermionic, iter_motzkin, tilde_h
from .oracles import count_dumont, count_triangle_pairs
from .seidel import genocchi_first_sequence, h_sequence, median_sequence
from .verify import CROSSCHECK_MAX_N, crosscheck
from .walk import layered_sweep

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4
BROKEN_PIPE = 141

# fixed bounds, checked before any work: not far past 900 terms the values
# outgrow Python's 4300-digit limit on int-to-str conversion, and the cost of
# a q-fraction expansion climbs steeply with the order
SEQ_MAX_COUNT = 900
SERIES_MAX_ORDER = 64


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


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
    which = {"hq": h_poly_fermionic, "tildehq": tilde_h, "barc": hanzeng_barc}
    _print_poly(which[args.name](args.n), args.json)
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    walk, layers, build = {
        "dellac": (iter_dellac, dellac.layers, DellacConfig),
        "admissible": (iter_admissible, admissible.layers, AdmissibleSequence),
        "motzkin": (iter_motzkin, motzkin.layers, lambda n, heights: MotzkinPath(heights)),
    }[args.model]
    # range, unlike islice, takes a limit of any size
    limit = count() if args.limit is None else range(args.limit)
    for _, item in zip(limit, walk(args.n)):
        obj = build(args.n, item)
        if args.json:
            print(_dump(obj.json_dict()))
        else:
            print(obj.render())
            if args.model == "dellac":
                print()
    # the walk's own layers, swept: the total visits no item
    swept = layered_sweep(*layers(args.n), lambda level, state, item, runs: runs)
    total = sum(swept.values())

    if args.json:
        print(_dump({"total": str(total)}))
    else:
        print(f"total {total}")
    return 0


def _cmd_count(args) -> int:
    fn = {"dumont": count_dumont, "triangles": count_triangle_pairs}[args.model]
    print(fn(args.n))
    return 0


def _cmd_series(args) -> int:
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
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
