"""The handlers of the commands that print values: seq, poly, series and
count.  cli.py imports this module only when one of them runs, and each
handler imports its own route.

seq and series write each term or coefficient as soon as it is known, so a
command holds one piece's text, not its whole output.  Every payload here
holds decimal strings, ints and fixed keys, written without loading json.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .errors import ResourceLimitError

if TYPE_CHECKING:
    from .exactalg import PowerSeries

# fixed bounds, checked before any work: not far past 900 terms the values
# outgrow Python's 4300-digit limit on int-to-str conversion, and the cost of
# a q-fraction expansion climbs steeply with the order
SEQ_MAX_COUNT = 900
SERIES_MAX_ORDER = 64


# a decimal string as json.dumps writes it: digits and a minus sign need no
# escape
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


def _print_series(series: PowerSeries, as_json: bool) -> None:
    coeffs = series.coeffs
    if as_json:
        pieces = ('{"coeffs":' + _decimals(c.coeff_strings()) + "}" for c in coeffs)
        _write_joined(f'{{"order":{series.order},"coeffs":[', pieces, ",", "]}\n")
    elif all(len(c.coeffs) < 2 for c in coeffs):
        _write_joined("", (c.coeff_strings()[0] for c in coeffs), " ", "\n")
    else:
        _write_joined("", (f"s^{n}: {c.render()}" for n, c in enumerate(coeffs)), "\n", "\n")


def cmd_seq(args) -> int:
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


def cmd_poly(args) -> int:
    if args.name == "barc":
        from .hanzeng import hanzeng_barc as route
    else:
        from .motzkin import h_poly_fermionic, tilde_h

        route = h_poly_fermionic if args.name == "hq" else tilde_h
    p = route(args.n)
    print('{"coeffs":' + _decimals(p.coeff_strings()) + "}" if args.json else p.render())
    return 0


def cmd_count(args) -> int:
    from .oracles import count_dumont, count_triangle_pairs

    fn = {"dumont": count_dumont, "triangles": count_triangle_pairs}[args.model]
    print(fn(args.n))
    return 0


def cmd_series(args) -> int:
    from .contfrac import NAMED_FRACTIONS, expand

    if args.order > SERIES_MAX_ORDER:
        raise ResourceLimitError(f"series --order capped at {SERIES_MAX_ORDER}, got {args.order}")
    # the interpreter's limit on converting an int from or to a string (0: none,
    # as before Python 3.10.7): a spec literal past it is refused before int()
    # reads it, and a coefficient past it before the first line is written
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if args.name == "custom":
        if not args.spec:
            raise ValueError("series custom requires --spec FILE")
        from .specfile import read_spec

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
