"""The enumerate stream's rules for Dellac configurations.

A piece is a run of consecutive columns, checked by dellac._piece, whose
summary is its column count and its used-row mask.  Two pieces join when
their masks are disjoint, and they make a configuration when they hold n
columns in all.  A piece's text is its row pairs, as JSON or as one
"column: low high" line each.  Only enumerate dellac loads this module.
"""

from __future__ import annotations

from functools import partial

from . import dellac


def _join(first, second) -> tuple[int, int] | None:
    """The summary of two checked pieces, first then second, as one piece:
    None when either failed its check or a row is used in both."""
    if first is None or second is None or first[1] & second[1]:
        return None
    return first[0] + second[0], first[1] | second[1]


def _joined(n: int, first, second) -> bool:
    """Whether two checked pieces, first then second, make a configuration:
    they join, into n columns."""
    joint = _join(first, second)
    return joint is not None and joint[0] == n


def _encode(columns, start: int, as_json: bool) -> str:
    """The text of columns start, start + 1, ...: JSON row pairs, or one
    "column: low high" line each.  A piece that starts after column 1 opens
    with the separator, so that pieces concatenate."""
    if as_json:
        sep, parts = ",", [f"[{lo},{hi}]" for lo, hi in columns]
    else:
        sep, parts = "\n", [f"{col}: {lo} {hi}" for col, (lo, hi) in enumerate(columns, start)]
    text = sep.join(parts)
    return sep + text if text and start > 1 else text


def stream_pieces(n: int, as_json: bool):
    """The rules above, for a stream of walk blocks: (prefix_piece, first,
    rest, join, joined, prefix_first).  prefix_piece(prefix) gives the
    summary of the columns a prefix holds and the text that opens their
    line; first(head, level) gives the summary and the text of a head, the
    first column of a tail from that level, and rest(run, level) those of
    the columns after it, which close the line (a blank line closes each
    grid in text).  All three raise where the piece's check
    does.  A line is the prefix's text, then the head's, then the rest's:
    prefix_first is True.  join(first summary, second summary) gives the
    summary of two adjacent pieces as one, or None, and joined(prefix
    summary, tail summary) accepts exactly the objects the constructor
    accepts."""
    piece = dellac._piece
    head, foot = (f'{{"n":{n},"columns":[', "]}\n") if as_json else ("", "\n\n")

    def prefix_piece(prefix):
        return piece(n, prefix, 1), head + _encode(prefix, 1, as_json)

    def first(run, level):
        return piece(n, run, level + 1), _encode(run, level + 1, as_json)

    def rest(run, level):
        return piece(n, run, level + 2), _encode(run, level + 2, as_json) + foot

    return prefix_piece, first, rest, _join, partial(_joined, n), True
