"""The enumerate stream's rules for Motzkin paths.

A piece is a run of consecutive heights, checked by motzkin._piece, whose
summary is its first and last height, or () for no height.  Two pieces
join when a step of at most 1 leads across, and they make a path when it
starts and ends at height 0.  A piece's text is its heights.  Only
enumerate motzkin loads this module.
"""

from __future__ import annotations

from . import motzkin


def _join(first, second) -> tuple[int, int] | tuple[()] | None:
    """The summary of two checked pieces, first then second, as one piece:
    None when either failed its check or a step of more than 1 leads
    across."""
    if first is None or second is None:
        return None
    if not first or not second:  # no height on one side
        return first or second
    return (first[0], second[1]) if -1 <= second[0] - first[1] <= 1 else None


def _joined(first, second) -> bool:
    """Whether two checked pieces, first then second, make a path: they
    join, into a piece with a height that starts and ends at 0."""
    joint = _join(first, second)
    return bool(joint) and joint[0] == 0 == joint[1]


def _encode(heights, start: int, as_json: bool) -> str:
    """The text of heights f_start, f_start+1, ...: numbers joined by "," or
    " ".  A piece that starts after f_0 opens with the separator, so that
    pieces concatenate."""
    sep = "," if as_json else " "
    text = sep.join(map(str, heights))
    return sep + text if text and start > 0 else text


def stream_pieces(n: int, as_json: bool):
    """The rules above for the stream, as stream_dellac.stream_pieces gives
    them.  A prefix piece starts with f_0 = 0, which the walk does not
    yield."""
    piece = motzkin._piece
    length = motzkin.layers(n)[0]  # of every path the walk yields
    head, foot = (f'{{"n":{length},"heights":[', "]}\n") if as_json else ("", "\n")

    def prefix_piece(prefix):
        heights = (0,) + prefix
        return piece(heights), head + _encode(heights, 0, as_json)

    def first(run, level):
        return piece(run), _encode(run, level + 1, as_json)

    def rest(run, level):
        return piece(run), _encode(run, level + 2, as_json) + foot

    return prefix_piece, first, rest, _join, _joined, True
