"""The enumerate stream's rules for admissible sequences.

A piece is a run of consecutive subsets, checked by admissible._piece,
whose summary is its subset count and its first and last masks.  Two
pieces join when the containment holds across them, and they make a
sequence when they hold n - 1 subsets in all.  A piece's text is its
subsets, each formatted once per stream.  Only enumerate admissible loads
this module.
"""

from __future__ import annotations

from functools import cache, partial

from . import admissible


def _join(upper, lower) -> tuple[int, int, int] | None:
    """The summary of two checked pieces as one, upper (I_{k+1}, ...) first,
    as the walk meets it, and lower (I_1..I_k) second: None when either
    failed its check or I_k is not inside I_{k+1} plus k + 1."""
    if upper is None or lower is None or lower[2] & ~(upper[1] | 1 << (lower[0] + 1)):
        return None
    return lower[0] + upper[0], lower[1] if lower[0] else upper[1], upper[2] if upper[0] else lower[2]


def _joined(n: int, upper, lower) -> bool:
    """Whether two checked pieces, upper then lower, make a sequence: they
    join, into n - 1 subsets."""
    joint = _join(upper, lower)
    return joint is not None and joint[0] == n - 1


def _subset_text(mask: int, as_json: bool) -> str:
    """One subset's text: a JSON list such as [1,3], or 1,3."""
    text = ",".join(map(str, admissible._elems(mask)))
    return f"[{text}]" if as_json else text


def _encode(texts, start: int, as_json: bool) -> str:
    """The text of subsets I_start, I_start+1, ... from the text of each:
    joined by "," in JSON, by " | " otherwise.  A piece that starts after
    I_1 opens with the separator, so that pieces concatenate."""
    sep = "," if as_json else " | "
    text = sep.join(texts)
    return sep + text if text and start > 1 else text


def stream_pieces(n: int, as_json: bool):
    """The rules above for the stream, as stream_dellac.stream_pieces gives
    them.  The walk meets I_{n-1} first, so a prefix, reversed, is the upper
    piece of a sequence and a tail, reversed, the lower one: a line is the
    rest of the tail (I_1..I_{k-1}), then its head (I_k), then the prefix,
    and prefix_first is False.  Each distinct subset is formatted once per
    stream."""
    piece = admissible._piece
    head, foot = (f'{{"n":{n},"sets":[', "]}\n") if as_json else ("", "\n")
    subset = cache(partial(_subset_text, as_json=as_json))

    def prefix_piece(prefix):
        upper, start = prefix[::-1], n - len(prefix)
        return piece(n, upper, start), _encode(map(subset, upper), start, as_json) + foot

    def first(run, level):
        # the run, reversed, ends at I_k, k = n - 1 - level
        lower, start = run[::-1], n - level - len(run)
        summary = piece(n, lower, start)  # before any subset is formatted
        # only n = 1 has an empty tail, and its prefix is empty too
        return summary, _encode(map(subset, lower), start, as_json) if lower or as_json else "()"

    def rest(run, level):
        lower = run[::-1]
        return piece(n, lower, 1), head + _encode(map(subset, lower), 1, as_json)

    return prefix_piece, first, rest, _join, partial(_joined, n), False
