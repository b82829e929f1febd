"""Admissible subset sequences and closed subsets of the grid digraph.

An admissible sequence is (I_1, ..., I_{n-1}) with I_l an l-element subset
of {1..n} and I_l contained in I_{l+1} together with l+1.  Equivalently,
mapping I to the vertex set {(l, j): j in I_l} of the digraph whose arrows
run (l, j) -> (l+1, j) except when l+1 = j, admissibility becomes closure
under arrows.  Both counts equal h(n).  iter_admissible walks the sequences
and yields them only; count_closed_column_graded counts the closed subsets
by a layered sweep over column masks, visiting none of them.

One rule checks a piece of a sequence, a run of consecutive subsets: every
field an int, then each I_l inside 1..n with l elements, then I_{l-1}
inside I_l plus l within the run, raising the constructor's message at the
first fault.  Two pieces join when they hold n - 1 subsets in all and the
containment holds across them.  AdmissibleSequence checks the subset count
and its subsets as one piece; the enumerate stream checks each prefix and
each shared tail of the walk once, joins them per sequence, and formats
each subset of a shared piece once per stream.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from . import limits
from .walk import layered_sweep, layered_walk


def _mask(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _elems(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask >> j:
        if (mask >> j) & 1:
            out.append(j)
        j += 1
    return tuple(out)


class _AdmissibleFields(NamedTuple):
    n: int
    masks: tuple[int, ...]


class AdmissibleSequence(_AdmissibleFields):
    """Subsets I_1..I_{n-1} of {1..n}, each stored as a bitmask (bit j = element j)."""

    __slots__ = ()

    def __new__(cls, n: int, masks: tuple[int, ...]):
        _piece(n, masks, 1, whole=True)
        return super().__new__(cls, n, masks)


def _piece(n: int, masks, start: int, whole: bool = False) -> tuple[int, int, int]:
    """The check of subsets I_start, I_start+1, ... of a sequence for n,
    whole when the run is one: a tuple of ints, the subset count of a
    whole one, then each I_l inside 1..n with l elements, then I_{l-1}
    inside I_l plus l within the run.  Raises at the first fault; returns
    the summary (subset count, first mask, last mask), whose first mask
    contains everything and last nothing when there is no subset, so that
    it joins any piece."""
    if type(n) is not int or type(masks) is not tuple or set(map(type, masks)) - {int}:
        raise TypeError("n and masks must be integers")
    if whole and len(masks) != n - 1:
        raise ValueError(f"expected {n - 1} subsets, got {len(masks)}")
    outside = ~((1 << (n + 1)) - 2)
    for l, m in enumerate(masks, start):
        if m & outside:
            raise ValueError(f"I_{l} contains elements outside 1..{n}")
        if m.bit_count() != l:
            raise ValueError(f"I_{l} must have exactly {l} elements")
    for l, (lower, upper) in enumerate(zip(masks, masks[1:]), start):
        if lower & ~(upper | 1 << (l + 1)):
            raise ValueError(f"I_{l} exceeds I_{l + 1} plus {{{l + 1}}}")
    return (len(masks), masks[0], masks[-1]) if masks else (0, -1, 0)


def _joined(n: int, upper, lower) -> bool:
    """Whether two checked pieces make a sequence, upper (I_{k+1}, ...)
    first, as the walk meets it, and lower (I_1..I_k) second: both passed
    their check, n - 1 subsets in all, and I_k inside I_{k+1} plus k + 1."""
    return (
        upper is not None
        and lower is not None
        and upper[0] + lower[0] == n - 1
        and not lower[2] & ~(upper[1] | 1 << (lower[0] + 1))
    )


def _encode(masks, start: int, as_json: bool) -> str:
    """The text of subsets I_start, I_start+1, ...: JSON lists such as
    [1,3], or "1,3" joined by " | ".  A piece that starts after I_1 opens
    with the separator, so that pieces concatenate."""
    if as_json:
        sep, parts = ",", [f"[{','.join(map(str, _elems(m)))}]" for m in masks]
    else:
        sep, parts = " | ", [",".join(map(str, _elems(m))) for m in masks]
    text = sep.join(parts)
    return sep + text if text and start > 1 else text


def stream_pieces(n: int, as_json: bool, end: str):
    """The rules above for the stream, as dellac.stream_pieces gives them.
    The walk meets I_{n-1} first, so a prefix, reversed, is the upper piece
    of a sequence and a tail, reversed, the lower one."""
    head, foot = (f'{{"n":{n},"sets":[', "]}") if as_json else ("", "")

    def prefix_piece(prefix):
        upper, start = prefix[::-1], n - len(prefix)
        return _piece(n, upper, start), _encode(upper, start, as_json)

    def tail_piece(tail, level):
        lower = tail[::-1]
        summary = _piece(n, lower, 1)
        # only n = 1 has an empty tail, and its prefix is empty too
        body = _encode(lower, 1, as_json) if lower or as_json else "()"
        return summary, (head + body, foot + end)

    return prefix_piece, tail_piece, partial(_joined, n)


def layers(n: int):
    """The walk behind iter_admissible, unchecked: (depth, root, choices)
    for I_{n-1}..I_1 from the pool {1..n}; the candidates for I_l are the
    l-subsets of the pool, in lexicographic order, and I_l plus l+1 is the
    next pool."""

    def choices(level: int, pool: int):
        l = n - 1 - level
        for mask in map(sum, combinations([1 << j for j in range(1, n + 1) if pool >> j & 1], l)):
            yield mask, mask | 1 << l

    return n - 1, _mask(range(1, n + 1)), choices


def iter_admissible(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every admissible sequence once as its mask tuple I_1..I_{n-1}.

    A layered walk down from I_{n-1}, reversed, whose state is the pool:
    the candidates for I_l are exactly the l-subsets of I_{l+1} plus l+1,
    as bitmasks.  For n = 1 the single empty sequence is yielded.  The
    arguments are checked here, before the first item is asked for.
    """
    if n < 1:
        raise ValueError("n must be positive")
    limits.check_cap("admissible", n)
    return (run[::-1] for run in layered_walk(*layers(n)))


class GammaGraph(NamedTuple):
    """Grid digraph on vertices (l, j), 1 <= l <= n-1, 1 <= j <= n, with an
    arrow (l, j) -> (l+1, j) whenever l+1 differs from j."""

    n: int

    def has_vertex(self, v: tuple[int, int]) -> bool:
        l, j = v
        return 1 <= l <= self.n - 1 and 1 <= j <= self.n

    def arrow_target(self, v: tuple[int, int]) -> tuple[int, int] | None:
        """The unique outgoing arrow's head, or None when out-degree is 0."""
        l, j = v
        if l + 1 <= self.n - 1 and l + 1 != j:
            return (l + 1, j)
        return None


def is_closed_in_gamma(subset: Iterable[tuple[int, int]], graph: GammaGraph) -> bool:
    """True iff every arrow starting in the subset also ends in it."""
    vs = set(subset)
    for v in vs:
        if not graph.has_vertex(v):
            raise ValueError(f"vertex {v} outside the graph for n={graph.n}")
    return all(t in vs for v in vs if (t := graph.arrow_target(v)) is not None)


def count_closed_column_graded(n: int) -> int:
    """Count closed subsets with exactly l vertices in column l, for every l.

    A layered sweep over columns l = 1..n-1 whose state is the vertex mask of
    column l (column 0 is empty), carrying the number of closed prefixes that
    end in it.  A column extends a state when it holds every arrow head
    leaving the state's column, derived from GammaGraph.arrow_target: the
    extensions are those heads plus each choice of further vertices, listed
    without scanning the other l-subsets.  This runs the constraint in the
    opposite direction from iter_admissible and visits no object, so the two
    counts check each other.
    """
    if n < 1:
        raise ValueError("n must be positive")
    limits.check_cap("admissible", n)
    graph = GammaGraph(n)
    bits = [1 << j for j in range(1, n + 1)]

    def choices(level: int, prev: int):
        # column l = level + 1 holds the required heads plus any others
        required = _mask(
            t[1] for j in _elems(prev) if (t := graph.arrow_target((level, j))) is not None
        )
        others = [b for b in bits if not b & required]
        for extra in combinations(others, level + 1 - required.bit_count()):
            mask = required | sum(extra)
            yield mask, mask

    return sum(layered_sweep(n - 1, 0, choices, lambda level, prev, mask, count: count).values())
