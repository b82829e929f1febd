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
first fault.  AdmissibleSequence checks the subset count and its subsets as
one piece; the enumerate stream's rules for joining pieces (the containment
across them, n - 1 subsets in all) and writing them live in
stream_admissible.py.

The walk shares its last SHARED_LEVELS = 3 subsets, I_3, I_2 and I_1: each
pool met three subsets from the end lists its heads, the choices of I_3,
and each pool a head leads to lists its rests, one (I_2, I_1) per way to
finish it.  At the cap n = 8 that is 490 heads over 70 pools and 762
rests over 56 next pools, 6,880 tails in all: the walk's tracemalloc peak
is about 0.06 MB, and the stream's about 0.71 MB, most of it a text for
each rest of each next pool.
"""

from __future__ import annotations

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


# the pools multiply fast with depth: sharing a fourth subset lists more
# runs than it saves prefix checks (see the module's bound)
SHARED_LEVELS = 3


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
    return (run[::-1] for run in layered_walk(*layers(n), SHARED_LEVELS))


class GammaGraph(NamedTuple):
    """Grid digraph on vertices (l, j), 1 <= l <= n-1, 1 <= j <= n, with an
    arrow (l, j) -> (l+1, j) whenever l+1 differs from j."""

    n: int

    def arrow_target(self, v: tuple[int, int]) -> tuple[int, int] | None:
        """The unique outgoing arrow's head, or None when out-degree is 0."""
        l, j = v
        if l + 1 <= self.n - 1 and l + 1 != j:
            return (l + 1, j)
        return None

    def heads(self, l: int, mask: int) -> int:
        """The mask of column l + 1 that the arrows leaving the vertices
        (l, j), j in mask, point to, read from arrow_target: a set of
        columns is closed exactly when each column holds the heads of the
        one before it, and the last column's are 0."""
        return _mask(t[1] for j in _elems(mask) if (t := self.arrow_target((l, j))) is not None)


def count_closed_column_graded(n: int) -> int:
    """Count closed subsets with exactly l vertices in column l, for every l.

    A layered sweep over columns l = 1..n-1 whose state is the vertex mask of
    column l (column 0 is empty), carrying the number of closed prefixes that
    end in it.  A column extends a state when it holds every arrow head
    leaving the state's column (GammaGraph.heads): the extensions are those
    heads plus each choice of further vertices, listed without scanning the
    other l-subsets.  This runs the constraint in the
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
        required = graph.heads(level, prev)
        others = [b for b in bits if not b & required]
        for extra in combinations(others, level + 1 - required.bit_count()):
            mask = required | sum(extra)
            yield mask, mask

    return sum(layered_sweep(n - 1, 0, choices, lambda level, prev, mask, count: count).values())
