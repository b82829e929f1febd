"""Admissible subset sequences and closed subsets of the grid digraph.

An admissible sequence is (I_1, ..., I_{n-1}) with I_l an l-element subset
of {1..n} and I_l contained in I_{l+1} together with l+1.  Equivalently,
mapping I to the vertex set {(l, j): j in I_l} of the digraph whose arrows
run (l, j) -> (l+1, j) except when l+1 = j, admissibility becomes closure
under arrows.  Both counts equal h(n).  iter_admissible walks the sequences
and yields them only; count_closed_column_graded counts the closed subsets
by a layered sweep over column masks, visiting none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class AdmissibleSequence:
    """Subsets I_1..I_{n-1} of {1..n}, each stored as a bitmask (bit j = element j)."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.masks) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} subsets, got {len(self.masks)}")
        full = _mask(range(1, self.n + 1))
        for l, m in enumerate(self.masks, start=1):
            if m & ~full:
                raise ValueError(f"I_{l} contains elements outside 1..{self.n}")
            if bin(m).count("1") != l:
                raise ValueError(f"I_{l} must have exactly {l} elements")
        for l in range(1, self.n - 1):
            allowed = self.masks[l] | (1 << (l + 1))
            if self.masks[l - 1] & ~allowed:
                raise ValueError(f"I_{l} exceeds I_{l + 1} plus {{{l + 1}}}")

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_elems(m) for m in self.masks)

    def json_dict(self) -> dict:
        return {"n": self.n, "sets": [list(s) for s in self.sets()]}

    def render(self) -> str:
        return " | ".join(",".join(str(e) for e in s) for s in self.sets()) or "()"


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


@dataclass(frozen=True)
class GammaGraph:
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
    leaving the state's column, derived from GammaGraph.arrow_target.  This
    runs the constraint in the opposite direction from iter_admissible and
    visits no object, so the two counts check each other.
    """
    if n < 1:
        raise ValueError("n must be positive")
    limits.check_cap("admissible", n)
    graph = GammaGraph(n)
    # the l-subsets of 1..n, listed once per column l
    candidates = [list(map(_mask, combinations(range(1, n + 1), l))) for l in range(1, n)]

    def choices(level: int, prev: int):
        required = _mask(
            t[1] for j in _elems(prev) if (t := graph.arrow_target((level, j))) is not None
        )
        for mask in candidates[level]:
            if mask & required == required:
                yield mask, mask

    return sum(layered_sweep(n - 1, 0, choices, lambda level, prev, mask, count: count).values())
