"""The enumerate stream: one line for each object of a model's walk.

The walk comes in the blocks walk.layered_blocks shares at the model's own
SHARED_LEVELS.  The model's stream_pieces check and encode each prefix
once, and each tail as its first level joined to the rest of the tail
(split_tail_piece): each distinct first level and each distinct rest is
checked and encoded once per stream, and a tail's text is the pair of
their shared texts.  How many of a state's tails join a prefix is decided
once per pair of prefix summary and state, by one run of the join rule
per distinct tail summary of the state; the lines are built a prefix at a
time and written WRITE_BLOCK_LINES at a time.  Only the enumerate command
loads this module.
"""

from itertools import islice, repeat
from operator import is_

from .walk import layered_blocks

# lines are written in blocks of this many (about 18 KB of Dellac JSON at
# n = 7): one system call per block, not per line, where stdout is
# unbuffered; larger blocks were no faster and hold more memory
WRITE_BLOCK_LINES = 256


def write_lines(write, model, n: int, as_json: bool, stop: int) -> tuple[int, bool]:
    """Write through write the lines of the first stop objects of the walk
    of model (dellac, admissible or motzkin) for n, each closed by the
    model's line end.
    Returns how many lines went out, and whether the stream stopped at an
    object that fails its checks: the walk's object after those lines."""
    prefix_piece, tail_piece, joined, prefix_first = model.stream_pieces(n, as_json)
    # per state: its tails' distinct summaries and texts, checked and encoded once
    tails_of: dict = {}
    # per (prefix summary, state): how many of the state's tails join, from the first
    joins_of: dict = {}
    block: list[str] = []
    written = 0  # the lines in blocks already written
    for prefix, state, tails in layered_blocks(*model.layers(n), model.SHARED_LEVELS):
        summary, text = _checked(prefix_piece, prefix)
        pieces = tails_of.get(state)
        if pieces is None:
            pieces = tails_of[state] = _tail_pieces(tail_piece, tails, len(prefix))
            tails.clear()  # the pieces replace the walk's list, which holds as much again
        kinds, firsts, rests = pieces
        joins = joins_of.get((summary, state))
        if joins is None:
            joins = joins_of[summary, state] = _leading(joined, summary, kinds, len(firsts))
        room = stop - written - len(block)
        if joins:  # a failed prefix joins nothing, and has no text
            # each line: the prefix's and the rest's texts, the first level's between them
            sides = zip(repeat(text), rests) if prefix_first else zip(rests, repeat(text))
            block += islice(map(str.join, firsts, sides), min(joins, room))
        if len(block) >= WRITE_BLOCK_LINES:
            full = len(block) - len(block) % WRITE_BLOCK_LINES
            for start in range(0, full, WRITE_BLOCK_LINES):
                write("".join(block[start : start + WRITE_BLOCK_LINES]))
            written += full
            del block[:full]
        if joins < min(len(firsts), room):
            write("".join(block))  # the lines before the fault still go out
            return written + len(block), True
        if written + len(block) == stop:
            break
    write("".join(block))
    return written + len(block), False


def _checked(piece, *args):
    """A stream piece's (summary, text), or (None, None) when its check
    raises; the object's constructor then names the fault."""
    try:
        return piece(*args)
    except (TypeError, ValueError):
        return None, None


def _tail_pieces(tail_piece, tails, level: int) -> tuple[dict, list, list]:
    """A state's tails, each checked once: each distinct summary with the
    index of its first tail, in that order, then the texts of the tails'
    first levels and of their rests, as two lists rather than a pair per
    tail (a failed tail has no text)."""
    kinds: dict = {}
    firsts, rests = [], []
    for index, tail in enumerate(tails):
        try:
            summary, (first, rest) = tail_piece(tail, level)
        except (TypeError, ValueError):
            summary = first = rest = None
        kinds.setdefault(summary, index)
        firsts.append(first)
        rests.append(rest)
    return kinds, firsts, rests


def _leading(joined, summary, kinds: dict, count: int) -> int:
    """How many of a state's count tails, from the first, join a prefix
    with this summary: the first tail of the first distinct tail summary
    that does not join stops them.  The tails' own checks ran once, so the
    answer holds for every prefix with this summary that ends in that
    state."""
    for tail_summary, index in kinds.items():
        if not joined(summary, tail_summary):
            return index
    return count


def split_tail_piece(first, rest, across, typed):
    """A model's tail_piece(tail, level): a tail's summary and its text, as
    the pair (text of the first level, text of the rest), built from the
    model's rules for a run that starts at the tail's first level
    (first(run, level)) and for one that starts a level later and ends
    the object (rest(run, level)), each giving (summary, text) and raising
    where its check does.  across(first summary, rest summary) gives the
    tail's summary, or None when the boundary rule between the two fails.

    Each distinct first level and rest is checked and encoded once, in a
    memo keyed by the run alone: every tail of one stream starts at the
    same level, the first tail's, and a tail from another level is not
    split.  When the composed check fails for any reason, an unhashable
    field included, the tail is checked as one first piece with an empty
    rest, so that it raises the constructor's own exception and message."""
    firsts: dict = {}  # the first levels' pieces, by run
    rests: dict = {}  # the rests' pieces, by run
    memo_level = None  # the level of every tail the memos hold: the first one's
    item = lead = None  # the last first level met, and its piece

    def tail_piece(tail, level: int):
        nonlocal memo_level, item, lead
        if memo_level is None:
            memo_level = level
        if level == memo_level and type(tail) is tuple and tail:
            try:
                if tail[0] is not item:  # the tails of a state share each first level
                    lead, item = _memo(firsts, first, typed, tail[:1], level), tail[0]
                after = _memo(rests, rest, typed, tail[1:], level)
            except TypeError:  # an unhashable field
                after = None
            if lead and after:
                summary = across(lead[1], after[1])
                if summary is not None:
                    return summary, (lead[2], after[2])
        whole, empty = first(tail, level), rest((), level)
        return across(whole[0], empty[0]), (whole[1], empty[1])

    return tail_piece


def _memo(memo: dict, rule, typed, run: tuple, level: int):
    """rule(run, level), run once for each distinct run: the piece's
    (checked run, summary, text), or None when its check raises.  A run
    equal to a checked one stands for it when its fields are the same
    objects or pass typed, the model's exact type check (True equals 1,
    and 2.0 equals 2, but neither is an int field)."""
    seen = memo.get(run, memo)
    if seen is memo:
        try:
            seen = run, *rule(run, level)
        except (TypeError, ValueError):
            seen = None
        memo[run] = seen
    elif seen and not (all(map(is_, seen[0], run)) or typed(run)):
        return None
    return seen
