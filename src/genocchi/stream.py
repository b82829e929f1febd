"""The enumerate stream: one line for each object of a model's walk.

The walk comes in the blocks walk.layered_blocks shares at the model's own
SHARED_LEVELS.  The model's stream_pieces check and encode each prefix
once and each state's tails once; how many of a state's tails join a
prefix is decided once per pair of prefix summary and state; and the lines
are built a prefix at a time with str.join and written WRITE_BLOCK_LINES at
a time.  Only the enumerate command loads this module.
"""

from itertools import islice

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
    prefix_piece, tail_piece, joined = model.stream_pieces(n, as_json)
    # per state: its tails' summaries and texts, checked and encoded once
    tails_of: dict = {}
    distinct: dict = {}  # one object for each distinct tail summary
    # per (prefix summary, state): how many of the state's tails join, from the first
    joins_of: dict = {}
    block: list[str] = []
    written = 0  # the lines in blocks already written
    for prefix, state, tails in layered_blocks(*model.layers(n), model.SHARED_LEVELS):
        summary, text = _checked(prefix_piece, prefix)
        pieces = tails_of.get(state)
        if pieces is None:
            pieces = tails_of[state] = _tail_pieces(tail_piece, tails, len(prefix), distinct)
            tails.clear()  # the pieces replace the walk's list, which holds as much again
        summaries, befores, afters = pieces
        joins = joins_of.get((summary, state))
        if joins is None:
            joins = joins_of[summary, state] = _leading(joined, summary, summaries)
        room = stop - written - len(block)
        if joins:  # a failed prefix joins nothing, and has no text
            # each line: a tail's before, the prefix, the tail's after
            block += map(text.join, islice(zip(befores, afters), min(joins, room)))
        if len(block) >= WRITE_BLOCK_LINES:
            full = len(block) - len(block) % WRITE_BLOCK_LINES
            for start in range(0, full, WRITE_BLOCK_LINES):
                write("".join(block[start : start + WRITE_BLOCK_LINES]))
            written += full
            del block[:full]
        if joins < min(len(summaries), room):
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


def _tail_pieces(tail_piece, tails, level: int, distinct: dict) -> tuple[list, list, list]:
    """A state's tails, each checked and encoded once: their summaries, one
    object for each distinct summary, then the texts that go before and
    after a prefix's text in their lines, as two lists rather than a pair
    per tail (a failed tail has no text)."""
    summaries, befores, afters = [], [], []
    for tail in tails:
        summary, text = _checked(tail_piece, tail, level)
        summaries.append(distinct.setdefault(summary, summary))
        before, after = text or (None, None)
        befores.append(before)
        afters.append(after)
    return summaries, befores, afters


def _leading(joined, summary, tail_summaries) -> int:
    """How many of a state's tails, from the first, join a prefix with this
    summary: the tails' own checks ran once, so the answer holds for every
    prefix with this summary that ends in that state."""
    for count, tail_summary in enumerate(tail_summaries):
        if not joined(summary, tail_summary):
            return count
    return len(tail_summaries)
