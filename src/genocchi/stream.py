"""The enumerate stream: one line for each object of a model's walk.

The walk comes in the blocks walk.layered_blocks shares at the model's own
SHARED_LEVELS, each state's tails grouped by their first level.  The
model's stream rules check and encode each prefix once, each head (a
tail's first level) once per state and each shared list of rests once per
next state; a head's summary is joined to each distinct summary of its
rests once per state.  A state keeps one group per head: the head's text
and its next state's own list of rest texts.  How many of a state's tails
join a prefix is decided once per pair of prefix summary and state, by one
run of the join rule per distinct tail summary of the state.  A prefix's
block of lines is one join per head, of the head's rest texts with the
prefix's and the head's texts as the separator, and it is written with one
write as soon as the walk hands the prefix over.

Each model's stream rules (how two checked pieces join, when they make a
whole object, and how a piece is written) live in its own module beside
this one, stream_dellac.py, stream_admissible.py or stream_motzkin.py, so
that a stream compiles only its own model's rules.  A piece's check is the
model's own rule, _piece, which its constructor runs over the whole
object.  Only the enumerate command loads these modules.
"""

from importlib import import_module

from .walk import layered_blocks


def write_lines(write, model, n: int, as_json: bool, stop: int) -> tuple[int, bool]:
    """Write through write the lines of the first stop objects of the walk
    of model (dellac, admissible or motzkin) for n, each closed by the
    model's line end, by the rules of its module stream_<model>.py.
    Returns how many lines went out, and whether the stream stopped at an
    object that fails its checks: the walk's object after those lines."""
    name = model.__name__.rpartition(".")[2]  # dellac, admissible or motzkin
    rules = import_module(f".stream_{name}", __package__)
    prefix_piece, first, rest, join, joined, prefix_first = rules.stream_pieces(n, as_json)
    # per next state: its rests' distinct summaries and texts, checked and encoded once
    rests_of: dict = {}
    # per state: its tails' distinct summaries, one (head text, rest texts) group per head, the tail count
    tails_of: dict = {}
    # per (prefix summary, state): how many of the state's tails join, from the first
    joins_of: dict = {}
    written = 0
    for prefix, state, tails in layered_blocks(*model.layers(n), model.SHARED_LEVELS):
        summary, text = _checked(prefix_piece, prefix)
        pieces = tails_of.get(state)
        if pieces is None:
            pieces = tails_of[state] = _tail_pieces(first, rest, join, tails, len(prefix), rests_of)
        kinds, groups, count = pieces
        joins = joins_of.get((summary, state))
        if joins is None:
            joins = joins_of[summary, state] = _leading(joined, summary, kinds, count)
        take = min(joins, stop - written)
        if take:  # a failed prefix joins nothing, and has no text
            write(_block(text, groups, take, prefix_first))
            written += take
        if joins < count and written < stop:  # the lines before the fault went out
            return written, True
        if written == stop:
            break
    return written, False


def _checked(piece, *args):
    """A stream piece's (summary, text), or (None, None) when its check
    raises; the object's constructor then names the fault."""
    try:
        return piece(*args)
    except (TypeError, ValueError):
        return None, None


def _pieces(rule, runs: list, level: int) -> tuple[dict, list]:
    """The runs, each checked and encoded once by rule: each distinct
    summary with the index of its first run, in that order, and the runs'
    texts (a failed run has none)."""
    kinds: dict = {}
    texts = []
    for index, run in enumerate(runs):
        summary, text = _checked(rule, run, level)
        kinds.setdefault(summary, index)
        texts.append(text)
    return kinds, texts


def _tail_pieces(first, rest, join, tails, level: int, rests_of: dict) -> tuple[dict, list, int]:
    """A state's tails: each distinct summary with the index of its first
    tail, in that order, then one (head text, rest texts) group per head
    that has rests, the rest texts being its next state's own list in
    rests_of, and the tail count.  Each head is checked here, once per
    state, and joined to each distinct summary of its rests; each list of
    rests is checked once per next state, in rests_of."""
    kinds: dict = {}
    groups = []
    count = 0
    for head, nxt, runs in tails:
        after = rests_of.get(nxt)
        if after is None:
            after = rests_of[nxt] = _pieces(rest, runs, level)
        lead, text = _checked(first, head, level)
        for summary, index in after[0].items():
            kinds.setdefault(join(lead, summary), count + index)
        if runs:  # a head with no rests makes no line
            groups.append((text, after[1]))
            count += len(runs)
    return kinds, groups, count


def _block(text: str, groups: list, take: int, prefix_first: bool) -> str:
    """The first take lines of a prefix with this text and a state's tail
    groups: per head, one join of its rests' texts with the prefix's and
    the head's texts as the separator, and that separator once more before
    the first line (or after the last when the prefix comes last).  Only
    the group where take ends is sliced."""
    parts = []
    for head, rests in groups:
        if take < len(rests):  # the limit or a fault cuts this head's lines
            rests = rests[:take]
        if prefix_first:  # each line: the prefix's text, the head's, the rest's
            sep = text + head
            parts += sep, sep.join(rests)
        else:  # the rest's text, the head's, the prefix's
            sep = head + text
            parts += sep.join(rests), sep
        take -= len(rests)
        if not take:
            break
    return "".join(parts)


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
