"""The handler of the enumerate command: the objects of one model's walk,
one line each through stream.py, then their total.  cli.py imports this
module only when enumerate runs, and the handler imports only its own
model.
"""

import sys
from itertools import islice

from .errors import InternalInconsistencyError, internal_error


def cmd_enumerate(args) -> int:
    from .stream import write_lines
    from .walk import layered_sweep

    if args.model == "dellac":
        from . import dellac as model
        from .dellac import DellacConfig as build, iter_dellac as walk
    elif args.model == "admissible":
        from . import admissible as model
        from .admissible import AdmissibleSequence as build, iter_admissible as walk
    else:
        from . import motzkin as model
        from .motzkin import MotzkinPath, iter_motzkin as walk

        def build(n, heights):
            return MotzkinPath(heights)

    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    items = walk(args.n)  # checks n, before anything is walked
    stop = sys.maxsize if args.limit is None else args.limit
    written, faulty = write_lines(sys.stdout.write, model, args.n, args.json, stop)
    if faulty:
        # n was checked above, so an object its walk yields and its rules
        # reject is a fault of the walk
        return _walk_fault(build, args.n, items, written)

    if args.limit is None:
        total = written
    elif args.model == "motzkin":
        # the walk's own layers, swept over heights: the total visits no path
        swept = layered_sweep(*model.layers(args.n), lambda level, state, item, runs: runs)
        total = sum(swept.values())
    else:
        from .seidel import h_sequence

        for total in h_sequence(args.n + 1):  # configurations and sequences both number h(n)
            pass

    if args.json:
        print(f'{{"total":"{total}"}}')
    else:
        print(f"total {total}")
    return 0


def _walk_fault(build, n: int, items, index: int) -> int:
    """Exit 4 with the constructor's message for the walk's object at index,
    which failed its check in the stream."""
    try:
        build(n, next(islice(items, index, None)))
    except (TypeError, ValueError) as exc:
        return internal_error(exc)
    raise InternalInconsistencyError(f"object {index} of the walk fails its stream check but builds")
