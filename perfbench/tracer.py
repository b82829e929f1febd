"""Span tracer for one `genocchi` CLI process.

Run as a script, it patches the package's public route functions (at every
module that looked them up by name), `IntPoly.__mul__`/`__rmul__` and
`PowerSeries.inverse`, runs the CLI with the remaining arguments, and at exit
writes the recorded spans and work counters next to the given path:

    python perfbench/tracer.py OUT_PREFIX seq H --count 20

`OUT_PREFIX.json` holds the span names, counters and repeat statistics;
`OUT_PREFIX.spans` holds the spans themselves as four packed arrays (name id,
parent index, start, end) plus a flag array marking the outermost activation
of each name.  Spans stay in memory while the command runs.  Nothing under
`src/` is modified: the patches live only in this process.

`summarize` turns the spans into per-name calls, busy (inclusive) and self
time; the benchmark runner aggregates those summaries across commands.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from array import array
from pathlib import Path

# home module -> public functions that get a span wherever they are looked up
SPANNED = {
    "dellac": ("enumerate_dellac", "h_poly_dellac"),
    "admissible": ("enumerate_admissible", "count_closed_column_graded"),
    "oracles": ("count_dumont", "count_triangle_pairs"),
    "motzkin": (
        "enumerate_motzkin",
        "h_motzkin_rational",
        "h_poly_fermionic",
        "h_poly_laurent",
        "weighted_path_sum",
        "tilde_h",
    ),
    "contfrac": ("expand",),
    "hanzeng": ("hanzeng_barc",),
    "seidel": (
        "build_triangle",
        "genocchi_first",
        "median_genocchi",
        "normalized_h",
        "h_sequence",
        "median_sequence",
        "genocchi_first_sequence",
    ),
    "verify": ("crosscheck",),
}

# modules whose globals may hold the functions above (import-by-name sites)
SITES = ("cli", "verify", "dellac", "admissible", "oracles", "motzkin", "contfrac", "hanzeng", "seidel")

# calls made from this site are the cross-check matrix's route calls
ROUTE_SITE = "verify"

# returned counts that measure objects enumerated, per layer counter
OBJECT_COUNTERS = {
    "dellac.enumerate_dellac": "dellac.objects",
    "admissible.enumerate_admissible": "admissible.objects",
    "admissible.count_closed_column_graded": "admissible.objects",
    "motzkin.enumerate_motzkin": "motzkin.paths",
}

# work counted from a call's first argument
ARGUMENT_COUNTERS = {"seidel.build_triangle": "seidel.columns_built"}

# Seidel columns a call needs, from its index argument
COLUMNS_NEEDED = {
    "seidel.median_genocchi": lambda n: 2 * n,
    "seidel.genocchi_first": lambda n: 2 * n - 1,
}

SMALL_TERMS = 8
MEDIUM_TERMS = 64


def mul_bucket(la: int, lb: int) -> str:
    """Size class of a multiply, by its shorter operand's term count."""
    short = min(la, lb)
    if short <= SMALL_TERMS:
        return "exactalg.mul.products_small"
    if short <= MEDIUM_TERMS:
        return "exactalg.mul.products_medium"
    return "exactalg.mul.products_large"


def fingerprint(value, size: int):
    """A hashable stand-in for a call argument that compares by value.

    Specs and weight systems hold closures whose identity changes on every
    construction, so their callable fields are fingerprinted by the values
    they produce at indices 0..size+1.
    """
    if value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v, size) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name), size) for f in dataclasses.fields(value)
        )
    if callable(value):
        out = []
        for k in range(size + 2):
            try:
                out.append(repr(value(k)))
            except Exception as exc:  # generators may be undefined at some depths
                out.append(type(exc).__name__)
        return tuple(out)
    return repr(value)


def call_key(name: str, args: tuple, kwargs: dict):
    """Identify a call by function and argument values (size and spec)."""
    ints = [a for a in list(args) + list(kwargs.values()) if isinstance(a, int)]
    size = max(ints, default=0)
    return (
        name,
        fingerprint(tuple(args), size),
        tuple(sorted((k, fingerprint(v, size)) for k, v in kwargs.items())),
    )


class Tracer:
    """In-memory span recorder.  Not thread-safe: the CLI is single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")
        self._stack = [-1]
        self._active: list[int] = []
        self.paused = False
        self.counters: dict[str, float] = {}
        self.route_calls = 0
        self.route_repeats = 0
        self._route_seen: set = set()
        self.columns_needed = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self._active[nid] += 1
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.outermost.append(self._active[nid] == 1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()
        self._active[self.name_ids[idx]] -= 1

    def note_route_call(self, name: str, args: tuple, kwargs: dict) -> None:
        """Count a route call and whether an equal call came before it."""
        self.paused = True  # fingerprinting may multiply; keep that out of the counts
        try:
            key = call_key(name, args, kwargs)
        finally:
            self.paused = False
        self.route_calls += 1
        if key in self._route_seen:
            self.route_repeats += 1
        else:
            self._route_seen.add(key)

    def wrap(self, name: str, fn, route: bool = False):
        """Wrap fn so that each unpaused call records one span."""
        nid = self.name_id(name)
        objects = OBJECT_COUNTERS.get(name)
        by_argument = ARGUMENT_COUNTERS.get(name)
        needed = COLUMNS_NEEDED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if route:
                self.note_route_call(name, args, kwargs)
            if needed is not None and args:
                self.columns_needed = max(self.columns_needed, needed(args[0]))
            if by_argument is not None and args:
                self.count(by_argument, args[0])
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if objects is not None:
                self.count(objects, result)
            return result

        for attr in ("cache_clear", "cache_info", "cache_parameters"):
            if hasattr(fn, attr):  # keep the lru_cache interface usable
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def wrap_mul(self, fn, poly_type):
        """Span plus size accounting for IntPoly multiplication."""
        nid = self.name_id("exactalg.mul")
        counters = self.counters
        for key in (
            "exactalg.mul.coef_products",
            "exactalg.mul.products_small",
            "exactalg.mul.products_medium",
            "exactalg.mul.products_large",
        ):
            counters.setdefault(key, 0)

        def mul(a, b):
            if self.paused:
                return fn(a, b)
            idx = self.open(nid)
            try:
                result = fn(a, b)
            finally:
                self.close(idx)
            if result is not NotImplemented:
                la = len(a.coeffs)
                lb = len(b.coeffs) if isinstance(b, poly_type) else (1 if b else 0)
                counters["exactalg.mul.coef_products"] += la * lb
                counters[mul_bucket(la, lb)] += la * lb
            return result

        return mul

    def install(self) -> None:
        """Patch the imported genocchi package in place."""
        import importlib

        from genocchi import exactalg

        modules = {m: importlib.import_module(f"genocchi.{m}") for m in SITES}
        for home, fnames in SPANNED.items():
            for fname in fnames:
                original = getattr(modules[home], fname, None)
                if original is None:  # renamed or removed since: report zeros
                    continue
                for site, module in modules.items():
                    if getattr(module, fname, None) is original:
                        wrapped = self.wrap(f"{home}.{fname}", original, route=site == ROUTE_SITE)
                        setattr(module, fname, wrapped)
        mul = self.wrap_mul(exactalg.IntPoly.__mul__, exactalg.IntPoly)
        exactalg.IntPoly.__mul__ = mul
        exactalg.IntPoly.__rmul__ = mul
        exactalg.PowerSeries.inverse = self.wrap(
            "exactalg.series_inverse", exactalg.PowerSeries.inverse
        )

    def write(self, prefix: str, run_s: float) -> None:
        """Write spans and counters: PREFIX.json and PREFIX.spans."""
        header = {
            "names": self.names,
            "spans": len(self.name_ids),
            "run_s": run_s,
            "counters": self.counters,
            "route_calls": self.route_calls,
            "route_repeats": self.route_repeats,
            "columns_needed": self.columns_needed,
        }
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends, self.outermost):
                arr.tofile(fh)
        Path(prefix + ".json").write_text(json.dumps(header), encoding="utf-8")


def read_spans(prefix: str):
    """Load what Tracer.write stored: (header, name_ids, parents, starts, ends, outermost)."""
    header = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
    n = header["spans"]
    arrays = [array("H"), array("i"), array("d"), array("d"), array("b")]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (header, *arrays)


def summarize(names, name_ids, parents, starts, ends, outermost) -> dict:
    """Per-name {"calls", "busy_s", "self_s"} plus the top-level covered time.

    busy is inclusive time, counted once per outermost activation so that a
    recursive name is not counted twice; self is a span's duration minus the
    durations of its direct children.  Spans nest strictly (one thread).
    """
    n = len(name_ids)
    child = [0.0] * n
    top = 0.0
    for i in range(n):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p >= 0:
            child[p] += dur
        else:
            top += dur
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(n):
        entry = out[names[name_ids[i]]]
        dur = ends[i] - starts[i]
        entry["calls"] += 1
        entry["self_s"] += dur - child[i]
        if outermost[i]:
            entry["busy_s"] += dur
    return {"names": out, "top_level_s": top}


def main(argv: list[str]) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from genocchi import cli

    started = time.perf_counter()
    try:
        code = cli.run(cli_argv)
    finally:
        run_s = time.perf_counter() - started
        sys.stdout.flush()
        tracer.write(prefix, run_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
