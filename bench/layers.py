"""Layer harness: one checkout's end-to-end and per-layer numbers, as one JSON file.

    python3 bench/layers.py --out BENCH_<n>.json

It measures the checkout it sits in, whatever the working directory, and
takes a few minutes on 2 vCPUs.  It first removes every __pycache__
directory under the checkout's src/ (bench/ab.py's remove_bytecode), and
it and every process it starts run with PYTHONDONTWRITEBYTECODE=1, so each
fresh command compiles its source and no run writes a cache back.  The
file holds:

- "env": the interpreter, platform, CPU count, load, commit and seed, the
  environment variables that change what a fresh command costs, and how
  many cache directories were removed;
- "fresh": for every command form of the three perfbench workloads (read from
  perfbench/run.py's WORKLOADS, which this imports and does not change), for
  the largest `seq` and `series` forms, `verify --n-max 8`, the smallest
  command (`seq h --count 1`) and the start-up floor (with and without
  CPython's teardown), the
  minimum wall time and the maximum peak RSS over FRESH_RUNS fresh
  processes, each read with os.wait4 on the one child by perfbench/launch.py,
  and whether every run's output passed its perfbench check; then the
  genocchi modules the form loads, their parser tokens (tokenize's, without
  the encoding, comments and NL tokens: what a fresh command compiles
  without a bytecode cache), and the minimum over FRESH_RUNS fresh interpreters of the time to
  import those modules from source and from a bytecode cache kept in a
  temporary directory, never in the checkout;
- "verify_rss": the 50th and 90th percentiles and the maximum of the peak
  RSS of each verify workload form over VERIFY_RSS_RUNS fresh processes;
- "layers": the minimum and maximum seconds over LAYER_RUNS in-process calls
  of each route's core call, of the Dumont oracle at its cap, of the
  IntPoly multiply under them, of the Dellac and admissible walks counted
  by their blocks, and of the enumerate stream of each stream form written
  into a writer that drops its text, at fixed sizes, each call with the
  q-binomial cache emptied first;
- "stream_peaks": the minimum over LAYER_RUNS fresh interpreters of the
  tracemalloc peak of each of those enumerate stream calls, and of the
  Dellac and admissible streams at n = 8 and the Motzkin stream at n = 14,
  the default caps;
- "tier1": the wall time and summary line of one run of the tier-1 suite;
- "end_to_end": the metrics line of perfbench/run.py for each workload, run
  unchanged for PERFBENCH_SECONDS.

Nothing here is a tier-1 test: the numbers depend on the machine and its
load, and are recorded, not asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run as perfbench  # noqa: E402  (perfbench/run.py, found through sys.path)
from ab import remove_bytecode  # noqa: E402  (bench/ab.py, beside this file)

SEED = 1
FRESH_RUNS = 5
VERIFY_RSS_RUNS = 30
LAYER_RUNS = 3
PERFBENCH_SECONDS = 10
# the caps sized for desk-scale enumeration stop the sweeps below n = 14
LAYER_CAP = "14"

# forms no workload runs: the largest each of seq and series takes, the full
# cross-check matrix, the smallest command, and the floor every command pays
# before it computes anything
EXTRA_FORMS = {
    "seq H --count 900 --json": perfbench.cli_argv(["seq", "H", "--count", "900", "--json"]),
    "series f1 --order 64 --json": perfbench.cli_argv(["series", "f1", "--order", "64", "--json"]),
    "series f2 --order 64 --json": perfbench.cli_argv(["series", "f2", "--order", "64", "--json"]),
    "verify --n-max 8 --json": perfbench.cli_argv(["verify", "--n-max", "8", "--json"]),
    "seq h --count 1 --json": perfbench.cli_argv(["seq", "h", "--count", "1", "--json"]),
    "python -c pass": [sys.executable, "-c", "pass"],
    # the floor without CPython's teardown, which every genocchi command skips through os._exit
    "python -c 'import os; os._exit(0)'": [sys.executable, "-c", "import os; os._exit(0)"],
    "python -c 'import genocchi.cli'": perfbench.SETUP_ARGV,
}


def environment() -> dict:
    try:
        # "-dirty" marks a measured tree that differs from its commit
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "seed": SEED,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "env": {k: os.environ.get(k) for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")},
    }


# the genocchi modules a fresh interpreter holds after running the command
# line in argv (none: only importing the CLI), in the order they were imported
LOADED_MODULES = """import contextlib, io, sys
import genocchi.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        genocchi.cli.run(sys.argv[1:])
print(*(m for m in sys.modules if m.partition(".")[0] == "genocchi"))
"""

# the seconds a fresh interpreter takes to import the modules in argv, in order
IMPORT_TIME = """import importlib, sys, time
started = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(time.perf_counter() - started)
"""


def child_env(**extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra)
    env.pop("GENOCCHI_MAX_N", None)
    return env


def loaded_modules(argv: list[str]) -> list[str]:
    """The genocchi modules the fresh form argv loads: a genocchi command
    line, importing the CLI, or a floor form that loads none."""
    if argv[1:3] == ["-m", "genocchi.cli"]:
        cli_args = argv[3:]
    elif argv == perfbench.SETUP_ARGV:
        cli_args = []
    else:
        return []
    done = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *cli_args], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    return done.stdout.split()


def parser_tokens(module: str) -> int:
    """The tokens compile() reads from a module's source: tokenize's, without
    the encoding, comments and the NL tokens of blank lines and of lines
    inside brackets."""
    path = ROOT / "src" / Path(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    with open(path, "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        return sum(1 for t in tokens if t.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def import_times(modules: list[str]) -> dict:
    """Min seconds over FRESH_RUNS fresh interpreters to import modules from
    source, and from a bytecode cache written once beforehand.  Both caches
    are temporary directories (PYTHONPYCACHEPREFIX): the source runs find
    none, and no run writes into the checkout."""
    argv = [sys.executable, "-c", IMPORT_TIME, *modules]

    def best(env: dict) -> float:
        runs = (subprocess.run(argv, env=env, capture_output=True, text=True, check=True) for _ in range(FRESH_RUNS))
        return min(float(done.stdout) for done in runs)

    with tempfile.TemporaryDirectory() as empty, tempfile.TemporaryDirectory() as cached:
        source = best(child_env(PYTHONPYCACHEPREFIX=empty, PYTHONDONTWRITEBYTECODE="1"))
        env = child_env(PYTHONPYCACHEPREFIX=cached)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run(argv, env=env, capture_output=True, check=True)  # writes the cache
        bytecode = best(child_env(PYTHONPYCACHEPREFIX=cached, PYTHONDONTWRITEBYTECODE="1"))
    return {"import_s_source_min": source, "import_s_bytecode_min": bytecode}


def fresh_forms(work: Path) -> dict:
    """form -> (argv, check) for every form fresh_rows measures."""
    forms = {}
    for name, make in perfbench.WORKLOADS.items():
        for cmd in make(SEED, work).commands:
            forms[" ".join(cmd.argv)] = (perfbench.cli_argv(cmd.argv), cmd.check)
    for form, argv in EXTRA_FORMS.items():
        forms[form] = (argv, perfbench.expect_exit_zero)
    return forms


def fresh_rows(work: Path) -> dict:
    """Min wall time and max peak RSS per command form, over FRESH_RUNS runs,
    and what the form loads and compiles."""
    reference = perfbench.load_reference()
    rows = {}
    for form, (argv, check) in fresh_forms(work).items():
        results = [perfbench.run_process(argv, ROOT, work / "stderr.txt") for _ in range(FRESH_RUNS)]
        modules = loaded_modules(argv)
        rows[form] = {
            "runs": FRESH_RUNS,
            "wall_s_min": min(r.wall_s for r in results),
            "peak_rss_mb_max": max(r.rss_mb for r in results),
            "correct": all(check(r, reference) is None for r in results),
            "modules": modules,
            "parser_tokens": sum(map(parser_tokens, modules)),
            **(import_times(modules) if modules else {}),
        }
        print(f"fresh {form}: {rows[form]}", file=sys.stderr)
    return rows


def verify_rss(work: Path) -> dict:
    """The spread of each verify workload form's fresh peak RSS."""
    rows = {}
    for cmd in perfbench.verify_workload(SEED, work).commands:
        argv = perfbench.cli_argv(cmd.argv)
        peaks = sorted(perfbench.run_process(argv, ROOT, work / "stderr.txt").rss_mb for _ in range(VERIFY_RSS_RUNS))
        rows[" ".join(cmd.argv)] = {
            "runs": VERIFY_RSS_RUNS,
            "peak_rss_mb_p50": peaks[len(peaks) // 2],
            "peak_rss_mb_p90": peaks[len(peaks) * 9 // 10],
            "peak_rss_mb_max": peaks[-1],
        }
        print(f"verify rss {' '.join(cmd.argv)}: {rows[' '.join(cmd.argv)]}", file=sys.stderr)
    return rows


def layer_calls() -> dict:
    from genocchi import admissible, dellac, motzkin
    from genocchi.admissible import count_closed_column_graded
    from genocchi.contfrac import expand, fraction_f1, fraction_f2
    from genocchi.dellac import h_poly_dellac
    from genocchi.exactalg import IntPoly
    from genocchi.hanzeng import hanzeng_barc
    from genocchi.limits import ENV_VAR
    from genocchi.motzkin import fermionic_sequence, h_poly_fermionic, h_poly_laurent
    from genocchi.oracles import count_dumont
    from genocchi.stream import write_lines
    from genocchi.verify import crosscheck
    from genocchi.walk import layered_blocks

    rng = random.Random(SEED)
    a, b = (IntPoly([rng.randrange(1 << 64) for _ in range(256)]) for _ in range(2))

    def capped(route, n):
        def call():
            os.environ[ENV_VAR] = LAYER_CAP
            try:
                return route(n)
            finally:
                del os.environ[ENV_VAR]

        return call

    def block_count(model, n):
        # what crosscheck's counts-agree does past the object-checked sizes:
        # each block adds its state's tail count, the lengths of its tails'
        # shared lists of rests, summed once per state
        def call():
            total, sizes = 0, {}
            for _, state, tails in layered_blocks(*model.layers(n), model.SHARED_LEVELS):
                if state not in sizes:
                    sizes[state] = sum(len(rests) for _, _, rests in tails)
                total += sizes[state]
            return total

        return call

    def streamed(model, n):
        # the enumerate stream's whole work for the stream workload's forms
        # (--json, no --limit), its lines written into a writer that drops them
        def call():
            return write_lines(lambda text: None, model, n, True, sys.maxsize)

        return call

    return {
        "IntPoly * IntPoly, 256 terms of 64 bits each": lambda: a * b,
        "expand(fraction_f1(), 48)": lambda: expand(fraction_f1(), 48),
        "expand(fraction_f2(), 48)": lambda: expand(fraction_f2(), 48),
        "h_poly_dellac(14)": capped(h_poly_dellac, 14),
        "count_closed_column_graded(14)": capped(count_closed_column_graded, 14),
        "hanzeng_barc(48)": lambda: hanzeng_barc(48),
        # the hq-three-way Laurent side at verify's largest n, and at the cap
        "h_poly_laurent(8)": lambda: h_poly_laurent(8),
        "h_poly_laurent(14)": capped(h_poly_laurent, 14),
        # what verify's fermionic rows read at its two workload sizes: one
        # sweep read at every level, against one sweep per n
        "fermionic_sequence(7)": lambda: list(fermionic_sequence(7)),
        "fermionic_sequence(6)": lambda: list(fermionic_sequence(6)),
        "h_poly_fermionic(n), n = 1..7": lambda: [h_poly_fermionic(n) for n in range(1, 8)],
        "count_dumont(4)": lambda: count_dumont(4),
        "crosscheck(8)": lambda: crosscheck(8),
        # the verify workload's two forms, with the seeds perfbench/run.py
        # draws for them at seed 1 (SEED)
        "crosscheck(7, 140892)": lambda: crosscheck(7, 140892),
        "crosscheck(6, 596854)": lambda: crosscheck(6, 596854),
        "Dellac walk block count at n = 8": block_count(dellac, 8),
        "admissible walk block count at n = 8": block_count(admissible, 8),
        "stream.write_lines, dellac n = 7 --json": streamed(dellac, 7),
        "stream.write_lines, admissible n = 7 --json": streamed(admissible, 7),
        "stream.write_lines, motzkin n = 12 --json": streamed(motzkin, 12),
    }


def layer_rows() -> dict:
    from genocchi.exactalg import q_binomial

    rows = {}
    for name, call in layer_calls().items():
        times = []
        for _ in range(LAYER_RUNS):
            q_binomial.cache_clear()  # each call starts cold, as it does in a fresh command
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        rows[name] = {"runs": LAYER_RUNS, "s_min": min(times), "s_max": max(times)}
        print(f"layer {name}: {rows[name]}", file=sys.stderr)
    return rows


# one stream in a fresh interpreter, so the peak does not hang on what this
# process ran before: its lines written into a writer that drops them, with
# the model's stream rules imported first, so that compiling them is not
# counted in the stream's peak
STREAM_PEAK = """import sys, tracemalloc
from genocchi import {model} as model, stream_{model}
from genocchi.stream import write_lines
tracemalloc.start()
write_lines(lambda text: None, model, {n}, True, sys.maxsize)
print(tracemalloc.get_traced_memory()[1])
"""


def stream_peaks() -> dict:
    env = child_env()
    rows = {}
    forms = ("dellac", 7), ("dellac", 8), ("admissible", 7), ("admissible", 8), ("motzkin", 12), ("motzkin", 14)
    for model, n in forms:
        argv = [sys.executable, "-c", STREAM_PEAK.format(model=model, n=n)]
        runs = (subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(LAYER_RUNS))
        peaks = [int(done.stdout) for done in runs]
        name = f"stream.write_lines, {model} n = {n} --json"
        rows[name] = {"runs": LAYER_RUNS, "peak_kb_min": min(peaks) / 1024}
        print(f"stream peak {name}: {rows[name]}", file=sys.stderr)
    return rows


def tier1() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GENOCCHI_MAX_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    print(f"tier1: {wall:.1f} s, {summary}", file=sys.stderr)
    return {"wall_s": wall, "exit": done.returncode, "summary": summary}


def end_to_end() -> dict:
    rows = {}
    for workload in perfbench.WORKLOADS:
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
        argv += ["--seed", str(SEED), "--seconds", str(PERFBENCH_SECONDS)]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        rows[workload] = {"seconds": PERFBENCH_SECONDS, **line}
        print(f"end_to_end {workload}: {line}", file=sys.stderr)
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for every process started below
    sys.dont_write_bytecode = True  # and for the layer rows' imports in this one
    removed = remove_bytecode(ROOT)
    work = ROOT / perfbench.WORK_DIR  # the workloads' spec files go here, as perfbench/run.py puts them
    work.mkdir(exist_ok=True)
    report = {
        "env": {**environment(), "bytecode_dirs_removed": removed},
        "fresh": fresh_rows(work),
        "verify_rss": verify_rss(work),
        "layers": layer_rows(),
    }
    report["stream_peaks"] = stream_peaks()
    report["tier1"] = tier1()
    report["end_to_end"] = end_to_end()
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
