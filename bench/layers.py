"""Layer harness: one checkout's end-to-end and per-layer numbers, as one JSON file.

    python3 bench/layers.py --out BENCH_<n>.json

It measures the checkout it sits in, whatever the working directory, and
takes a few minutes on 2 vCPUs.  The file holds:

- "env": the interpreter, platform, CPU count, load, commit and seed, and
  the environment variables that change what a fresh command costs;
- "fresh": for every command form of the three perfbench workloads (read from
  perfbench/run.py's WORKLOADS, which this imports and does not change), for
  the largest `seq` and `series` forms and for the start-up floor, the
  minimum wall time and the maximum peak RSS over FRESH_RUNS fresh
  processes, each read with os.wait4 on the one child by perfbench/launch.py,
  and whether every run's output passed its perfbench check;
- "layers": the minimum and maximum seconds over LAYER_RUNS in-process calls
  of each route's core call, and of the IntPoly multiply under them, at
  fixed sizes, each call with the q-binomial cache emptied first;
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run as perfbench  # noqa: E402  (perfbench/run.py, found through sys.path)

SEED = 1
FRESH_RUNS = 5
LAYER_RUNS = 3
PERFBENCH_SECONDS = 10
# the caps sized for desk-scale enumeration stop the sweeps below n = 14
LAYER_CAP = "14"

# forms no workload runs: the largest each of seq and series takes, and the
# floor every command pays before it computes anything
EXTRA_FORMS = {
    "seq H --count 900 --json": perfbench.cli_argv(["seq", "H", "--count", "900", "--json"]),
    "series f2 --order 64 --json": perfbench.cli_argv(["series", "f2", "--order", "64", "--json"]),
    "python -c pass": [sys.executable, "-c", "pass"],
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


def fresh_rows(work: Path) -> dict:
    """Min wall time and max peak RSS per command form, over FRESH_RUNS runs."""
    reference = perfbench.load_reference()
    forms = {}
    for name, make in perfbench.WORKLOADS.items():
        for cmd in make(SEED, work).commands:
            forms[" ".join(cmd.argv)] = (perfbench.cli_argv(cmd.argv), cmd.check)
    for form, argv in EXTRA_FORMS.items():
        forms[form] = (argv, perfbench.expect_exit_zero)
    rows = {}
    for form, (argv, check) in forms.items():
        results = [perfbench.run_process(argv, ROOT, work / "stderr.txt") for _ in range(FRESH_RUNS)]
        rows[form] = {
            "runs": FRESH_RUNS,
            "wall_s_min": min(r.wall_s for r in results),
            "peak_rss_mb_max": max(r.rss_mb for r in results),
            "correct": all(check(r, reference) is None for r in results),
        }
        print(f"fresh {form}: {rows[form]}", file=sys.stderr)
    return rows


def layer_calls() -> dict:
    from genocchi.admissible import count_closed_column_graded
    from genocchi.contfrac import expand, fraction_f1, fraction_f2
    from genocchi.dellac import h_poly_dellac
    from genocchi.exactalg import IntPoly
    from genocchi.hanzeng import hanzeng_barc
    from genocchi.limits import ENV_VAR
    from genocchi.verify import crosscheck

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

    return {
        "IntPoly * IntPoly, 256 terms of 64 bits each": lambda: a * b,
        "expand(fraction_f1(), 48)": lambda: expand(fraction_f1(), 48),
        "expand(fraction_f2(), 48)": lambda: expand(fraction_f2(), 48),
        "h_poly_dellac(14)": capped(h_poly_dellac, 14),
        "count_closed_column_graded(14)": capped(count_closed_column_graded, 14),
        "hanzeng_barc(48)": lambda: hanzeng_barc(48),
        "crosscheck(8)": lambda: crosscheck(8),
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
    work = ROOT / perfbench.WORK_DIR  # the workloads' spec files go here, as perfbench/run.py puts them
    work.mkdir(exist_ok=True)
    report = {"env": environment(), "fresh": fresh_rows(work), "layers": layer_rows()}
    report["tier1"] = tier1()
    report["end_to_end"] = end_to_end()
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
