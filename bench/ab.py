"""Paired end-to-end runs of a base revision and this checkout, as one JSON file.

    python3 bench/ab.py --base REV --workload stream --pairs 10 --seconds 30 --out BENCH_<n>_ab.json

The base revision is checked out with `git worktree add` in a directory
beside this checkout whose path has the same length, since a fresh
command's peak RSS moves with the length of its checkout's path; the
worktree is removed at the end.  Each pair runs perfbench/run.py (unchanged,
with the caller's environment) once in each tree, one after the other, the
base first in even pairs and the change first in odd ones.  The file holds
the two trees' directory names and their shared path length, each pair's
metrics, then per metric each side's median and quartiles, how
many pairs each side won (ties count for neither), and the verdict: "better"
when the change won at least nine tenths of at least MIN_PAIRS pairs and
the medians differ by more than the base's interquartile range, "worse"
when the base did, "unresolved" otherwise; and each side's count of failed
operations.

Nothing here is a tier-1 test; bench/test_ab.py tests the statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def sibling(checkout: Path) -> Path:
    """A directory beside checkout that does not exist yet, whose path has
    the same length as checkout's."""
    width = len(checkout.name)
    for i in range(1000):
        tag = f"ab{i}"
        name = checkout.name[: width - len(tag)] + tag
        path = checkout.parent / name
        if len(name) == width and not path.exists():
            return path
    raise SystemExit(f"error: no free directory name of {width} characters beside {checkout}")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run in tree: its last line, the JSON summary."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """The median and the lower and upper quartiles, by linear interpolation
    between the sorted values (statistics.quantiles, inclusive)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Pair i of base and change, for a metric where better is "lower" or
    "higher": each side's quartiles, the wins of each side, how much better
    the change's median is than the base's, and the verdict."""
    sign = 1 if better == "lower" else -1
    change_wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    base_wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    pairs = len(base)
    sides = {"base": quartiles(base), "change": quartiles(change)}
    gain = sign * (sides["base"]["median"] - sides["change"]["median"])  # > 0: the change is better
    spread = sides["base"]["q3"] - sides["base"]["q1"]
    verdict = "unresolved"
    if pairs >= MIN_PAIRS and abs(gain) > spread:
        if gain > 0 and 10 * change_wins >= 9 * pairs:
            verdict = "better"
        elif gain < 0 and 10 * base_wins >= 9 * pairs:
            verdict = "worse"
    row = {**sides, "change_wins": change_wins, "base_wins": base_wins, "ties": pairs - change_wins - base_wins}
    row.update(gain=gain, base_iqr=spread, verdict=verdict)
    return row


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of BENCHMARK.json's end_to_end list, compare over runs, each
    {"base": summary, "change": summary} of perfbench/run.py."""
    rows = {}
    for metric in metrics:
        name = metric["name"]
        base, change = ([run[side]["metrics"][name]["value"] for run in runs] for side in ("base", "change"))
        rows[name] = {"unit": metric["unit"], "better": metric["better"]}
        rows[name].update(compare(base, change, metric["better"]))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare this checkout with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, required=True, help="each perfbench/run.py run's length")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base_tree = sibling(ROOT)
    git("worktree", "add", "--detach", str(base_tree), args.base)
    try:
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "base": {"rev": args.base, "commit": git("rev-parse", args.base), "dir": base_tree.name},
            "change": {"commit": git("describe", "--always", "--dirty", "--abbrev=12"), "dir": ROOT.name},
            "path_length": len(str(ROOT)),  # of both trees' paths
            "env": {k: os.environ.get(k) for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")},
            "cpus": os.cpu_count(),
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "runs": [],
        }
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            run = {"first": order[0]}
            for side in order:
                run[side] = run_side(trees[side], args.workload, args.seed, args.seconds)
            report["runs"].append(run)
            values = {side: {k: v["value"] for k, v in run[side]["metrics"].items()} for side in trees}
            print(f"pair {pair + 1}/{args.pairs}: {json.dumps(values)}", file=sys.stderr)
    finally:
        git("worktree", "remove", "--force", str(base_tree))
    report["metrics"] = summarize(report["runs"], metrics)
    report["failed"] = {side: sum(run[side]["failed"] for run in report["runs"]) for side in trees}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
