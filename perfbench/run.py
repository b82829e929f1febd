"""End-to-end benchmark of the `genocchi` command-line program.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every operation is one
`python -m genocchi.cli ...` command in a fresh interpreter, so the
in-process caches start cold each time, exactly as for a CLI user.  The
loop is closed with one client: a command starts only after the previous
one has exited, and no command runs in parallel with another.

A workload is a fixed list of commands built from the seed (see WORKLOADS
and perfbench/README.md).  With --trace 0 the list is run round after round
until --seconds have passed, every output is checked, and the last line of
standard output is one JSON object with the end-to-end metrics.  With
--trace 1 the list runs once plainly and once under perfbench/tracer.py,
and the JSON object holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (sibling module, found through HERE)

REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = ".perfbench_work"
COMMAND_TIMEOUT_S = 120.0
SETUP_SAMPLES_PER_ROUND = 2
HEAD_BYTES = 1 << 18  # enough for every output compared byte for byte

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "dellac.enumerate_dellac.calls": "count",
    "dellac.enumerate_dellac.self_s": "s",
    "dellac.objects": "count",
    "dellac.h_poly_dellac.busy_s": "s",
    "admissible.enumerate_admissible.self_s": "s",
    "admissible.count_closed_column_graded.self_s": "s",
    "admissible.objects": "count",
    "oracles.count_dumont.self_s": "s",
    "oracles.count_triangle_pairs.self_s": "s",
    "motzkin.enumerate_motzkin.self_s": "s",
    "motzkin.paths": "count",
    "motzkin.h_poly_fermionic.busy_s": "s",
    "motzkin.weighted_path_sum.self_s": "s",
    "motzkin.tilde_h.calls": "count",
    "contfrac.expand.calls": "count",
    "contfrac.expand.busy_s": "s",
    "contfrac.expand.self_s": "s",
    "hanzeng.hanzeng_barc.busy_s": "s",
    "hanzeng.hanzeng_barc.self_s": "s",
    "seidel.build_triangle.calls": "count",
    "seidel.build_triangle.self_s": "s",
    "seidel.columns_built": "count",
    "seidel.column_use": "ratio",
    "exactalg.mul.calls": "count",
    "exactalg.mul.self_s": "s",
    "exactalg.mul.coef_products": "count",
    "exactalg.mul.products_small": "count",
    "exactalg.mul.products_medium": "count",
    "exactalg.mul.products_large": "count",
    "exactalg.series_inverse.calls": "count",
    "exactalg.series_inverse.self_s": "s",
    "verify.crosscheck.busy_s": "s",
    "verify.repeat_share": "ratio",
    "cli.output_bytes": "B",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """What one finished command produced and cost."""

    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    nbytes: int
    sha256: str
    head: bytes  # the first HEAD_BYTES of stdout
    tail: bytes  # the last line of stdout (at most 4 KiB)
    stderr: str = ""

    @property
    def complete(self) -> bool:
        return self.nbytes <= HEAD_BYTES


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("GENOCCHI_MAX_N", None)  # the default caps are part of the workload
    return env


def run_process(argv: list[str], root: Path, err_path: Path) -> Result:
    """Run one child to completion, hashing stdout as it arrives.

    The child runs under perfbench/launch.py, which reports the child's own
    wall time and rusage (os.wait4 on that one child; RUSAGE_CHILDREN would
    give a running maximum over every child reaped so far).
    """
    digest = hashlib.sha256()
    head = bytearray()
    tail = b""
    nbytes = 0
    report_r, report_w = os.pipe()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(report_w), *argv],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            pass_fds=(report_w,),
            start_new_session=True,  # one process group: a timeout kills the command too
        )
        os.close(report_w)
        deadline = time.perf_counter() + COMMAND_TIMEOUT_S
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not sel.select(remaining):
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                digest.update(chunk)
                nbytes += len(chunk)
                if len(head) < HEAD_BYTES:
                    head += chunk[: HEAD_BYTES - len(head)]
                tail = (tail + chunk)[-8192:]
        proc.stdout.close()
        proc.wait()
    with os.fdopen(report_r, "rb") as fh:
        report = fh.read().split()
    if len(report) == 4:
        code, wall, cpu, rss_kib = int(report[0]), float(report[1]), float(report[2]), int(report[3])
    else:  # killed before the launcher could report
        code, wall, cpu, rss_kib = proc.returncode or -9, COMMAND_TIMEOUT_S, 0.0, 0
    last_line = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1][-4096:]
    return Result(
        argv=list(argv),
        code=code,
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=rss_kib / 1024.0,  # Linux reports KiB
        nbytes=nbytes,
        sha256=digest.hexdigest(),
        head=bytes(head),
        tail=last_line,
        stderr=err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


# ---------------------------------------------------------------------------
# workloads and output checks
# ---------------------------------------------------------------------------

Check = Callable[[Result, dict], Optional[str]]


@dataclass
class Command:
    argv: list[str]
    check: Check


@dataclass
class Workload:
    commands: list[Command]
    # (index a, index b, check) over two results; a failure is charged to b
    pair_checks: list[tuple[int, int, Callable[[Result, Result], Optional[str]]]] = field(
        default_factory=list
    )


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def expect_digest(key: str, normalize: Callable[[bytes], bytes] | None = None) -> Check:
    """Exit 0 and stdout whose sha256 (after normalize) is the recorded one."""

    def check(res: Result, reference: dict) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[-200:]}"
        if key not in reference:
            return f"no reference digest for {key!r}"
        if normalize is None:
            got = res.sha256
        elif not res.complete:
            return "output too long to normalize"
        else:
            got = hashlib.sha256(normalize(res.head)).hexdigest()
        if got != reference[key]:
            return f"digest {got[:12]} != reference {reference[key][:12]}"
        return None

    return check


def expect_exit_zero(res: Result, reference: dict) -> Optional[str]:
    return None if res.code == 0 else f"exit {res.code}: {res.stderr.strip()[-200:]}"


def verify_normalizer(seed: int) -> Callable[[bytes], bytes]:
    """The verify report depends on --seed only where it prints the seed."""

    def normalize(out: bytes) -> bytes:
        return out.replace(b'"seed":%d,' % seed, b'"seed":SEED,').replace(
            b'seed=%d"' % seed, b'seed=SEED"'
        )

    return normalize


def verify_check(key: str, seed: int) -> Check:
    digest_check = expect_digest(key, verify_normalizer(seed))

    def check(res: Result, reference: dict) -> Optional[str]:
        if res.code == 0 and not res.tail.endswith(b'"failures":0}'):
            return "verify report lacks \"failures\":0"
        return digest_check(res, reference)

    return check


def same_output(a: Result, b: Result) -> Optional[str]:
    if a.sha256 != b.sha256:
        return f"{' '.join(b.argv[-4:])} differs from {' '.join(a.argv[-4:])}"
    return None


def limited_prefix(full: Result, limited: Result, limit: int) -> Optional[str]:
    """--limit k prints the first k objects of the full stream, then its total."""
    lines = full.head.split(b"\n")[:limit]
    expected = b"\n".join(lines) + b"\n" + full.tail + b"\n"
    if limited.code != 0 or limited.head != expected:
        return f"--limit {limit} output is not the first {limit} objects plus the total"
    return None


def contract_s_to_j(c: list[int]) -> dict:
    """Pairwise contraction of the S-fraction 1/(1 - c1 s/(1 - c2 s/...)), in
    plain ints: gamma_0 = c1, gamma_k = c_2k + c_2k+1, lambda_k = c_2k-1 c_2k."""

    def at(k: int) -> int:
        return c[k - 1] if 1 <= k <= len(c) else 0

    levels = len(c) // 2 + 1
    gamma = [at(1)] + [at(2 * k) + at(2 * k + 1) for k in range(1, levels)]
    lam = [at(2 * k - 1) * at(2 * k) for k in range(1, levels)]
    return {"kind": "J", "gamma": gamma, "lambda": lam}


def cli(*argv) -> list[str]:
    return [str(a) for a in argv]


# Sizes keep one round of each workload near 3-6 s at the seed commit, so a
# 30 s run takes 5-12 rounds per command.
ALGEBRA_FRACTION_ORDER = 14
ALGEBRA_CUSTOM_ORDER = 50
STREAM_N = 7
STREAM_MOTZKIN_N = 12


def verify_workload(seed: int, work: Path) -> Workload:
    """The product as users run it: the full cross-check matrix."""
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1_000_000), 2)
    commands = [
        Command(cli("verify", "--json", "--seed", seeds[0]), verify_check("verify --json --seed SEED", seeds[0])),
        Command(
            cli("verify", "--n-max", 6, "--json", "--seed", seeds[1]),
            verify_check("verify --n-max 6 --json --seed SEED", seeds[1]),
        ),
    ]
    return Workload(commands)


def algebra_workload(seed: int, work: Path) -> Workload:
    """Routes that enumerate nothing, where polynomial arithmetic dominates."""
    rng = random.Random(seed)
    fixed = [
        cli("series", "f1", "--order", ALGEBRA_FRACTION_ORDER, "--json"),
        cli("series", "f2", "--order", ALGEBRA_FRACTION_ORDER, "--json"),
        cli("poly", "hq", "--n", 10, "--json"),
        cli("poly", "barc", "--n", 24, "--json"),
        cli("seq", "H", "--count", 250, "--json"),
        cli("series", "hn", "--order", ALGEBRA_CUSTOM_ORDER, "--json"),
    ]
    commands = [Command(argv, expect_digest(" ".join(argv))) for argv in fixed]
    # every level nonzero, so the expansion cost does not depend on the seed
    c = [rng.randint(1, 9) for _ in range(2 * ALGEBRA_CUSTOM_ORDER + 2)]
    for name, spec in (("algebra-s.json", {"kind": "S", "c": c}), ("algebra-j.json", contract_s_to_j(c))):
        (work / name).write_text(json.dumps(spec), encoding="utf-8")
        spec_arg = f"{WORK_DIR}/{name}"  # relative: commands run in the checkout root
        argv = cli("series", "custom", "--spec", spec_arg, "--order", ALGEBRA_CUSTOM_ORDER, "--json")
        commands.append(Command(argv, expect_exit_zero))
    pairs = [(0, 1, same_output), (len(commands) - 2, len(commands) - 1, same_output)]
    return Workload(commands, pairs)


def stream_workload(seed: int, work: Path) -> Workload:
    """Every object built, validated, serialized and written to the pipe."""
    rng = random.Random(seed)
    limit = rng.randint(1, 64)
    fixed = [
        cli("enumerate", "dellac", "--n", STREAM_N, "--json"),
        cli("enumerate", "admissible", "--n", STREAM_N, "--json"),
        cli("enumerate", "motzkin", "--n", STREAM_MOTZKIN_N, "--json"),
    ]
    commands = [Command(argv, expect_digest(" ".join(argv))) for argv in fixed]
    commands.append(
        Command(cli("enumerate", "dellac", "--n", STREAM_N, "--limit", limit, "--json"), expect_exit_zero)
    )
    pairs = [(0, 3, lambda full, lim: limited_prefix(full, lim, limit))]
    return Workload(commands, pairs)


WORKLOADS = {"verify": verify_workload, "algebra": algebra_workload, "stream": stream_workload}


def check_round(workload: Workload, results: list[Result], reference: dict) -> list[Optional[str]]:
    """One problem string (or None) per command of the round."""
    problems = [cmd.check(res, reference) for cmd, res in zip(workload.commands, results)]
    for a, b, check in workload.pair_checks:
        if problems[b] is None:
            problems[b] = check(results[a], results[b])
    return problems


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "genocchi.cli", *argv]


def run_round(workload: Workload, root: Path, work: Path, trace_dir: Path | None = None) -> list[Result]:
    results = []
    for i, cmd in enumerate(workload.commands):
        if trace_dir is None:
            argv = cli_argv(cmd.argv)
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir / f"cmd{i}"), *cmd.argv]
        results.append(run_process(argv, root, work / "stderr.txt"))
    return results


SETUP_ARGV = [sys.executable, "-c", "import genocchi.cli"]


def setup_sample(root: Path, work: Path) -> float:
    """Wall time of a fresh interpreter importing genocchi.cli."""
    return run_process(SETUP_ARGV, root, work / "stderr.txt").wall_s


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, results: list[Result], problems: list[Optional[str]]) -> None:
        for res, problem in zip(results, problems):
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.messages.append(f"FAILED {' '.join(res.argv[3:])}: {problem}")


def timed_run(workload: Workload, root: Path, work: Path, seconds: float, reference: dict, tally: Tally) -> dict:
    """Rounds until `seconds` have passed.

    wall_s and cpu_s sum each command's fastest time over the rounds.  The
    work is deterministic and interference from other load only adds time,
    so the minimum is the steadiest estimate of the program's own cost; on a
    shared machine, medians over a 30 s run spread about twice as widely
    across runs (perfbench/README.md).  setup_s is the median of samples
    spread between the rounds.
    """
    setup_sample(root, work)  # compiles bytecode on a fresh checkout; not counted
    setups: list[float] = []
    rounds: list[list[Result]] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        setups += [setup_sample(root, work) for _ in range(SETUP_SAMPLES_PER_ROUND)]
        results = run_round(workload, root, work)
        tally.add(results, check_round(workload, results, reference))
        rounds.append(results)
    per_command = list(zip(*rounds))
    print(f"rounds: {len(rounds)}; round wall_s: {', '.join(f'{sum(r.wall_s for r in rs):.3f}' for rs in rounds)}")
    return {
        "wall_s": sum(min(r.wall_s for r in runs) for runs in per_command),
        "cpu_s": sum(min(r.cpu_s for r in runs) for runs in per_command),
        "peak_rss_mb": max(r.rss_mb for rs in rounds for r in rs),
        "setup_s": statistics.median(setups),
    }


def layer_metrics(summaries: list[dict], plain: list[Result], traced: list[Result]) -> dict:
    """Aggregate per-command span summaries into the PER_LAYER metrics."""
    values: dict[str, float] = {name: 0 for name in PER_LAYER}
    route_calls = route_repeats = needed = built = 0
    for s in summaries:
        for name, entry in s["names"].items():
            for stat in ("calls", "busy_s", "self_s"):
                key = f"{name}.{stat}"
                if key in values:
                    values[key] += entry[stat]
        for key, amount in s["counters"].items():
            if key in values:
                values[key] += amount
        route_calls += s["route_calls"]
        route_repeats += s["route_repeats"]
        cmd_built = s["counters"].get("seidel.columns_built", 0)
        if cmd_built:
            needed += s["columns_needed"]
            built += cmd_built
        values["cli.other_s"] += s["run_s"] - s["top_level_s"]
    values["seidel.column_use"] = needed / built if built else 0.0
    values["verify.repeat_share"] = route_repeats / route_calls if route_calls else 0.0
    values["cli.output_bytes"] = sum(r.nbytes for r in traced)
    values["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
    return values


def traced_run(workload: Workload, root: Path, work: Path, reference: dict, tally: Tally) -> dict:
    """One plain round and one traced round of the same commands."""
    plain = run_round(workload, root, work)
    tally.add(plain, check_round(workload, plain, reference))
    trace_dir = work / "trace"
    trace_dir.mkdir(exist_ok=True)
    traced = run_round(workload, root, work, trace_dir)
    problems = check_round(workload, traced, reference)
    summaries = []
    for i, (p, t) in enumerate(zip(plain, traced)):
        if problems[i] is None and t.sha256 != p.sha256:
            problems[i] = "traced output differs from the untraced output"
        prefix = str(trace_dir / f"cmd{i}")
        try:
            header, *spans = tracer.read_spans(prefix)
        except (OSError, ValueError, EOFError) as exc:
            problems[i] = problems[i] or f"no span file: {exc}"
            continue
        summary = tracer.summarize(header["names"], *spans)
        summaries.append({**header, **summary})
    tally.add(traced, problems)
    return layer_metrics(summaries, plain, traced)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "genocchi" / "cli.py").is_file():
        print("error: run from the root of a genocchi checkout (src/genocchi missing)", file=sys.stderr)
        return 2
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    reference = load_reference()
    workload = WORKLOADS[args.workload](args.seed, work)
    tally = Tally()
    if args.trace:
        values, units = traced_run(workload, root, work, reference, tally), PER_LAYER
    else:
        values, units = timed_run(workload, root, work, args.seconds, reference, tally), END_TO_END
    for message in tally.messages:
        print(message)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]} {unit}")
    print(f"{args.workload} error_rate = {tally.failed / tally.attempted} ({tally.failed}/{tally.attempted} operations)")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
