"""The cross-check report: one result per check, rendered as a table or as
one JSON line.

The JSON line is what json.dumps writes for json_dict with compact
separators, byte for byte, but made without loading json: the keys are
fixed, the ints print as they are, and each string goes through the
escaper json.dumps itself calls.

The report lives apart from the checks in verify.py: a command run without
a bytecode cache compiles each module it imports, and the largest compile
sets the command's peak memory.  The verify command's handler, which runs
the checks and writes their report, lives here too, so that cli.py need
not compile it for the other commands.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import complain

try:  # the string escaper json.dumps calls, without loading json
    from _json import encode_basestring_ascii as _json_string
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import encode_basestring_ascii as _json_string


class CheckResult(NamedTuple):
    name: str
    range: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


class CheckReport(NamedTuple):
    n_max: int
    seed: int
    checks: tuple[CheckResult, ...] = ()

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "range": c.range, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "failures": self.failures,
        }

    def json_text(self) -> str:
        """json.dumps(self.json_dict(), separators=(",", ":")), byte for byte."""
        data = self.json_dict()
        checks = ",".join(
            "{" + ",".join(f'"{key}":{_json_string(value)}' for key, value in check.items()) + "}"
            for check in data["checks"]
        )
        return (
            f'{{"n_max":{data["n_max"]},"seed":{data["seed"]},'
            f'"checks":[{checks}],"failures":{data["failures"]}}}'
        )

    def table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [
            f"{c.status.upper():7} {c.name:{width}}  {c.range:12} {c.detail}"
            for c in self.checks
        ]
        lines.append(f"{len(self.checks)} checks, {self.failures} failure(s), seed={self.seed}")
        return "\n".join(lines)


def cmd_verify(args) -> int:
    from .verify import crosscheck

    started = time.monotonic()
    report = crosscheck(args.n_max, seed=args.seed)
    if args.json:
        print(report.json_text())
    else:
        print(report.table())
        complain(f"elapsed: {time.monotonic() - started:.2f}s")
    return 1 if report.failures else 0
