"""Cross-check orchestrator.

Runs every independent route to h(n), h_n(q), the reversed polynomials and
the generating-function identities, and collects one pass/fail/skipped line
per check.  Failures are reported, never raised; the CLI turns a nonzero
failure count into a nonzero exit status.

Each identity compares two code paths that share no route-specific code
(motzkin.path_sums, IntPoly arithmetic, walk.layered_walk under the three
walks and the Dumont oracle, and walk.layered_sweep under the Dellac,
fermionic, closed-subset and triangle-pair sweeps are shared substrate):
  series-f1/f2      J-fraction Motzkin walk / S-fraction Dyck walk in the
                    path sweep vs tilde_h's fermionic pair-state sweep
  contraction-*     Dyck walk of an S-fraction vs Motzkin walk of its
                    contraction (S-fractions never expand via contract_S_to_J)
  q1-hn-series      Motzkin walk of f1 at q=1 vs Dyck walk of the integer hn
  viennot-doubling  Dyck walk vs the Seidel triangle
  hanzeng-reversal  the Han-Zeng recurrence in shift-and-add steps vs
                    tilde_h's fermionic pair-state sweep
  hq-three-way      Dellac used-row transfer sweep (h_poly_dellac) vs fermionic
                    pair-state sweep vs Laurent-weight sweep
  counts-agree      the Dellac, admissible and Motzkin walks, the closed-subset
                    transfer sweep and the integer-weight sweep vs Seidel,
                    each walked object validated through OBJECTS_MAX_N
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from typing import Iterator

from . import limits
from .admissible import AdmissibleSequence, count_closed_column_graded, iter_admissible
from .contfrac import (
    SFraction,
    contract_S_to_J,
    contract_S_to_J_affine,
    expand,
    fraction_f1,
    fraction_f2,
    fraction_hn,
    fraction_viennot,
)
from .dellac import DellacConfig, h_poly_dellac, iter_dellac
from .errors import ResourceLimitError
from .hanzeng import hanzeng_barc
from .motzkin import (
    MotzkinPath,
    h_motzkin_rational,
    h_poly_fermionic,
    h_poly_laurent,
    integer_weight_system,
    iter_motzkin,
    tilde_h,
    weighted_path_sum,
)
from .oracles import DUMONT_MAX_N, TRIANGLE_MAX_N, count_dumont, count_triangle_pairs
from .seidel import median_genocchi, normalized_h

CROSSCHECK_MAX_N = 8
CONTRACTION_ORDER = 10
RANDOM_INSTANCES = 100
DIVISIBILITY_MAX_N = 12
# through this n counts-agree also validates every walked object
OBJECTS_MAX_N = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    range: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


@dataclass
class CheckReport:
    n_max: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

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

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [
            f"{c.status.upper():7} {c.name:{width}}  {c.range:12} {c.detail}"
            for c in self.checks
        ]
        lines.append(f"{len(self.checks)} checks, {self.failures} failure(s), seed={self.seed}")
        return "\n".join(lines)


def _mismatch(label: str, lhs, rhs) -> str:
    return f"{label}: {lhs} != {rhs}"


def crosscheck(n_max: int, seed: int = 0) -> CheckReport:
    """Run the full check matrix through the given bound (1 <= n_max <= 8)."""
    if not 1 <= n_max <= CROSSCHECK_MAX_N:
        raise ValueError(f"n_max must be between 1 and {CROSSCHECK_MAX_N}")
    # a malformed GENOCCHI_MAX_N is bad input, raised here once rather than
    # reported as a failure by every check that reads the cap
    limits.cap_for("dellac")
    report = CheckReport(n_max=n_max, seed=seed)

    def run(name: str, rng_text: str, fn) -> None:
        # fn() yields problems one at a time, so a check that raises keeps
        # every problem it found before the exception
        problems: list[str] = []
        try:
            problems.extend(fn())
        except ResourceLimitError as exc:
            if not problems:
                report.checks.append(CheckResult(name, rng_text, "skipped", str(exc)))
                return
            problems.append(repr(exc))
        except Exception as exc:  # a crashed check is a failed check
            problems.append(repr(exc))
        if problems:
            report.checks.append(CheckResult(name, rng_text, "fail", "; ".join(problems)))
        else:
            report.checks.append(CheckResult(name, rng_text, "pass", _details.pop(name, "ok")))

    _details: dict[str, str] = {}

    # one tilde_h(n) per n for the series and Han-Zeng checks; the lambda reads
    # the module's tilde_h when a check first asks, so a patched name is seen
    reversed_poly = cache(lambda n: tilde_h(n))

    # (1) every counting model agrees with the triangle
    def counts_agree() -> Iterator[str]:
        ws = integer_weight_system()

        def walked(label: str, walk, build, n: int):
            # yields the walk's problems, returns its count
            if n > OBJECTS_MAX_N:
                return sum(1 for _ in walk(n))
            items = list(walk(n))
            try:
                if len({build(n, item) for item in items}) < len(items):
                    yield f"{label} n={n}: the walk repeats items"
            except ValueError as exc:
                yield f"{label} n={n}: invalid item: {exc}"
            return len(items)

        for n in range(1, n_max + 1):
            expected = normalized_h(n)
            dellac_count = yield from walked("dellac", iter_dellac, DellacConfig, n)
            admissible_count = yield from walked(
                "admissible", iter_admissible, AdmissibleSequence, n
            )
            for label, got in (
                ("dellac", dellac_count),
                ("admissible", admissible_count),
                ("closed-subsets", count_closed_column_graded(n)),
                ("motzkin-rational", h_motzkin_rational(n)),
                ("motzkin-weights", weighted_path_sum(n, ws)),
            ):
                if got != expected:
                    yield _mismatch(f"{label} n={n}", got, expected)
            if n <= OBJECTS_MAX_N:
                yield from walked("motzkin", iter_motzkin, lambda n, f: MotzkinPath(f), n)
        _details["counts-agree"] = "h-values: " + ",".join(
            str(normalized_h(n)) for n in range(n_max + 1)
        )

    run("counts-agree", f"n=1..{n_max}", counts_agree)

    # (2) brute-force oracles on their own ranges
    dmax = min(n_max, DUMONT_MAX_N)
    run(
        "dumont-oracle",
        f"n=1..{dmax}",
        lambda: (
            _mismatch(f"n={n}", count_dumont(n), normalized_h(n))
            for n in range(1, dmax + 1)
            if count_dumont(n) != normalized_h(n)
        ),
    )

    tmax = min(n_max, TRIANGLE_MAX_N)
    run(
        "triangle-pairs-oracle",
        f"n=1..{tmax}",
        lambda: (
            _mismatch(f"n={n}", count_triangle_pairs(n), normalized_h(n + 1))
            for n in range(1, tmax + 1)
            if count_triangle_pairs(n) != normalized_h(n + 1)
        ),
    )

    # (3) the three q-polynomial routes coincide
    def three_way() -> Iterator[str]:
        for n in range(1, n_max + 1):
            a, b, c = h_poly_dellac(n), h_poly_fermionic(n), h_poly_laurent(n)
            if a != b:
                yield _mismatch(f"dellac/fermionic n={n}", a, b)
            if b != c:
                yield _mismatch(f"fermionic/laurent n={n}", b, c)

    run("hq-three-way", f"n=1..{n_max}", three_way)

    # (4) both named q-fractions generate the reversed polynomials
    def series_check(via: str):
        def check() -> Iterator[str]:
            series = expand({"f1": fraction_f1, "f2": fraction_f2}[via](), n_max)
            for n in range(n_max + 1):
                if series.coefficient(n) != reversed_poly(n):
                    yield _mismatch(f"n={n}", series.coefficient(n), reversed_poly(n))

        return check

    run("series-f1", f"n=0..{n_max}", series_check("f1"))
    run("series-f2", f"n=0..{n_max}", series_check("f2"))

    # (5) the normalized recurrence polynomials match the reversed polynomials
    run(
        "hanzeng-reversal",
        f"n=0..{n_max}",
        lambda: (
            _mismatch(f"n={n}", hanzeng_barc(n + 1), reversed_poly(n))
            for n in range(n_max + 1)
            if hanzeng_barc(n + 1) != reversed_poly(n)
        ),
    )

    # (6) q = 1 chain
    def q1_series() -> Iterator[str]:
        at_one = expand(fraction_f1(), n_max).evaluate_q(1)
        plain = expand(fraction_hn(), n_max).evaluate_q(1)
        for n in range(n_max + 1):
            if at_one[n] != plain[n]:
                yield _mismatch(f"n={n}", at_one[n], plain[n])

    run("q1-hn-series", f"n=0..{n_max}", q1_series)

    def viennot_doubling() -> Iterator[str]:
        series = expand(fraction_viennot(), n_max).evaluate_q(1)
        if series[0] != 1:
            yield _mismatch("n=0", series[0], 1)
        for n in range(1, n_max + 1):
            expected = median_genocchi(n)
            if series[n] != expected:
                yield _mismatch(f"n={n}", series[n], expected)
            if expected != (1 << (n - 1)) * normalized_h(n - 1):
                yield _mismatch(f"doubling n={n}", expected, (1 << (n - 1)) * normalized_h(n - 1))

    run("viennot-doubling", f"n=0..{n_max}", viennot_doubling)

    # (7) power-of-two divisibility
    dvmax = DIVISIBILITY_MAX_N
    run(
        "divisibility",
        f"n=1..{dvmax}",
        lambda: (
            f"H({2 * n + 1}) not divisible by 2^{n}"
            for n in range(1, dvmax + 1)
            if median_genocchi(n + 1) % (1 << n)
        ),
    )

    # (8) contraction transforms on the named fractions and on random instances
    def contraction_named() -> Iterator[str]:
        f2 = fraction_f2()
        contracted = expand(contract_S_to_J(f2), CONTRACTION_ORDER)
        if contracted != expand(f2, CONTRACTION_ORDER):
            yield "pairwise contraction of the q-fraction disagrees"
        if contracted != expand(fraction_f1(), CONTRACTION_ORDER):
            yield "contracted q-fraction does not recover the J-form"
        vi = fraction_viennot()
        if expand(contract_S_to_J_affine(vi), CONTRACTION_ORDER) != expand(
            vi, CONTRACTION_ORDER
        ):
            yield "affine contraction of the median fraction disagrees"

    run("contraction-named", f"order={CONTRACTION_ORDER}", contraction_named)

    def contraction_random() -> Iterator[str]:
        rng = random.Random(seed)
        for trial in range(RANDOM_INSTANCES):
            values = [rng.randint(1, 5) for _ in range(2 * CONTRACTION_ORDER + 2)]
            spec = SFraction(
                c=lambda k, v=tuple(values): v[k - 1] if k <= len(v) else 0
            )
            reference = expand(spec, CONTRACTION_ORDER)
            if expand(contract_S_to_J(spec), CONTRACTION_ORDER) != reference:
                yield f"pairwise contraction fails on trial {trial}"
            if expand(contract_S_to_J_affine(spec), CONTRACTION_ORDER) != reference:
                yield f"affine contraction fails on trial {trial}"
        _details["contraction-random"] = f"{RANDOM_INSTANCES} instances, seed={seed}"

    run("contraction-random", f"order={CONTRACTION_ORDER}", contraction_random)

    report.checks.sort(key=lambda c: c.name)
    return report
