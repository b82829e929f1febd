"""Cross-check orchestrator.

Runs every independent route to h(n), h_n(q), the reversed polynomials and
the generating-function identities as one table of rows (name, range,
detail on a pass, generator of problems); one loop turns each row into a
pass/fail/skipped line.  Failures are reported, never raised; the CLI turns
a nonzero failure count into a nonzero exit status.

Each identity compares two code paths that share no route-specific code
(_disagreements, the n-by-n comparison of two routes, motzkin.path_sums,
IntPoly arithmetic, walk.layered_walk under the three walks and the Dumont
oracle, and walk.layered_sweep under the Dellac, fermionic, closed-subset
and triangle-pair sweeps are shared substrate):
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
                    each walked object validated through OBJECTS_MAX_N, an
                    admissible one also as a closed set of the grid digraph;
                    beyond it the Dellac and admissible walks are counted
                    by their blocks (walk.layered_blocks), each prefix by
                    the length of its shared list of tails
"""

from __future__ import annotations

import random
from functools import cache, partial
from typing import Iterable, Iterator, NamedTuple

from . import limits
from .admissible import AdmissibleSequence, GammaGraph, count_closed_column_graded
from .admissible import is_closed_in_gamma, iter_admissible
from .admissible import layers as admissible_layers
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
from .dellac import layers as dellac_layers
from .errors import ResourceLimitError
from .hanzeng import hanzeng_barc
from .limits import CROSSCHECK_MAX_N
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
from .walk import layered_blocks

CONTRACTION_ORDER = 10
RANDOM_INSTANCES = 100
DIVISIBILITY_MAX_N = 12
# through this n counts-agree also validates every walked object
OBJECTS_MAX_N = 5


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

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [
            f"{c.status.upper():7} {c.name:{width}}  {c.range:12} {c.detail}"
            for c in self.checks
        ]
        lines.append(f"{len(self.checks)} checks, {self.failures} failure(s), seed={self.seed}")
        return "\n".join(lines)


def _disagreements(ns: Iterable[int], lhs, rhs, label: str = "") -> Iterator[str]:
    """One problem for each n in ns where the routes lhs(n) and rhs(n) differ."""
    for n in ns:
        a, b = lhs(n), rhs(n)
        if a != b:
            yield f"{label}n={n}: {a} != {b}"


def crosscheck(n_max: int, seed: int = 0) -> CheckReport:
    """Run the full check matrix through the given bound (1 <= n_max <= 8)."""
    if not 1 <= n_max <= CROSSCHECK_MAX_N:
        raise ValueError(f"n_max must be between 1 and {CROSSCHECK_MAX_N}")
    # a malformed GENOCCHI_MAX_N is bad input, raised here once rather than
    # reported as a failure by every check that reads the cap
    limits.cap_for("dellac")
    ns, n0s = range(1, n_max + 1), range(n_max + 1)
    dumont_ns = range(1, min(n_max, DUMONT_MAX_N) + 1)
    triangle_ns = range(1, min(n_max, TRIANGLE_MAX_N) + 1)
    # one call per n for the values several checks compare with; each lambda
    # reads the module's name when a check first asks, so a patched name is seen
    h = cache(lambda n: normalized_h(n))
    tilde = cache(lambda n: tilde_h(n))
    fermionic = cache(lambda n: h_poly_fermionic(n))

    # (1) every counting model agrees with the triangle
    def counts_agree() -> Iterator[str]:
        ws = integer_weight_system()

        def walked(label: str, walk, layers, build, n: int):
            # yields the walk's problems, returns its count
            items = walk(n)  # checks the argument and the cap
            if n > OBJECTS_MAX_N:
                # each block's tails complete its prefix, one object each
                return sum(len(tails) for _, _, tails in layered_blocks(*layers(n)))
            items = list(items)
            try:
                if len({build(item) for item in items}) < len(items):
                    yield f"{label} n={n}: the walk repeats items"
            except ValueError as exc:
                yield f"{label} n={n}: invalid item: {exc}"
            return len(items)

        def closed_sequence(n: int, graph: GammaGraph, masks: tuple[int, ...]) -> AdmissibleSequence:
            # admissible exactly when {(l, j): j in I_l} is closed in the digraph
            sequence = AdmissibleSequence(n, masks)
            vertices = [(l, j) for l, m in enumerate(masks, 1) for j in range(1, n + 1) if m >> j & 1]
            if not is_closed_in_gamma(vertices, graph):
                raise ValueError(f"vertex set {vertices} is not closed in GammaGraph({n})")
            return sequence

        for n in ns:
            n_dellac = yield from walked("dellac", iter_dellac, dellac_layers, partial(DellacConfig, n), n)
            closed = partial(closed_sequence, n, GammaGraph(n))
            n_admissible = yield from walked("admissible", iter_admissible, admissible_layers, closed, n)
            for label, got in (
                ("dellac", n_dellac),
                ("admissible", n_admissible),
                ("closed-subsets", count_closed_column_graded(n)),
                ("motzkin-rational", h_motzkin_rational(n)),
                ("motzkin-weights", weighted_path_sum(n, ws)),
            ):
                yield from _disagreements((n,), lambda n: got, h, f"{label} ")
            if n <= OBJECTS_MAX_N:
                yield from walked("motzkin", iter_motzkin, None, MotzkinPath, n)

    # (3) the three q-polynomial routes coincide
    def three_way() -> Iterator[str]:
        for n in ns:
            yield from _disagreements((n,), h_poly_dellac, fermionic, "dellac/fermionic ")
            yield from _disagreements((n,), fermionic, h_poly_laurent, "fermionic/laurent ")

    # (4) both named q-fractions generate the reversed polynomials
    def series_check(fraction) -> Iterator[str]:
        yield from _disagreements(n0s, expand(fraction(), n_max).coefficient, tilde)

    # (6) q = 1 chain
    def q1_series() -> Iterator[str]:
        at_one = expand(fraction_f1(), n_max).evaluate_q(1)
        plain = expand(fraction_hn(), n_max).evaluate_q(1)
        yield from _disagreements(n0s, at_one.__getitem__, plain.__getitem__)

    def viennot_doubling() -> Iterator[str]:
        series = expand(fraction_viennot(), n_max).evaluate_q(1)
        median = cache(lambda n: median_genocchi(n))
        yield from _disagreements((0,), series.__getitem__, lambda n: 1)
        for n in ns:
            yield from _disagreements((n,), series.__getitem__, median)
            yield from _disagreements((n,), median, lambda n: h(n - 1) << (n - 1), "doubling ")

    # (7) power-of-two divisibility
    def divisibility() -> Iterator[str]:
        for n in range(1, DIVISIBILITY_MAX_N + 1):
            if median_genocchi(n + 1) % (1 << n):
                yield f"H({2 * n + 1}) not divisible by 2^{n}"

    # (8) contraction transforms on the named fractions and on random instances
    def contraction_named() -> Iterator[str]:
        f2 = fraction_f2()
        contracted = expand(contract_S_to_J(f2), CONTRACTION_ORDER)
        if contracted != expand(f2, CONTRACTION_ORDER):
            yield "pairwise contraction of the q-fraction disagrees"
        if contracted != expand(fraction_f1(), CONTRACTION_ORDER):
            yield "contracted q-fraction does not recover the J-form"
        vi = fraction_viennot()
        if expand(contract_S_to_J_affine(vi), CONTRACTION_ORDER) != expand(vi, CONTRACTION_ORDER):
            yield "affine contraction of the median fraction disagrees"

    def random_trials() -> Iterator[str]:
        rng = random.Random(seed)
        for trial in range(RANDOM_INSTANCES):
            values = [rng.randint(1, 5) for _ in range(2 * CONTRACTION_ORDER + 2)]
            spec = SFraction(c=lambda k, v=tuple(values): v[k - 1] if k <= len(v) else 0)
            reference = expand(spec, CONTRACTION_ORDER)
            if expand(contract_S_to_J(spec), CONTRACTION_ORDER) != reference:
                yield f"pairwise contraction fails on trial {trial}"
            if expand(contract_S_to_J_affine(spec), CONTRACTION_ORDER) != reference:
                yield f"affine contraction fails on trial {trial}"

    try:
        h_values = "h-values: " + ",".join(map(str, map(h, n0s)))
    except Exception:  # counts-agree asks for the same h(n) and reports the error
        h_values = None
    upto, from0, order = f"n=1..{n_max}", f"n=0..{n_max}", f"order={CONTRACTION_ORDER}"
    rows = [
        ("counts-agree", upto, h_values, counts_agree()),
        # (2) brute-force oracles on their own ranges
        ("dumont-oracle", f"n=1..{dumont_ns[-1]}", "ok", _disagreements(dumont_ns, count_dumont, h)),
        (
            "triangle-pairs-oracle",
            f"n=1..{triangle_ns[-1]}",
            "ok",
            _disagreements(triangle_ns, count_triangle_pairs, lambda n: h(n + 1)),
        ),
        ("hq-three-way", upto, "ok", three_way()),
        ("series-f1", from0, "ok", series_check(fraction_f1)),
        ("series-f2", from0, "ok", series_check(fraction_f2)),
        # (5) the normalized recurrence polynomials match the reversed polynomials
        ("hanzeng-reversal", from0, "ok", _disagreements(n0s, lambda n: hanzeng_barc(n + 1), tilde)),
        ("q1-hn-series", from0, "ok", q1_series()),
        ("viennot-doubling", from0, "ok", viennot_doubling()),
        ("divisibility", f"n=1..{DIVISIBILITY_MAX_N}", "ok", divisibility()),
        ("contraction-named", order, "ok", contraction_named()),
        ("contraction-random", order, f"{RANDOM_INSTANCES} instances, seed={seed}", random_trials()),
    ]

    checks = []
    for name, rng_text, detail, problems in rows:
        # problems come one at a time, so a check that raises keeps every
        # problem it found before the exception
        found: list[str] = []
        try:
            found.extend(problems)
        except ResourceLimitError as exc:
            if not found:
                checks.append(CheckResult(name, rng_text, "skipped", str(exc)))
                continue
            found.append(repr(exc))
        except Exception as exc:  # a crashed check is a failed check
            found.append(repr(exc))
        status, detail = ("fail", "; ".join(found)) if found else ("pass", detail)
        checks.append(CheckResult(name, rng_text, status, detail))
    return CheckReport(n_max, seed, tuple(sorted(checks, key=lambda c: c.name)))
