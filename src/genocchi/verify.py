"""Cross-check orchestrator.

Runs every independent route to h(n), h_n(q), the reversed polynomials and
the generating-function identities as one table of rows (name, range,
detail on a pass, generator of problems); one loop turns each row into a
pass/fail/skipped line.  Failures are reported, never raised; the CLI turns
a nonzero failure count into a nonzero exit status.  The report and its
renderings live in report.py, and the lanes and draws of the seeded random
trials in lanes.py.

Each piece of route work runs once per call: one fermionic sweep to n_max
(motzkin.fermionic_sequence, read at every level for h_n(q), which the
series and Han-Zeng checks read reversed), one expansion
per named fraction at CONTRACTION_ORDER, which the series, q = 1 and
contraction checks all read, one Seidel sweep each for the shared h, for
viennot-doubling's medians and for divisibility, and the closure of each
walked admissible sequence checked per column, from the arrow heads of
each (column, mask) the walk meets, read once.

Each identity compares two code paths that share no route-specific code
(_disagreements, the n-by-n comparison of two routes, contfrac.path_sums
and the J-branch of contfrac.coefficients, IntPoly arithmetic,
exactalg.q_binomial under the fermionic sweep, exactalg.over_factors
under the f1/f2 and Laurent weights and the Han-Zeng steps,
walk.layered_walk under the three walks, walk.layered_levels (whose last
level is walk.layered_sweep) under the Dellac, fermionic, closed-subset,
Dumont and triangle-pair sweeps, and
GammaGraph.heads under the closed-subset sweep and the closure check of
walked sequences are shared substrate):
  series-f1/f2      J-fraction Motzkin walk / S-fraction Dyck walk in the
                    path sweep vs the fermionic pair-state sweep, reversed
  contraction-*     Dyck walk of an S-fraction vs Motzkin walk of its
                    contraction (S-fractions never expand via contract_S_to_J);
                    the random instances expand together, one int lane each
  q1-hn-series      Motzkin walk of f1 at q=1 vs Dyck walk of the integer hn
  viennot-doubling  Dyck walk vs the Seidel triangle
  hanzeng-reversal  the Han-Zeng recurrence at the q-integers, in running
                    sums with two exactness checks, vs the fermionic
                    pair-state sweep, reversed
  hq-three-way      Dellac used-row transfer sweep (h_poly_dellac) vs fermionic
                    pair-state sweep (one sweep, read at each n) vs f1's
                    path sweep at 1/q, each step's weight times q^(n-1)
  counts-agree      the Dellac, admissible and Motzkin walks, the closed-subset
                    transfer sweep and the integer-weight sweep vs Seidel,
                    each walked object validated through OBJECTS_MAX_N, an
                    admissible one also as a closed set of the grid digraph,
                    each column holding the heads of the one before;
                    beyond it the Dellac and admissible walks are counted
                    by their blocks (walk.layered_blocks) at each model's
                    split, each state's tails once, by the lengths of
                    their lists of rests
"""

from __future__ import annotations

from functools import cache, partial
from typing import Iterable, Iterator

from . import limits
from .admissible import AdmissibleSequence, GammaGraph, count_closed_column_graded, iter_admissible
from .admissible import SHARED_LEVELS as ADMISSIBLE_SHARED, layers as admissible_layers
from .contfrac import (
    SFraction,
    coefficients,
    contract_S_to_J,
    contract_S_to_J_affine,
    expand,
    fraction_f1,
    fraction_f2,
    fraction_hn,
    fraction_viennot,
)
from .dellac import DellacConfig, h_poly_dellac, iter_dellac
from .dellac import SHARED_LEVELS as DELLAC_SHARED, layers as dellac_layers
from .errors import ResourceLimitError
from .exactalg import poly_reverse
from .hanzeng import hanzeng_sequence
from .lanes import Lanes, lane, random_draws
from .limits import CROSSCHECK_MAX_N
from .motzkin import (
    MotzkinPath,
    fermionic_sequence,
    h_motzkin_rational,
    h_poly_laurent,
    integer_weight_system,
    iter_motzkin,
    weighted_path_sum,
)
from .oracles import DUMONT_MAX_N, TRIANGLE_MAX_N, count_dumont, count_triangle_pairs
from .report import CheckReport, CheckResult
from .seidel import h_sequence, median_sequence
from .walk import layered_blocks

# the order of the contraction checks and of each q-fraction's and the median
# fraction's one expansion: at least CROSSCHECK_MAX_N, so that the series
# checks read that expansion through n_max
CONTRACTION_ORDER = 10
RANDOM_INSTANCES = 100
DIVISIBILITY_MAX_N = 12
# through this n counts-agree also validates every walked object
OBJECTS_MAX_N = 5


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
    # the values several checks compare with: one sweep for h(0..n_max+1),
    # one call per n for the rest; each lambda reads the module's name when a
    # check first asks, so a patched name is seen, and a Seidel fault fails
    # every check that reads h
    h_terms = cache(lambda: tuple(h_sequence(n_max + 2)))

    def h(n: int) -> int:
        return h_terms()[n]

    # h_n(q) for n = 0..n_max from one fermionic sweep, and each reversed
    hq_terms = cache(lambda: tuple(fermionic_sequence(n_max)))

    def fermionic(n: int):
        return hq_terms()[n]

    tilde = cache(lambda n: poly_reverse(fermionic(n), n * (n - 1) // 2))
    # one expansion per fraction, read by every check that compares with it
    f1 = cache(lambda: expand(fraction_f1(), CONTRACTION_ORDER))
    f2 = cache(lambda: expand(fraction_f2(), CONTRACTION_ORDER))
    viennot = cache(lambda: expand(fraction_viennot(), CONTRACTION_ORDER))
    barcs = cache(lambda: hanzeng_sequence(n_max + 1))  # hanzeng_barc(1..n_max+1), one table

    # (1) every counting model agrees with the triangle
    def counts_agree() -> Iterator[str]:
        ws = integer_weight_system()

        def walked(label: str, walk, layers, shared, build, n: int):
            # yields the walk's problems, returns its count
            items = walk(n)  # checks the argument and the cap
            if n > OBJECTS_MAX_N:
                # each block's tails complete its prefix, one object each
                total, sizes = 0, {}
                for _, state, tails in layered_blocks(*layers(n), shared):
                    if state not in sizes:
                        sizes[state] = sum(len(rests) for _, _, rests in tails)
                    total += sizes[state]
                return total
            items = list(items)
            try:
                if len({build(item) for item in items}) < len(items):
                    yield f"{label} n={n}: the walk repeats items"
            except ValueError as exc:
                yield f"{label} n={n}: invalid item: {exc}"
            return len(items)

        def closed_sequence(n: int, heads, masks: tuple[int, ...]) -> AdmissibleSequence:
            # admissible exactly when {(l, j): j in I_l} is closed in the
            # digraph: each I_{l+1} holds the heads of the arrows leaving I_l
            sequence = AdmissibleSequence(n, masks)
            if any(heads(l, m) & ~after for l, (m, after) in enumerate(zip(masks, masks[1:] + (0,)), 1)):
                vertices = [(l, j) for l, m in enumerate(masks, 1) for j in range(1, n + 1) if m >> j & 1]
                raise ValueError(f"vertex set {vertices} is not closed in GammaGraph({n})")
            return sequence

        for n in ns:
            dellac = partial(DellacConfig, n)
            n_dellac = yield from walked("dellac", iter_dellac, dellac_layers, DELLAC_SHARED, dellac, n)
            # each column's heads are read once per mask the walk meets
            closed = partial(closed_sequence, n, cache(GammaGraph(n).heads))
            n_admissible = yield from walked(
                "admissible", iter_admissible, admissible_layers, ADMISSIBLE_SHARED, closed, n
            )
            for label, got in (
                ("dellac", n_dellac),
                ("admissible", n_admissible),
                ("closed-subsets", count_closed_column_graded(n)),
                ("motzkin-rational", h_motzkin_rational(n)),
                ("motzkin-weights", weighted_path_sum(n, ws)),
            ):
                yield from _disagreements((n,), lambda n: got, h, f"{label} ")
            if n <= OBJECTS_MAX_N:
                yield from walked("motzkin", iter_motzkin, None, None, MotzkinPath, n)

    # (3) the three q-polynomial routes coincide
    def three_way() -> Iterator[str]:
        for n in ns:
            yield from _disagreements((n,), h_poly_dellac, fermionic, "dellac/fermionic ")
            yield from _disagreements((n,), fermionic, h_poly_laurent, "fermionic/laurent ")

    # (4) both named q-fractions generate the reversed polynomials
    def series_check(series) -> Iterator[str]:
        yield from _disagreements(n0s, series().coeffs.__getitem__, tilde)

    # (6) q = 1 chain
    def q1_series() -> Iterator[str]:
        at_one = [c(1) for c in f1().coeffs]
        plain = [c(1) for c in expand(fraction_hn(), n_max).coeffs]
        yield from _disagreements(n0s, at_one.__getitem__, plain.__getitem__)

    def viennot_doubling() -> Iterator[str]:
        series = [c(1) for c in viennot().coeffs]
        yield from _disagreements((0,), series.__getitem__, lambda n: 1)
        median = dict(enumerate(median_sequence(n_max), 1)).__getitem__  # n -> H(2n - 1), one sweep
        for n in ns:
            yield from _disagreements((n,), series.__getitem__, median)
            yield from _disagreements((n,), median, lambda n: h(n - 1) << (n - 1), "doubling ")

    # (7) power-of-two divisibility
    def divisibility() -> Iterator[str]:
        for n, big in enumerate(median_sequence(DIVISIBILITY_MAX_N + 1)):
            if big % (1 << n):
                yield f"H({2 * n + 1}) not divisible by 2^{n}"

    # (8) contraction transforms on the named fractions and on random instances
    def contraction_named() -> Iterator[str]:
        contracted = expand(contract_S_to_J(fraction_f2()), CONTRACTION_ORDER)
        if contracted != f2():
            yield "pairwise contraction of the q-fraction disagrees"
        if contracted != f1():
            yield "contracted q-fraction does not recover the J-form"
        if expand(contract_S_to_J_affine(fraction_viennot()), CONTRACTION_ORDER) != viennot():
            yield "affine contraction of the median fraction disagrees"

    def random_trials() -> Iterator[str]:
        # each trial's numerators, drawn trial after trial, then expanded
        # together: one lane per trial
        width = 2 * CONTRACTION_ORDER + 2
        draws = random_draws(seed, RANDOM_INSTANCES * width)
        cs = [Lanes(draws[k::width]) for k in range(width)]
        spec = SFraction(c=lambda k: cs[k - 1] if k <= len(cs) else 0)
        reference, pairwise, affine = (
            coefficients(s, CONTRACTION_ORDER) for s in (spec, contract_S_to_J(spec), contract_S_to_J_affine(spec))
        )
        for trial in range(RANDOM_INSTANCES):
            expected = lane(reference, trial)
            if lane(pairwise, trial) != expected:
                yield f"pairwise contraction fails on trial {trial}"
            if lane(affine, trial) != expected:
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
        ("series-f1", from0, "ok", series_check(f1)),
        ("series-f2", from0, "ok", series_check(f2)),
        # (5) the normalized recurrence polynomials match the reversed polynomials
        ("hanzeng-reversal", from0, "ok", _disagreements(n0s, lambda n: next(barcs()), tilde)),
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
