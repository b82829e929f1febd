"""Continued-fraction specifications, truncated series expansion, and the
two contraction transforms between Stieltjes and Jacobi forms.

A J-fraction has levels 1/(1 - gamma_k s - lambda_{k+1} s^2 * next); an
S-fraction has levels 1/(1 - c_k s * next) under a constant head c_0; the
affine form adds a constant plus a linear-headed J-style tail.

Expansion is a path sum (Flajolet, Combinatorial aspects of continued
fractions, 1980): a J-fraction's s^n coefficient sums weighted Motzkin paths
of length n, an S-fraction's sums weighted Dyck paths of length 2n, both in
one sweep of path_sums over the fraction's own level weights.  The
truncation order alone fixes which levels are evaluated; there is no
separate depth.  Heads default to the int 1, so an integer fraction's
coefficients stay ints until PowerSeries holds them.  The Motzkin path sums
of motzkin.py are J-fractions expanded here.

Four named fractions are provided: the two q-fractions generating the
reversed polynomials, the integer fraction generating h(n), and the
classical fraction generating the median numbers.  The JSON spec files of
series custom are read by specfile.py, which only that command loads.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from .exactalg import Factors, IntPoly, PowerSeries

# path_sums takes either kind, and PowerSeries makes every result an IntPoly
Coeff = Union[int, IntPoly]
CoeffGen = Callable[[int], Coeff]


class JFraction(NamedTuple):
    """gamma(k) for k >= 0 and lam(k) for k >= 1; lam(k) is the product
    weight entering at depth k (it first touches the s^(2k) coefficient)."""

    gamma: CoeffGen
    lam: CoeffGen
    head: Coeff = 1


class SFraction(NamedTuple):
    """Head constant c0 and partial numerators c(k) for k >= 1."""

    c: CoeffGen
    c0: Coeff = 1


class AffineSFraction(NamedTuple):
    """head + linear * s / (1 - gamma(1) s - lam(1) s^2 / (1 - ...))."""

    head: Coeff
    linear: Coeff
    gamma: CoeffGen
    lam: CoeffGen


CFSpec = Union[JFraction, SFraction, AffineSFraction]


def path_sums(order: int, gamma: CoeffGen, lam: CoeffGen) -> list:
    """Sums of path weights for every length 0..order, in one transfer-matrix
    sweep over a height-indexed list: entry n is the s^n coefficient of the
    J-fraction (gamma, lam), the sum over all length-n Motzkin paths where a
    flat step at height m weighs gamma(m), a rise nothing and the fall back
    to m lam(m + 1): each rise-fall pair is paid when it closes.

    After k steps heights are capped at order - k, since a higher path
    cannot return to 0 by step order.  gamma and lam are each asked at most
    once per height, when a path first reaches it.  Steps of zero weight,
    rises to a height whose fall weighs zero, and heights of zero total are
    skipped, so a length with no path of nonzero weight sums to the int 0.
    Works for any exact coefficient kind closed under + and * (int, IntPoly,
    and verify's _Lanes); the int 1 seeds the empty product, and a rise
    multiplies nothing.
    """
    if order < 0:
        raise ValueError("path length must be nonnegative")
    flat: list = []  # flat[h]: gamma(h)
    fall: list = [0]  # fall[h]: lam(h), the fall from h; asked before the first rise to h
    level: list = [1]  # level[h]: the total of the paths that end at height h
    sums: list = [1]
    for k in range(order):
        top = order - k - 1
        peak = len(level) - 1
        if peak == len(flat):  # a path reaches this height for the first time
            flat.append(gamma(peak) if peak <= top else 0)
            fall.append(lam(peak + 1) if peak < top else 0)
        nxt = [0] * min(peak + 2, top + 1)
        for h, acc in enumerate(level):
            if not acc:
                continue
            w = fall[h]
            if w:  # the weight on the left: IntPoly's product skips that side's zeros
                term = w * acc
                below = nxt[h - 1]
                nxt[h - 1] = below + term if below else term
            if h <= top:
                w = flat[h]
                if w:
                    term = w * acc
                    here = nxt[h]
                    nxt[h] = here + term if here else term
                if h < top and fall[h + 1]:
                    nxt[h + 1] = acc  # the first term to reach h + 1
        while nxt and not nxt[-1]:
            nxt.pop()
        level = nxt
        sums.append(nxt[0] if nxt else 0)
    return sums


def expand(spec: CFSpec, order: int) -> PowerSeries:
    """Truncated series of the fraction through s^order, as path sums.

    A J-fraction's s^n coefficient is the weighted Motzkin path sum of
    length n; an S-fraction's is the weighted Dyck path sum of length 2n,
    each fall to height m weighing c(m + 1).  One sweep of path_sums yields
    every coefficient through the order, and only levels a path of that
    length can reach are evaluated.
    """
    return PowerSeries(order, coefficients(spec, order))


def coefficients(spec: CFSpec, order: int) -> list:
    """The s^0..s^order coefficients of expand, before PowerSeries holds
    them: in whatever ring the spec's weights lie, with an int for a
    coefficient that no weight reaches."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if isinstance(spec, JFraction):
        return [spec.head * v for v in path_sums(order, spec.gamma, spec.lam)]
    if isinstance(spec, SFraction):
        # a Dyck path: no flat step, and the fall to m weighs c(m + 1)
        return [spec.c0 * v for v in path_sums(2 * order, lambda m: 0, spec.c)[::2]]
    if isinstance(spec, AffineSFraction):
        # the tail's outermost level holds gamma(1), with lam(1) s^2 below it
        tail = path_sums(order - 1, lambda k: spec.gamma(k + 1), spec.lam) if order else []
        return [spec.head] + [spec.linear * v for v in tail]
    raise TypeError(f"not a continued-fraction spec: {spec!r}")


def contract_S_to_J(spec: SFraction) -> JFraction:
    """Pairwise contraction: gamma_0 = c1, gamma_k = c_{2k} + c_{2k+1},
    lambda_k = c_{2k-1} c_{2k}.  Expansions agree to every order."""
    c = spec.c

    def gamma(k: int) -> IntPoly:
        return c(1) if k == 0 else c(2 * k) + c(2 * k + 1)

    def lam(k: int) -> IntPoly:
        return c(2 * k - 1) * c(2 * k)

    return JFraction(gamma=gamma, lam=lam, head=spec.c0)


def contract_S_to_J_affine(spec: SFraction) -> AffineSFraction:
    """Off-diagonal contraction: head c0, linear c0*c1, then
    gamma'_k = c_{2k-1} + c_{2k} and lambda'_k = c_{2k} c_{2k+1}."""
    c = spec.c

    def gamma(k: int) -> IntPoly:
        return c(2 * k - 1) + c(2 * k)

    def lam(k: int) -> IntPoly:
        return c(2 * k) * c(2 * k + 1)

    return AffineSFraction(head=spec.c0, linear=spec.c0 * c(1), gamma=gamma, lam=lam)


# ---------------------------------------------------------------------------
# the named fractions
# ---------------------------------------------------------------------------


def fraction_f1() -> JFraction:
    """J-fraction generating the reversed polynomials: gamma_k is the squared
    q-integer [k+1], lambda_k is q times the squared Gaussian (k+1 choose 2),
    [k+1 choose 2] = (1 - q^(k+1)) (1 - q^k) / ((1 - q) (1 - q^2))."""

    def gamma(k: int) -> Factors:
        return Factors(0, (k + 1, k + 1), (1, 1))

    def lam(k: int) -> Factors:
        return Factors(1, (k + 1, k, k + 1, k), (1, 2, 1, 2))

    return JFraction(gamma=gamma, lam=lam)


def fraction_f2() -> SFraction:
    """S-fraction equivalent of fraction_f1: the Gaussian (m+1 choose 2)
    enters twice, bare at depth 2m - 1 and times q at depth 2m."""

    def c(k: int) -> Factors:
        m = (k + 1) // 2
        return Factors(1 - k % 2, (m + 1, m), (1, 2))

    return SFraction(c=c)


def fraction_hn() -> SFraction:
    """Integer S-fraction generating h(n): numerators 1,1,3,3,6,6,10,10,...
    (each triangular number twice)."""

    def c(k: int) -> int:
        m = (k + 1) // 2
        return m * (m + 1) // 2

    return SFraction(c=c)


def fraction_viennot() -> SFraction:
    """Integer S-fraction generating the median numbers: numerators
    1,1,4,4,9,9,... (each square twice)."""

    def c(k: int) -> int:
        m = (k + 1) // 2
        return m * m

    return SFraction(c=c)


NAMED_FRACTIONS: dict[str, Callable[[], CFSpec]] = {
    "f1": fraction_f1,
    "f2": fraction_f2,
    "hn": fraction_hn,
    "viennot": fraction_viennot,
}


def __getattr__(name: str):
    # spec_from_dict lives with the spec file reader, which only series
    # custom loads; perfbench/test_perfbench.py imports it from here
    if name != "spec_from_dict":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .specfile import spec_from_dict

    return spec_from_dict
