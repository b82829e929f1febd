"""Continued-fraction specifications, truncated series expansion, and the
two contraction transforms between Stieltjes and Jacobi forms.

A J-fraction has levels 1/(1 - gamma_k s - lambda_{k+1} s^2 * next); an
S-fraction has levels 1/(1 - c_k s * next) under a constant head c_0; the
affine form adds a constant plus a linear-headed J-style tail.

Expansion is a path sum (Flajolet, Combinatorial aspects of continued
fractions, 1980): a J-fraction's s^n coefficient sums weighted Motzkin paths
of length n, an S-fraction's sums weighted Dyck paths of length 2n, both in
one sweep of pathsums.path_sums.  The truncation order alone fixes which
levels are evaluated; there is no separate depth.  Heads default to the
int 1, so an integer fraction's coefficients stay ints until PowerSeries
holds them.

Four named fractions are provided: the two q-fractions generating the
reversed polynomials, the integer fraction generating h(n), and the
classical fraction generating the median numbers.
"""

from __future__ import annotations

import io
import os
import stat
from typing import Callable, NamedTuple, Union

from .errors import ResourceLimitError
from .exactalg import IntPoly, PowerSeries, q_binomial
from .pathsums import WeightSystem, path_sums

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


def _j_sums(gamma: CoeffGen, lam: CoeffGen, order: int) -> list:
    """Coefficients of 1/(1 - gamma(0) s - lam(1) s^2/(1 - ...)) through
    s^order: Motzkin path sums with flat steps at height m weighing
    gamma(m) and each rise-fall pair from m weighing lam(m + 1)."""
    levels = order // 2 + 1  # no path of length <= order climbs higher
    gammas = [gamma(k) for k in range(levels)]
    lams = [lam(k) for k in range(1, levels + 1)]
    return path_sums(
        order, WeightSystem(alpha=lams.__getitem__, beta=lambda m: 1, gamma=gammas.__getitem__)
    )


def expand(spec: CFSpec, order: int) -> PowerSeries:
    """Truncated series of the fraction through s^order, as path sums.

    A J-fraction's s^n coefficient is the weighted Motzkin path sum of
    length n; an S-fraction's is the weighted Dyck path sum of length 2n,
    each fall to height m weighing c(m + 1).  One sweep of
    pathsums.path_sums yields every coefficient through the order, and only
    levels a path of that length can reach are evaluated.
    """
    return PowerSeries(order, coefficients(spec, order))


def coefficients(spec: CFSpec, order: int) -> list:
    """The s^0..s^order coefficients of expand, before PowerSeries holds
    them: in whatever ring the spec's weights lie, with an int for a
    coefficient that no weight reaches."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if isinstance(spec, JFraction):
        sums = _j_sums(spec.gamma, spec.lam, order)
        return [spec.head * v for v in sums]
    if isinstance(spec, SFraction):
        cs = [spec.c(k) for k in range(1, order + 1)]
        dyck = WeightSystem(alpha=lambda m: 1, beta=cs.__getitem__, gamma=lambda m: 0)
        sums = path_sums(2 * order, dyck)
        return [spec.c0 * v for v in sums[::2]]
    if isinstance(spec, AffineSFraction):
        # the tail's outermost level holds gamma(1), with lam(1) s^2 below it
        tail = _j_sums(lambda k: spec.gamma(k + 1), spec.lam, order - 1) if order else []
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
    q-integer [k+1], lambda_k is q times the squared Gaussian (k+1 choose 2)."""

    def gamma(k: int) -> IntPoly:
        b = q_binomial(k + 1, 1)
        return b * b

    def lam(k: int) -> IntPoly:
        b = q_binomial(k + 1, 2)
        return (b * b).shift(1)

    return JFraction(gamma=gamma, lam=lam)


def fraction_f2() -> SFraction:
    """S-fraction equivalent of fraction_f1: the Gaussian (k+1 choose 2)
    enters twice, bare at odd depths and multiplied by q at even depths."""

    def c(k: int) -> IntPoly:
        b = q_binomial(k // 2 + 1, 2) if k % 2 == 0 else q_binomial((k + 1) // 2 + 1, 2)
        return b.shift(1) if k % 2 == 0 else b

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


# a spec file is read to at most this many bytes, so a device or a huge file
# cannot exhaust memory; a few hundred coefficients of the 4300 digits an
# int may print fit, against the 65 a spec can use at the CLI's order cap
SPEC_MAX_BYTES = 1 << 20

_SPEC_KEYS = {"preset": {"preset"}, "J": {"kind", "gamma", "lambda"}, "S": {"kind", "c0", "c"}}


def _int_list(data: dict, key: str) -> list[int]:
    values = data.get(key, [])
    if type(values) is not list or any(type(v) is not int for v in values):
        raise ValueError(f"spec field {key!r} must be a list of integers")
    return values


def spec_from_dict(data: dict) -> CFSpec:
    """Build a spec from a parsed description.

    Accepts {"preset": name}, {"kind": "J", "gamma": [...], "lambda": [...]}
    or {"kind": "S", "c0": int, "c": [...]}.  Listed coefficients are integers
    indexed from the fraction's first depth; depths beyond the list are zero,
    which terminates the fraction.  Any other key, and any value that is not
    a plain int (bools, floats and strings included), raises ValueError.
    """
    if type(data) is not dict:
        raise ValueError("spec must be a JSON object")
    kind = "preset" if "preset" in data else data.get("kind")
    if type(kind) is not str or kind not in _SPEC_KEYS:
        raise ValueError("spec must contain 'preset' or kind 'J'/'S'")
    unknown = set(data) - _SPEC_KEYS[kind]
    if unknown:
        raise ValueError(f"unknown spec keys {sorted(unknown)}")
    if kind == "preset":
        name = data["preset"]
        if type(name) is not str or name not in NAMED_FRACTIONS:
            raise ValueError(f"unknown preset {name!r}")
        return NAMED_FRACTIONS[name]()
    if kind == "J":
        gammas = _int_list(data, "gamma")
        lams = _int_list(data, "lambda")
        return JFraction(
            gamma=lambda k: gammas[k] if k < len(gammas) else 0,
            lam=lambda k: lams[k - 1] if 1 <= k <= len(lams) else 0,
        )
    cs = _int_list(data, "c")
    c0 = data.get("c0", 1)
    if type(c0) is not int:
        raise ValueError("spec field 'c0' must be an integer")
    return SFraction(
        c=lambda k: cs[k - 1] if 1 <= k <= len(cs) else 0,
        c0=c0,
    )


def read_spec(path: str, digits: int) -> CFSpec:
    """The spec in the JSON file at path, through spec_from_dict.

    The file must be a regular file, opened without blocking so that a FIFO
    with no writer is refused rather than waited on, and is read to at most
    SPEC_MAX_BYTES.  An integer literal of more than digits digits (0: no
    bound) is refused before int() reads it.  Raises OSError when the file
    cannot be opened, ValueError naming the path for a bad file or spec, and
    ResourceLimitError for a bound passed.
    """
    import json

    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ValueError(f"{path}: not a regular file")
        with open(fd, "rb", closefd=False) as fh:
            data = fh.read(SPEC_MAX_BYTES + 1)
    finally:
        os.close(fd)
    if len(data) > SPEC_MAX_BYTES:
        raise ResourceLimitError(f"{path}: spec files are capped at {SPEC_MAX_BYTES} bytes")

    def parse_int(literal: str) -> int:
        if digits and len(literal) - literal.startswith("-") > digits:
            raise ResourceLimitError(f"{path}: an integer has more than {digits} digits")
        return int(literal)

    try:
        # decoded as a text-mode read of the file decodes it
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        return spec_from_dict(json.loads(text, parse_int=parse_int))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # malformed JSON or UTF-8, or a field of the wrong kind
        raise ValueError(f"{path}: {exc}") from None
