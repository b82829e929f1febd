"""The seeded random trials of verify's contraction-random check: their
numerators drawn from the seed, and the int lanes that expand every trial
in one path sweep.  Only verify loads this module.
"""

import random
from itertools import islice, repeat
from operator import add, mul


class Lanes(tuple):
    """Ints side by side, one lane per random trial, added and multiplied
    lane by lane; a plain int factor is the same value in every lane, and
    the lanes are false only when all are 0.  That is all contfrac.path_sums
    asks of a coefficient, so one expansion serves every trial."""

    __slots__ = ()

    def __add__(self, other):
        return Lanes(map(add, self, other))

    def __mul__(self, other):
        if type(other) is int:
            return Lanes([a * other for a in self])
        return Lanes(map(mul, self, other))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self)


def lane(values: list, trial: int) -> list[int]:
    """One trial's coefficients from a list of lanes and plain ints."""
    return [v[trial] if type(v) is Lanes else v for v in values]


def random_draws(seed: int, size: int) -> list[int]:
    """The first size values randint(1, 5) gives from random.Random(seed),
    drawn as it draws them, with no Python frame per value: 3 random bits,
    drawn again while they read 5 or more."""
    bits = map(random.Random(seed).getrandbits, repeat(3))
    return [r + 1 for r in islice(filter((5).__gt__, bits), size)]
