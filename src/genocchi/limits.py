"""Enumeration size caps.

Each combinatorial model has a default bound chosen so that enumeration
stays in desk-scale time.  The environment variable GENOCCHI_MAX_N, when
set, replaces the default for the configurable models (dellac, admissible,
motzkin).  The brute-force oracle bounds are fixed, and so is the largest
n of the cross-check matrix, which the CLI reads for its default without
loading the matrix.
"""

from __future__ import annotations

import os
import sys

from .errors import ResourceLimitError

ENV_VAR = "GENOCCHI_MAX_N"

DEFAULT_CAPS = {
    "dellac": 8,
    "admissible": 8,
    "motzkin": 14,
}

CROSSCHECK_MAX_N = 8


def cap_for(model: str) -> int:
    env = os.environ.get(ENV_VAR)
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError(f"{ENV_VAR} must be a nonnegative integer, got {env!r}")
        try:
            return int(env)
        except ValueError:  # more digits than int() reads; too long to echo
            digits = sys.get_int_max_str_digits()
            raise ValueError(f"{ENV_VAR} must be a nonnegative integer of at most {digits} digits") from None
    return DEFAULT_CAPS[model]


def check_cap(model: str, n: int) -> None:
    """Raise ResourceLimitError if n exceeds the configured cap for model."""
    cap = cap_for(model)
    if n > cap:
        raise ResourceLimitError(f"{model} enumeration capped at n={cap}, got n={n}")
