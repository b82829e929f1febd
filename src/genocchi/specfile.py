"""The JSON spec files of series custom: a continued fraction described by
its listed integer levels, or a named one.

Only series custom loads this module, and json with it; contfrac.py finds
spec_from_dict here on first use.  A spec file is refused, with one line
naming the file, when it is not a regular file, passes its byte bound,
holds an integer literal past the interpreter's digit limit, is not JSON,
repeats a key in any object, or describes no spec.
"""

from __future__ import annotations

import io
import os
import stat

from .contfrac import NAMED_FRACTIONS, CFSpec, JFraction, SFraction
from .errors import ResourceLimitError

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


def _unique_keys(pairs: list) -> dict:
    """One JSON object's members as a dict, refusing a key given twice,
    which json.loads would otherwise settle by keeping the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"spec key {key!r} appears more than once")
        data[key] = value
    return data


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
    bound) is refused before int() reads it, and a key repeated in any
    object of the file is refused.  Raises OSError when the file cannot be
    opened, ValueError naming the path for a bad file or spec, and
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
        return spec_from_dict(json.loads(text, parse_int=parse_int, object_pairs_hook=_unique_keys))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # malformed JSON or UTF-8, a repeated key, or a field of the wrong kind
        raise ValueError(f"{path}: {exc}") from None
