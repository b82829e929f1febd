"""Median Genocchi numbers, their q-analogues, and cross-verification of
every independent route the literature provides for them: the Seidel
triangle, Dellac configurations, admissible subset sequences, permutation
and triangle-pair oracles, Motzkin path sums, continued fractions, and the
Han-Zeng recurrence.  All arithmetic is exact.

Public names load on first use: `genocchi.X`, `from genocchi import X` and
`from genocchi import *` import the home module of each name asked for and
bind the value here, so `import genocchi` loads none of the routes.
"""

from importlib import import_module

__version__ = "1.0.0"

# each public name and the module it lives in
_HOMES = {
    "AdmissibleSequence": "admissible",
    "AffineSFraction": "contfrac",
    "CheckReport": "report",
    "CheckResult": "report",
    "DellacConfig": "dellac",
    "GammaGraph": "admissible",
    "IntPoly": "exactalg",
    "InexactDivisionError": "errors",
    "InternalInconsistencyError": "errors",
    "JFraction": "contfrac",
    "MotzkinPath": "motzkin",
    "PowerSeries": "exactalg",
    "ResourceLimitError": "errors",
    "SFraction": "contfrac",
    "contract_S_to_J": "contfrac",
    "contract_S_to_J_affine": "contfrac",
    "count_closed_column_graded": "admissible",
    "count_dumont": "oracles",
    "count_triangle_pairs": "oracles",
    "crosscheck": "verify",
    "dellac_length": "dellac",
    "expand": "contfrac",
    "h_motzkin_rational": "motzkin",
    "h_poly_dellac": "dellac",
    "h_poly_fermionic": "motzkin",
    "h_poly_laurent": "motzkin",
    "h_sequence": "seidel",
    "hanzeng_barc": "hanzeng",
    "iter_admissible": "admissible",
    "iter_dellac": "dellac",
    "iter_motzkin": "motzkin",
    "poly_reverse": "exactalg",
    "q_binomial": "exactalg",
    "seidel_columns": "seidel",
    "tilde_h": "motzkin",
    "weighted_path_sum": "motzkin",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
