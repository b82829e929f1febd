"""Median Genocchi numbers, their q-analogues, and cross-verification of
every independent route the literature provides for them: the Seidel
triangle, Dellac configurations, admissible subset sequences, permutation
and triangle-pair oracles, Motzkin path sums, continued fractions, and the
Han-Zeng recurrence.  All arithmetic is exact."""

from .errors import (
    InexactDivisionError,
    InternalInconsistencyError,
    ResourceLimitError,
)
from .exactalg import (
    IntPoly,
    LaurentPoly,
    PowerSeries,
    poly_exact_div,
    poly_reverse,
    q_binomial,
    q_factorial,
    q_int,
)
from .seidel import (
    genocchi_first,
    h_sequence,
    median_genocchi,
    normalized_h,
    seidel_columns,
)
from .dellac import DellacConfig, dellac_length, h_poly_dellac, iter_dellac
from .admissible import (
    AdmissibleSequence,
    GammaGraph,
    count_closed_column_graded,
    is_closed_in_gamma,
    iter_admissible,
)
from .oracles import TrianglePair, count_dumont, count_triangle_pairs
from .motzkin import (
    MotzkinPath,
    WeightSystem,
    h_motzkin_rational,
    h_poly_fermionic,
    h_poly_laurent,
    iter_motzkin,
    tilde_h,
    weighted_path_sum,
)
from .contfrac import (
    AffineSFraction,
    JFraction,
    SFraction,
    contract_S_to_J,
    contract_S_to_J_affine,
    expand,
)
from .hanzeng import hanzeng_C, hanzeng_barc
from .verify import CheckReport, CheckResult, crosscheck

__version__ = "1.0.0"

__all__ = [
    "AdmissibleSequence",
    "AffineSFraction",
    "CheckReport",
    "CheckResult",
    "DellacConfig",
    "GammaGraph",
    "IntPoly",
    "InexactDivisionError",
    "InternalInconsistencyError",
    "JFraction",
    "LaurentPoly",
    "MotzkinPath",
    "PowerSeries",
    "ResourceLimitError",
    "SFraction",
    "TrianglePair",
    "WeightSystem",
    "contract_S_to_J",
    "contract_S_to_J_affine",
    "count_closed_column_graded",
    "count_dumont",
    "count_triangle_pairs",
    "crosscheck",
    "dellac_length",
    "expand",
    "genocchi_first",
    "h_motzkin_rational",
    "h_poly_dellac",
    "h_poly_fermionic",
    "h_poly_laurent",
    "h_sequence",
    "hanzeng_C",
    "hanzeng_barc",
    "is_closed_in_gamma",
    "iter_admissible",
    "iter_dellac",
    "iter_motzkin",
    "median_genocchi",
    "normalized_h",
    "poly_exact_div",
    "poly_reverse",
    "q_binomial",
    "q_factorial",
    "q_int",
    "seidel_columns",
    "tilde_h",
    "weighted_path_sum",
]
