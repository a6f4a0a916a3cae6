"""Numerical diagnostics for central limit theorems of random sums.

Condition functionals (Lyapunov, Lindeberg, Feller, infinitesimality, and the
normal-comparison tail functional) with their index-randomized counterparts,
seeded Monte Carlo simulation of normalized random sums, and approximation-
rate audits against the index-averaged bound shapes.
"""

from .conditions import (
    Condition,
    ConditionReport,
    ImplicationAudit,
    feller,
    implication_audit,
    infinitesimality,
    lindeberg,
    lyapunov,
    random_feller,
    random_lindeberg,
    random_rotar,
    rotar,
)
from .families import (
    BUILTIN_FAMILY_KINDS,
    SummandFamily,
    make_family,
    parse_family,
)
from .indices import (
    BUILTIN_INDEX_KINDS,
    Deterministic,
    RandomIndexModel,
    ShiftedGeometric,
    ShiftedPoisson,
    UniformIndex,
    WeightedExpectation,
    make_index,
)
from .montecarlo import (
    EmpiricalSample,
    KolmogorovEstimate,
    cf_identity_check,
    kolmogorov_distance,
    simulate,
)
from .rates import (
    BUILTIN_TEST_FUNCTIONS,
    RateCurve,
    SmallOCurve,
    TestFunction,
    large_o_audit,
    make_test_function,
    small_o_audit,
    smooth_metric,
)

__version__ = "0.1.0"
