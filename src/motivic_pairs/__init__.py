"""Exact arithmetic for classes of variety pairs.

The core objects are integer polynomials in the affine-line class L,
pairs of them modelling a variety with a marked subvariety, truncated
power series over either, and the symmetric-power zeta operator that
ties them together.  Everything the series side computes is checkable
against brute-force point counts over small prime fields, and the
`suites` module packages those cross-checks.
"""

from .field import is_prime
from .geometry import (
    MarkedP1Scene,
    ProjectivePoint,
    point_in_marked_union,
    vieta_coefficients,
)
from .lefschetz import MotivicPolynomial
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteScene,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    weil_symmetric_counts,
)
from .pairs import PairClass, catalog
from .power import (
    config_series_pair,
    geometric_series,
    kapranov_zeta,
    one_plus,
    power_pow,
)
from .series import TruncatedSeries
from .suites import SUITES, run_suite

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "FiniteScene",
    "MarkedP1Scene",
    "MotivicPolynomial",
    "PairClass",
    "ProjectivePoint",
    "SUITES",
    "TruncatedSeries",
    "catalog",
    "config_series_pair",
    "count_power_configs",
    "count_squarefree_monic",
    "enumerate_projective",
    "geometric_series",
    "is_prime",
    "kapranov_zeta",
    "one_plus",
    "point_in_marked_union",
    "power_pow",
    "run_suite",
    "vieta_coefficients",
    "weil_symmetric_counts",
]
