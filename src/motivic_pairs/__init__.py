"""Exact arithmetic for classes of variety pairs.

The core objects are integer polynomials in the affine-line class L,
pairs of them modelling a variety with a marked subvariety, truncated
power series over either, and the symmetric-power zeta operator that
ties them together.  Everything the series side computes is checkable
against brute-force point counts over small prime fields, and the
`suites` module packages those cross-checks.
"""

from .field import PrimeField, is_prime
from .geometry import (
    INFINITY,
    MarkedP1Scene,
    ProjectivePoint,
    hyperplane_union_class,
    point_in_marked_union,
    sym_pair_p1_direct,
    sym_pair_p1_lambda,
    vieta_coefficients,
)
from .lefschetz import MotivicPolynomial
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteScene,
    count_marked_union,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    weil_symmetric_counts,
)
from .pairs import PairClass, catalog
from .power import (
    LEFSCHETZ_RING,
    PAIR_RING,
    LambdaRing,
    config_series,
    config_series_pair,
    kapranov_zeta,
    power_pow,
    verify_identities,
    verify_power_axioms,
)
from .series import TruncatedSeries
from .suites import SUITES, catalog_samples, run_suite

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "FiniteScene",
    "INFINITY",
    "LEFSCHETZ_RING",
    "LambdaRing",
    "MarkedP1Scene",
    "MotivicPolynomial",
    "PAIR_RING",
    "PairClass",
    "PrimeField",
    "ProjectivePoint",
    "SUITES",
    "TruncatedSeries",
    "catalog",
    "catalog_samples",
    "config_series",
    "config_series_pair",
    "count_marked_union",
    "count_power_configs",
    "count_squarefree_monic",
    "enumerate_projective",
    "hyperplane_union_class",
    "is_prime",
    "kapranov_zeta",
    "point_in_marked_union",
    "power_pow",
    "run_suite",
    "sym_pair_p1_direct",
    "sym_pair_p1_lambda",
    "verify_identities",
    "verify_power_axioms",
    "vieta_coefficients",
    "weil_symmetric_counts",
]
