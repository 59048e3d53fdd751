"""Analysis extensions: tree diagnostics and LP-theory validation.

* :mod:`repro.analysis.tree_stats` — structural statistics (depths, load
  balance, energy bottlenecks) and side-by-side tree comparison.
* :mod:`repro.analysis.theory` — checkable versions of the paper's extreme-
  point structure claims (laminar tight families, integrality), asserted on
  real solver output by the test suite.
* :mod:`repro.analysis.profiling` — wall-clock algorithm scaling studies.
* :mod:`repro.analysis.stability` — structural churn of tree choices under
  estimation resampling.
"""

from repro.analysis.profiling import ScalingRow, ScalingStudy, scaling_study
from repro.analysis.stability import StabilityReport, estimation_stability, tree_distance
from repro.analysis.theory import (
    check_extreme_point_structure,
    is_laminar,
    tight_subtour_sets,
)
from repro.analysis.tree_stats import TreeStatistics, compare_trees, load_gini

__all__ = [
    "ScalingRow",
    "ScalingStudy",
    "StabilityReport",
    "TreeStatistics",
    "check_extreme_point_structure",
    "compare_trees",
    "estimation_stability",
    "is_laminar",
    "load_gini",
    "scaling_study",
    "tight_subtour_sets",
    "tree_distance",
]
