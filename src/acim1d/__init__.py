"""Numerical machinery for detecting absolutely continuous invariant
measures of one-dimensional C^r maps: reparametrization trees,
geometric/hyperbolic times, empirical measures, partition entropy."""

from .branches import (
    BranchPartition, count_branches_with_min_slope, monotone_branches,
)
from .entropy import (
    choose_offset, entropy_formula_residual, gibbs_check, itinerary_entropy,
    misiurewicz_battery, verify_mane_bounds, verify_misiurewicz,
)
from .errors import (
    Acim1dError, ConfigError, EmptySelection, InsufficientAtoms,
    OffsetNotFound, TreeBudgetExceeded, UndefinedNorm, UnresolvedCritical,
)
from .maps import (
    CIRCLE, UNIT_INTERVAL, Domain, MapNorms, SmoothMap1D, critical_set,
    estimate_norms, lyapunov_ft, make_map, orbit_grid, power_map,
)
from .measures import (
    EmpiricalMeasure, SamplePool, build_seed_pool, compare_density,
    density_estimate, empirical_measure, invariance_defect, select_An,
    support_gap_from_critical,
)
from .reparam import (
    BoundednessCertificate, Reparametrization, affine_reparam, check_bounded,
    choose_epsilon,
)
from .times import (
    boundary_set, clip, hyperbolic_surrogate_times, trim, verify_enm,
    verify_hyperbolic,
)
from .tree import ReparamTree, verify_tree

__version__ = "0.1.0"
