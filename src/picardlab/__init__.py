"""Numerical laboratory for randomized derivative wave equations.

Periodic spectral fields, unit-scale sign randomization of initial data,
Picard iterates of the derivative-squared wave equation, their exact
binary-tree expansion, and the moment/tail combinatorics that control them.
"""

from .grid import (
    Field,
    Grid,
    load_field,
    lp_norm,
    make_grid,
    save_field,
    sobolev_norm,
    transform,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    interval_scaling_study,
    load_config,
    run_experiment,
    tail_study,
)
from .moments import (
    CoefficientVector,
    MomentBound,
    PartitionClass,
    bell_number,
    decoupled_moment_check,
    exact_moment,
    khinchine_ratio,
    partition_classes,
    stirling2,
    stirling_refined_bound_check,
    surjection_count,
    tail_from_moments,
)
from .multipliers import (
    BERNSTEIN_C0,
    MultiplierKind,
    UnitPartition,
    apply_multiplier,
    bump_profile,
    unit_projection,
)
from .picard import (
    BlowUpError,
    FieldSeries,
    IterateRecord,
    TimeGrid,
    duhamel,
    energy_inequality_check,
    free_evolution,
    picard_chain,
    picard_iterate,
    space_time_norm,
)
from .randomization import (
    RademacherDraw,
    RandomizedData,
    band_limited_field,
    draw_rademacher,
    gaussian_bump,
    randomize,
)
from .trees import (
    BinaryTree,
    b_index_set,
    c_star,
    c_star_upper,
    c_tau,
    enumerate_trees,
    evaluate_tree_term,
    i_tau_oracle,
    reconstruct_iterate,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Grid", "Field", "make_grid", "transform", "lp_norm", "sobolev_norm",
    "save_field", "load_field",
    "MultiplierKind", "UnitPartition", "apply_multiplier", "unit_projection",
    "bump_profile", "BERNSTEIN_C0",
    "RademacherDraw", "RandomizedData", "draw_rademacher", "randomize",
    "gaussian_bump", "band_limited_field",
    "TimeGrid", "FieldSeries", "IterateRecord", "BlowUpError", "free_evolution",
    "duhamel", "picard_iterate", "picard_chain",
    "space_time_norm", "energy_inequality_check",
    "BinaryTree", "enumerate_trees", "c_tau", "i_tau_oracle",
    "c_star", "c_star_upper", "b_index_set", "evaluate_tree_term",
    "reconstruct_iterate",
    "CoefficientVector", "PartitionClass", "exact_moment", "khinchine_ratio",
    "decoupled_moment_check", "stirling2", "surjection_count",
    "stirling_refined_bound_check", "partition_classes", "bell_number",
    "MomentBound", "tail_from_moments",
    "ExperimentConfig", "ExperimentReport", "run_experiment",
    "interval_scaling_study", "tail_study", "emit_report", "load_config",
]
