"""Network-wide traffic flow, density and MFD estimation from sparse
stationary sensor coverage.

The library reconstructs whole-network means from the few links that carry
a detector, either by scaling (uniform or hierarchy-aware) or by kriging
over along-network distances, and assembles the results into macroscopic
fundamental diagrams with fitted confidence bands.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    DegenerateTestError,
    EmptyVariogramError,
    EstimationError,
    FitConvergenceError,
    GenerationError,
    IncompleteFieldError,
    InsufficientDataError,
    InsufficientNeighborsError,
    NotEstimableError,
    NumericError,
    RankDeficiencyError,
    SchemaError,
    SingularSystemError,
    UncoverableHierarchyError,
    ValidationError,
)
from .network import (
    DetectorSite,
    Link,
    Network,
    cross_distance_matrix,
    load_detector_sites,
    load_network,
    midpoint_sites,
    site_distance_matrix,
)
from .sensing import (
    CoveragePlan,
    LinkObservation,
    Readings,
    aggregate_to_links,
    edie_network_truth,
    load_coverage_plan,
    load_readings,
    sample_coverage,
    sample_coverage_counts,
    write_readings,
)
from .tableio import write_json
from .scaling import (
    HierarchyClassSplit,
    HierarchyPartition,
    ScaledEstimate,
    hierarchical_scaled_mean,
    uniform_scaled_mean,
)
from .variogram import (
    EmpiricalVariogram,
    VariogramModel,
    distance_bin_edges,
    empirical_variogram,
    fit_variogram,
    gamma,
)
from .kriging import (
    ImputationDistances,
    ImputedField,
    KrigingSolution,
    failed_length_fraction,
    impute_network,
    network_mean_from_field,
    solve_kriging,
)
from .mfd import (
    MFDPoint,
    QuadraticFit,
    build_mfd,
    fit_quadratic_with_ci,
)
from .metrics import (
    MetricsReport,
    PairedTTestResult,
    compute_metrics,
    paired_t_test,
    t_critical_value,
)
from .synth import (
    ScenarioData,
    SyntheticScenario,
    corridor_network,
    generate_scenario,
    grid_network,
    load_scenario,
    simulate_correlated_field,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    VariogramSettings,
    load_experiment_config,
    run_experiment,
    write_outputs,
)
