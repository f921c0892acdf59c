"""Power-series heat propagators, analytic-radius certificates, and audits
on locally finite weighted graphs."""

from .bounds import (
    DegreeGrowth,
    GrowthProfile,
    RadiusCertificate,
    convexity_split,
    decay_envelope,
    decay_threshold,
    fit_degree_growth,
    fit_growth_profile,
    lagrange_gap_bound,
    radius_estimate,
    remainder_bound,
    stirling_lower_holds,
)
from .counterexample import (
    DerivativePolynomialTable,
    FlatBumpParams,
    g_derivative,
    g_eval,
    growth_audit,
    heat_residual_1d,
    heat_residual_poly,
    huang_bound_audit,
    non_analyticity_witness,
    v_eval,
    v_time_derivative,
)
from .errors import (
    AuditWindowEmptyError,
    DegreeBoundError,
    GraphSchemaError,
    GrowthFitError,
    HeatSeriesError,
    RadiusExceededError,
    TruncationFailureError,
    UnknownVertexError,
    UnreachableVertexError,
)
from .graphs import (
    FiniteGraph,
    Graph,
    IntegerLattice,
    IntegerLine,
    LocalFunction,
    RegularTree,
    complete_graph,
    cycle_graph,
    family_from_spec,
    integer_segment,
    load_graph,
    path_graph,
)
from .laplacian import (
    IteratedLaplacianTable,
    apply_laplacian,
    iterate_sup_bound,
    key_estimate_bound,
    laplacian_at,
)
from .oracle import DenseOperator, brute_iterate, dense_laplacian, expm_apply
from .series import (
    BackwardSolvabilityReport,
    CoefficientAuditReport,
    EvalResult,
    SeriesSolution,
    backward_solve,
    check_backward_solvability,
    coefficient_bound_audit,
    residual_check,
    series_eval,
)

__version__ = "0.1.0"
