"""Capacity-constrained service allocation with group-fairness metrics.

Allocates individuals to capacity-limited services, measures which group an
allocation favors under four baselines-and-normalization conventions
(improvement, regret, gain, equitability/shortfall), verifies the inherent
trade-offs between those conventions empirically, and audits real allocation
datasets.
"""

from .core import (
    Allocation,
    CapacityVector,
    FairnessReport,
    Population,
    UtilityEnvelope,
    delta_metrics,
    envelope,
)
from .errors import (
    DataValidationError,
    DegenerateVarianceError,
    EmptyGroupError,
    EmptySampleError,
    FairallocError,
    InfeasibleError,
    NoHeterogeneityError,
    SchemaMismatchError,
)
from .policies import (
    PolicySpec,
    allocate_best,
    allocate_mixture,
    allocate_random,
    allocate_utilitarian,
    allocate_worst,
    apply_policy,
    compile_spec,
)
from .simulate import (
    ExperimentResult,
    GaussianGroupParams,
    MetricEstimate,
    SF1Params,
    SF2Params,
    load_experiment_config,
    run_experiment,
    run_invariant_checks,
    verify_sign_flip,
)
from .stats import KdeCurve, TTestResult, kde, welch_t
from .audit import (
    AuditDataset,
    AuditReport,
    AuditSchema,
    GroupPair,
    audit_observed,
    best_service_shares,
    delta_u_analysis,
    ingest_csv,
    run_audit,
)

__version__ = "0.1.0"
