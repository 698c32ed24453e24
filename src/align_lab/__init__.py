"""Correlated Erdos-Renyi graph alignment laboratory.

Generators for the correlated pair model, the partial-recovery algorithm
(goodness test plus exhaustive search), the brute-force MAP estimator,
numerical evaluators for the impossibility and possibility bounds, and a
reproducible Monte Carlo experiment harness with a CLI (``align-lab``).
"""

from .errors import (
    AlignLabError,
    CapacityError,
    ConfigError,
    NoRootError,
    ParameterError,
)
from .model import (
    CorrelatedInstance,
    Graph,
    ModelParams,
    PairDistribution,
    dist_p,
    dist_q,
    generate,
    kl_divergence,
    make_rng,
)
from .perms import (
    CycleDecomposition,
    MAlphaResult,
    PairCycle,
    Permutation,
    decompose,
    derangements,
    log_rencontres,
    m_alpha,
    overlap,
    rencontres,
)
from .recovery import (
    GoodnessReport,
    KCoreResult,
    SearchResult,
    find_good,
    intersection_degrees,
    intersection_graph,
    is_good,
    k_core,
    map_estimate,
    overlap_objective,
)
from .theory import (
    CkResult,
    FanoBound,
    GoodProbBound,
    RecoveryConditions,
    TheoryReport,
    ZetaResult,
    berry_esseen_lower,
    c_k,
    chernoff_zeta,
    fano_bound,
    good_prob_bound,
    impossibility_ratio,
    mgf_zk,
    mu_k,
    power_mean_check,
    psi,
    recovery_conditions,
    theory_report,
)
from .harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    PointSummary,
    RunResult,
    TrialRecord,
    derive_seed,
    parse_config,
    run,
)

__version__ = "0.1.0"
