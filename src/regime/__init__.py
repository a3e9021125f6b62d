"""Recurrence, transience, and exponential-ergodicity certificates for
regime-switching diffusions, with a Monte Carlo engine for corroboration."""

from . import errors
from .criteria import (
    Classification,
    Limit,
    LyapunovBehavior,
    Verdict,
    bisect_verdict,
    classify_avg,
    classify_infinite,
    classify_mmatrix,
    classify_ou,
    classify_power_1d,
    classify_radial_sampled,
    classify_state_dependent,
    classify_two_function,
    classify_two_function_state_dependent,
    kappa_thresholds,
)
from .markov import (
    BetaSequence,
    Partition,
    QMatrix,
    ScanGrid,
    StateDependentRates,
    TailHomogeneousChain,
    bound_rates,
    coarsen,
    invariant_measure,
    validate_qmatrix,
)
from .mmatrix import (
    MMatrixCertificate,
    PerronData,
    is_nonsingular_mmatrix,
    leading_minors,
    least_real_eigenvalue,
    perron,
    semipositive_certificate,
    z_pattern,
)
from .modelfile import RegimeModel, load_model, parse_model
from .simulate import (
    SdeModel,
    SimulationReport,
    power_drift,
    regime_sigma,
    run_ensemble,
    truncate_chain,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Classification", "Limit", "LyapunovBehavior", "Verdict",
    "bisect_verdict", "classify_avg", "classify_infinite",
    "classify_mmatrix", "classify_ou", "classify_power_1d",
    "classify_radial_sampled", "classify_state_dependent",
    "classify_two_function", "classify_two_function_state_dependent",
    "kappa_thresholds",
    "BetaSequence", "Partition", "QMatrix", "ScanGrid", "StateDependentRates",
    "TailHomogeneousChain", "bound_rates", "coarsen", "invariant_measure",
    "validate_qmatrix",
    "MMatrixCertificate", "PerronData", "is_nonsingular_mmatrix",
    "leading_minors", "least_real_eigenvalue", "perron",
    "semipositive_certificate", "z_pattern",
    "RegimeModel", "load_model", "parse_model",
    "SdeModel", "SimulationReport", "power_drift", "regime_sigma",
    "run_ensemble", "truncate_chain",
]
