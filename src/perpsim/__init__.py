"""Simulation and statistical verification of growing stochastic recursions.

The object of study is R_n = Q_n + M_n R_{n-1} with i.i.d. driving pairs
(Q, M) and R_0 = 0, in the regimes where R_n diverges (E ln|M| >= 0).
The package classifies a (Q, M) model into its regime, simulates the
recursion in overflow-free scaled arithmetic (one batched kernel,
``perpsim.scaled``), applies the regime-specific renormalization, and
checks the normalized samples against the predicted limit law with
Kolmogorov-Smirnov distances calibrated by DKW bounds. Exact enumeration and moment-recursion
oracles cover small discrete models.
"""

from .errors import (
    ConfigError,
    DomainError,
    ExponentOverflowError,
    InvalidArgumentsError,
    InvalidInputError,
    InvalidModelError,
    NativeRangeError,
    PerpsimError,
    TooLargeError,
    UnavailableError,
    UnsupportedError,
)
from .models import (
    DiscreteJoint,
    LogNormalPair,
    Moments,
    PairModel,
    QConstant,
    QLaw,
    QLogBoundary,
    QLogNormal,
    QLogPareto,
    QRademacher,
    RegimeReport,
    ScaledRademacher,
    SignedUnit,
    analytic_moments,
    beta_squared,
    classify,
    sign_gap,
    tail_quantile,
)
from .normalize import normalize_samples
from .simulate import (
    BatchResult,
    ExactDistribution,
    enumerate_exact,
    exact_moments_recursion,
    reference_seed,
    run_batch,
    stream_key,
)
from .stats import Summary, dkw_bound, ks_one_sample, ks_two_sample, summary

__version__ = "0.1.0"
