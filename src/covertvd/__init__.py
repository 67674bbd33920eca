"""covertvd: total variation distance at an energy-detecting adversary,
covert power levels, and finite-blocklength throughput bounds for Gaussian
channels."""

from .asymptotics import RateFit, ScalingSeries, fit_rate, stationarity_check, sweep_tvd
from .divergences import BoundsReport, hellinger_sq, kl_divergences, tvd_bounds
from .errors import (
    AccuracyError,
    ConsistencyError,
    CovertvdError,
    DomainError,
    FitError,
    OrderError,
    RegimeError,
)
from .oracles import DetectionEstimate, lrt_threshold, simulate_test, tvd_quadrature
from .power import PowerInterval, p_exact, p_nec, p_suf
from .throughput import (
    ThroughputReport,
    achievability_full,
    achievability_na,
    converse_na,
    covert_throughput_bounds,
    truncation_mass,
)
from .tvd import FgPair, fg, tvd_complement, tvd_exact, tvd_series
from .types import ChannelPoint, TvdEvaluation

# the one source of the version: pyproject.toml and `covertvd --version` read it
__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BoundsReport",
    "ChannelPoint",
    "ConsistencyError",
    "CovertvdError",
    "DetectionEstimate",
    "DomainError",
    "FgPair",
    "FitError",
    "OrderError",
    "PowerInterval",
    "RateFit",
    "RegimeError",
    "ScalingSeries",
    "ThroughputReport",
    "TvdEvaluation",
    "achievability_full",
    "achievability_na",
    "converse_na",
    "covert_throughput_bounds",
    "fg",
    "fit_rate",
    "hellinger_sq",
    "kl_divergences",
    "lrt_threshold",
    "p_exact",
    "p_nec",
    "p_suf",
    "simulate_test",
    "stationarity_check",
    "sweep_tvd",
    "truncation_mass",
    "tvd_bounds",
    "tvd_complement",
    "tvd_exact",
    "tvd_quadrature",
    "tvd_series",
    "__version__",
]
