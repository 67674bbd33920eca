"""Ground-truth oracles independent of the incomplete-gamma evaluation
path: adaptive quadrature of the radial density-difference integral, and a
seeded likelihood-ratio-test simulator verifying TVD = 1 - (alpha + beta).

The quadrature integrates special's scaled Gamma(n/2) density over the
kernel's own (g, f), clipped to the peak (tvd_quadrature): within 4.3e-14
of tvd_exact at 3000 seeded points with n <= 1e6, and within its
err_estimate of 30-digit mpmath at 96 seeded points with n <= 1e7.  It
calls QUADPACK's dqagse (Piessens et al., QUADPACK, 1983) as _qagse, the
routine scipy's quad runs for finite limits, bound by special from the
compiled extension scipy.integrate._quadpack without scipy.integrate's
package init or quad's Python wrapper.  With the same positional
arguments quad passes, value, error estimate and evaluation count are
quad's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .special import _gamma_log_density, _gamma_log_norm, _qagse
from .tvd import _fg
from .types import METHOD_QUADRATURE, ChannelPoint, TvdEvaluation, check_int

#: variates simulate_test draws and counts at a time
_BLOCK = 8192

_QUAD_ABS_TARGET = 1e-10
_QUAD_LIMIT = 300

# dqagse's warning codes; any other nonzero ier is a failed call
_QAGSE_WARNINGS = {
    1: f"maximum number of subdivisions ({_QUAD_LIMIT}) has been achieved",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behavior in the interval",
    4: "the extrapolation does not converge (roundoff)",
    5: "the integral is probably divergent or slowly convergent",
}


@dataclass(frozen=True)
class DetectionEstimate:
    """Empirical error probabilities of the radius-threshold test.

    alpha_hat is the false-alarm rate P0(||z||^2 > R^2), beta_hat the
    missed-detection rate P1(||z||^2 <= R^2), both over the same m trials
    (see simulate_test).  The two events are disjoint in every trial, so
    m (alpha_hat + beta_hat) is Binomial(m, alpha + beta) and std_err =
    sqrt(p (1 - p) / m), p = alpha_hat + beta_hat, is the standard error
    of alpha_hat + beta_hat and so of tvd_hat.
    """

    alpha_hat: float
    beta_hat: float
    samples: int
    seed: int
    std_err: float

    @property
    def tvd_hat(self) -> float:
        """Point estimate 1 - (alpha_hat + beta_hat) of the TVD."""
        return 1.0 - (self.alpha_hat + self.beta_hat)


def lrt_threshold(point: ChannelPoint) -> float:
    """Squared-radius threshold R^2 = 2 sigma^2 f of the likelihood-ratio
    test, at the kernel's own f of tvd._fg; R^2/(2 sigma1^2) = g."""
    if point.theta <= 0.0:
        raise DomainError("the test is degenerate at theta = 0 (identical hypotheses)")
    return 2.0 * point.sigma2 * _fg(point.n, point.theta)[0]


def simulate_test(
    point: ChannelPoint,
    m: int,
    seed: int,
    *,
    threshold_sq: float | None = None,
) -> DetectionEstimate:
    """Monte Carlo estimate of (alpha, beta) for the radius-threshold test.

    Each of the m trials draws one chi-square variate X ~ chi2(n) (the
    energy ||z||^2 / variance, sampled directly rather than materializing
    n-vectors) and uses it under both hypotheses: the received energy is
    sigma^2 X under H0 and sigma1^2 X under H1.  The test thresholds at
    R^2, ties assigned to the <= side.  Each of alpha_hat and beta_hat is
    an unbiased binomial proportion, as with independent draws, at half
    the sampling cost.  Since sigma1^2 >= sigma^2, a trial can raise a
    false alarm (sigma^2 X > R^2) or a miss (sigma1^2 X <= R^2) but not
    both, whatever R^2, so the error count is Binomial(m, alpha + beta)
    and std_err is its exact standard error (DetectionEstimate).

    Deterministic given (seed, m): the m variates come from one generator,
    PCG64(SeedSequence(seed).spawn(1)[0]), so the result is independent of
    the host.  They are drawn and counted in consecutive blocks of
    _BLOCK, so memory stays constant in m; the generator hands out the
    same sequence of variates whatever the block size, so every count is
    that of one m-long draw.  threshold_sq overrides the optimal R^2
    (needed e.g. at theta = 0, where the optimal test is degenerate and
    alpha_hat + beta_hat = 1 exactly).  m below ~1e4 is accepted; the
    imprecision shows up in std_err rather than as an error.
    """
    m = check_int(m, 1, "sample count must be a positive integer")
    seed = check_int(seed, 0, "seed must be a nonnegative integer")
    r2 = lrt_threshold(point) if threshold_sq is None else float(threshold_sq)
    if not (math.isfinite(r2) and r2 > 0.0):
        raise DomainError(f"threshold must be finite and positive, got {r2!r}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    sigma2, sigma1_sq = point.sigma2, point.sigma1_sq
    false_alarms = missed = 0
    with np.errstate(over="ignore"):  # an energy past the double range is above R^2
        for start in range(0, m, _BLOCK):
            x = rng.chisquare(point.n, size=min(_BLOCK, m - start))
            false_alarms += int(np.count_nonzero(sigma2 * x > r2))
            missed += int(np.count_nonzero(sigma1_sq * x <= r2))
    p = (false_alarms + missed) / m  # <= 1 exactly: the events are disjoint
    return DetectionEstimate(
        alpha_hat=false_alarms / m,
        beta_hat=missed / m,
        samples=m,
        seed=seed,
        std_err=math.sqrt(p * (1.0 - p) / m),
    )


def tvd_quadrature(point: ChannelPoint) -> TvdEvaluation:
    """TVD by adaptive quadrature of the radial integral.

    Integrates the Gamma(n/2) density e^(-t) t^(n/2) / (t Gamma(n/2)),
    special._gamma_log_density, over the pair (g, f) = tvd._fg(n, theta)
    clipped to n/2 -+ 40 sqrt(n/2) (+ 40 above): that drops under 1e-31 of
    the mass but keeps QUADPACK's nodes on a peak far narrower than [g, f].
    The nodes round to the ulp of the upper limit, which moves the density
    by about ulp/sqrt(n/2) relative, unseen by QUADPACK; that term is added
    to its error estimate, which so misses the target from n = 2^40 on.  A
    dqagse warning (ier 1-5) is tolerated as long as the error estimate
    meets the target; otherwise it is named in the AccuracyError.  So is
    any other nonzero ier, a NaN error estimate and a non-finite limit.

    Where the limits round together (theta below ~1.1e-16), V is estimated
    to first order as theta lo^(n/2) e^(-lo) / Gamma(n/2), the interval
    length times the density at lo; value 0 is returned with that estimate
    as err_estimate if it meets the target, and AccuracyError raised if not.
    """
    if point.theta == 0.0:
        return TvdEvaluation(value=0.0, method=METHOD_QUADRATURE, terms_used=0, err_estimate=0.0)
    where = f"at n={point.n}, theta={point.theta}"
    hi, lo = _fg(point.n, point.theta)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise AccuracyError(f"quadrature limits [{lo!r}, {hi!r}] are not finite {where}")
    half = 0.5 * point.n
    log_norm = _gamma_log_norm(half)
    if lo == hi:
        estimate = point.theta * math.exp(_gamma_log_density(half, lo, log_norm))
        if not estimate <= _QUAD_ABS_TARGET:
            raise AccuracyError(
                f"quadrature limits round together {where}, where V is about "
                f"{estimate:.3e}, above the target {_QUAD_ABS_TARGET:.0e}"
            )
        return TvdEvaluation(
            value=0.0, method=METHOD_QUADRATURE, terms_used=0, err_estimate=estimate
        )
    width = 40.0 * math.sqrt(half)
    lo, hi = max(lo, half - width), min(hi, half + width + 40.0)

    def integrand(t: float) -> float:
        return math.exp(_gamma_log_density(half, t, log_norm)) / t

    value, abserr, info, ier = _qagse(integrand, lo, hi, (), 1, 1e-13, 1e-12, _QUAD_LIMIT)
    if ier and ier not in _QAGSE_WARNINGS:
        raise AccuracyError(f"quadrature failed with QUADPACK code ier={ier} {where}")
    abserr += math.ulp(hi) / math.sqrt(half)
    if not abserr <= _QUAD_ABS_TARGET:
        warning = f": {_QAGSE_WARNINGS[ier]}" if ier else ""
        raise AccuracyError(
            f"quadrature error estimate {abserr:.3e} exceeds target {_QUAD_ABS_TARGET:.0e} "
            f"{where}{warning}"
        )
    return TvdEvaluation(
        value=min(1.0, max(0.0, float(value))),
        method=METHOD_QUADRATURE,
        terms_used=int(info["neval"]),
        err_estimate=float(abserr),
    )
