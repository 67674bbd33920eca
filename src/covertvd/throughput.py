"""Finite-blocklength throughput approximations under maximal power
constraint, and the covert-budget bounds built from the closed-form power
levels.

All formulas take noise variance 1, so the power argument P is the snr.
Every report decomposes as bits = term_first + term_second + term_logn;
the O(1) residuals of the underlying bounds are dropped (set to 0) and the
O(log n) residual is fixed at +log2(n)/2, so reported values are
normal-approximation figures, never exact code sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, RegimeError
from .power import CovertBudget, eta_from_lambda
from .special import chi2_cdf, q_inv
from .types import check_blocklength

LOG2E = math.log2(math.e)

KIND_ACH_NA = "achievability-NA"
KIND_CONV_NA = "converse-NA"
KIND_COVERT_SUF = "covert-suf"
KIND_COVERT_NEC = "covert-nec"
KIND_ACH_FULL = "achievability-full"

#: Residual policy stamped on every report so consumers never mistake the
#: outputs for exact code sizes.
RESIDUAL_POLICY = "O(1) constants dropped; O(log n) residual fixed at +log2(n)/2"


@dataclass(frozen=True)
class ThroughputReport:
    """log2 M decomposition: bits = term_first + term_second + term_logn.

    term_first carries the capacity-scale part, term_second the (signed)
    dispersion part, term_logn everything sub-dispersion (the log-n
    residual plus any tau0 / shell-mass / remainder corrections).  The
    residuals field records the dropped-constant policy.
    """

    bits: float
    term_first: float
    term_second: float
    term_logn: float
    eps: float
    kind: str
    residuals: str = RESIDUAL_POLICY


def _report(kind: str, eps: float, first: float, second: float, logn: float) -> ThroughputReport:
    return ThroughputReport(
        bits=first + second + logn,
        term_first=first,
        term_second=second,
        term_logn=logn,
        eps=eps,
        kind=kind,
    )


def _check_common(n: int, eps: float) -> int:
    """Validate (n, eps); returns n as a Python int."""
    n = check_blocklength(n)
    if not (math.isfinite(eps) and 0.0 < eps < 1.0):
        raise DomainError(f"decoding error probability must lie in (0, 1), got {eps!r}")
    return n


def _check_power(P: float) -> None:
    if not (math.isfinite(P) and P >= 0.0):
        raise DomainError(f"power must be finite and nonnegative, got {P!r}")


def _check_mu(mu: float) -> None:
    if not (math.isfinite(mu) and 0.0 < mu < 1.0):
        raise DomainError(f"shell parameter mu must lie in (0, 1), got {mu!r}")


def capacity(P: float) -> float:
    """AWGN capacity log2(1 + P)/2 in bits per channel use."""
    return 0.5 * math.log2(1.0 + P)


def dispersion(P: float) -> float:
    """AWGN dispersion (log2 e)^2/2 * (1 - (1 + P)^-2) in bits^2 per use."""
    return 0.5 * LOG2E * LOG2E * P * (P + 2.0) / ((1.0 + P) * (1.0 + P))


@cache
def _hermgauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(127)


def t_mu(P: float, R: float, mu: float) -> float:
    """Third absolute moment E|log2(e)/(2(1+mu P)) [mu P + 2 sqrt(R) Z - mu P Z^2]|^3
    over standard normal Z, by Gauss-Hermite quadrature.

    The rule is fixed at 127 nodes: the integrand is a C^2 kink of a
    degree-6 polynomial envelope, measured quadrature error ~5e-8 at
    covert power scales.
    """
    _check_power(P)
    _check_mu(mu)
    if R < 0.0:
        raise DomainError(f"rate-shell radius must be nonnegative, got {R!r}")
    x, w = _hermgauss()
    z = math.sqrt(2.0) * x
    c = LOG2E / (2.0 * (1.0 + mu * P))
    vals = np.abs(c * (mu * P + 2.0 * math.sqrt(R) * z - mu * P * z * z)) ** 3
    return float(np.sum(w * vals) / math.sqrt(math.pi))


def v_hat_mu(P: float, R: float) -> float:
    """Shell dispersion (log2 e / (2(1+P)))^2 (4R + 2P^2)
    = dispersion(P) * (2R + P^2)/(2P + P^2)."""
    _check_power(P)
    c = LOG2E / (2.0 * (1.0 + P))
    return c * c * (4.0 * R + 2.0 * P * P)


def b_mu(P: float, R: float, mu: float) -> float:
    """Berry-Esseen ratio 6 T_mu(P, R) / v_hat_mu(P, R)^(3/2)."""
    # v^(3/2) underflows to 0 while v is still positive, below v ~ 1e-215
    v32 = v_hat_mu(P, R) ** 1.5
    if v32 == 0.0:
        raise DomainError("Berry-Esseen ratio undefined at zero dispersion")
    return 6.0 * t_mu(P, R, mu) / v32


def be_margin(n: int, P: float, mu: float) -> float:
    """Normal-approximation validity margin 2 B_mu(P, mu P)/sqrt(n); the
    approximation's Berry-Esseen guard asks for this to be below eps."""
    return 2.0 * b_mu(P, mu * P, mu) / math.sqrt(n)


def truncation_mass(n: int, mu: float) -> float:
    """Probability that an n-vector of iid N(0, mu P) coordinates lands in
    the codeword shell mu^2 n P <= ||x||^2 <= n P (P cancels):
    chi2_cdf(n, n/mu) - chi2_cdf(n, n mu).  Tends to 1 as n grows at fixed
    mu by sphere hardening, and to 0 as mu -> 1 (empty shell)."""
    n = check_blocklength(n)
    _check_mu(mu)
    return chi2_cdf(n, n / mu) - chi2_cdf(n, n * mu)


def converse_na(n: int, eps: float, P: float) -> ThroughputReport:
    """Normal-approximation converse nC - sqrt(nV) Q^{-1}(eps) + log2(n)/2,
    independent of any coding scheme."""
    n = _check_common(n, eps)
    _check_power(P)
    first = n * capacity(P)
    second = -math.sqrt(n * dispersion(P)) * q_inv(eps)
    return _report(KIND_CONV_NA, eps, first, second, 0.5 * math.log2(n))


def achievability_na(
    n: int,
    eps: float,
    P: float,
    mu: float,
    tau0: float,
    enforce_be_guard: bool = False,
) -> ThroughputReport:
    """Normal-approximation achievability for shell-constrained Gaussian
    codebooks:

        n C_mu - sqrt(n V_mu) Q^{-1}(eps) + log2(n)/2 + log2(tau0) + log2(Delta)

    with C_mu, V_mu evaluated at mu P and Delta the codeword-shell mass.
    The Berry-Esseen margin 2 B_mu / sqrt(n) (at R = mu P) is the bound's
    formal validity guard; it is far above practical eps at covert power
    scales, so it is enforced only when enforce_be_guard is set and is
    always available via be_margin().
    """
    n = _check_common(n, eps)
    _check_power(P)
    _check_mu(mu)
    if not (math.isfinite(tau0) and 0.0 < tau0 < eps):
        raise DomainError(f"tau0 must lie in (0, eps), got {tau0!r}")
    if enforce_be_guard and be_margin(n, P, mu) >= eps:
        raise RegimeError(
            f"Berry-Esseen margin {be_margin(n, P, mu):.3g} >= eps={eps}; "
            "normal approximation not certified at this blocklength"
        )
    delta_mass = truncation_mass(n, mu)
    if delta_mass <= 0.0:
        raise DomainError(f"codeword shell has vanishing mass at n={n}, mu={mu}")
    first = n * capacity(mu * P)
    second = -math.sqrt(n * dispersion(mu * P)) * q_inv(eps)
    logn = 0.5 * math.log2(n) + math.log2(tau0) + math.log2(delta_mass)
    return _report(KIND_ACH_NA, eps, first, second, logn)


def _full_core(
    n: int, eps: float, P: float, mu: float, R: float, delta_mass: float
) -> tuple[float, float, float]:
    """tau0-independent part of the full achievability bound at shell rate R,
    given the shell mass delta_mass = truncation_mass(n, mu).

    Returns (first, second, rest) where first is the capacity-scale term
    n C_mu + n (R - mu P) log2(e) / (2 (1 + mu P)), second the signed
    dispersion term sqrt(n v_hat) Q^{-1}(1 - eps + 2B/sqrt(n)), and rest
    the log-n residual, shell mass and remainder correction.
    """
    B = b_mu(P, R, mu)
    arg = 1.0 - eps + 2.0 * B / math.sqrt(n)
    if arg >= 1.0:
        raise RegimeError(
            f"Q^{{-1}} argument {arg:.6f} >= 1 (Berry-Esseen margin exceeds eps); "
            f"the full achievability bound is vacuous at n={n}, eps={eps}"
        )
    v = v_hat_mu(P, R)
    first = n * capacity(mu * P) + n * (R - mu * P) * LOG2E / (2.0 * (1.0 + mu * P))
    second = math.sqrt(n * v) * q_inv(arg)
    remainder = math.log2(2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi * v) + 4.0 * B)
    if delta_mass <= 0.0:
        raise DomainError(f"codeword shell has vanishing mass at n={n}, mu={mu}")
    rest = 0.5 * math.log2(n) + math.log2(delta_mass) - remainder
    return first, second, rest


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def achievability_full(n: int, eps: float, P: float, mu: float) -> ThroughputReport:
    """Full shell-codebook achievability bound: golden-section maximization
    of the rate point R in [mu^2 P, P], plus log2(tau0) at the largest
    point of the 50-point log grid geomspace(1e-6 eps, eps, 51)[:-1].  The
    bound increases with tau0, so that point, tau0 = eps 10^(-6/50), is
    the grid maximum and enters in closed form.

    Raises RegimeError when the Berry-Esseen margin reaches eps, where the
    bound's Q^{-1} argument leaves (0, 1) and the bound is vacuous.
    """
    n = _check_common(n, eps)
    _check_power(P)
    _check_mu(mu)
    if P == 0.0:
        raise DomainError("full achievability bound degenerate at P = 0")

    # independent of R; a vanishing mass is reported only after the
    # Berry-Esseen check in _full_core, so RegimeError keeps precedence
    delta_mass = truncation_mass(n, mu)

    def objective(R: float) -> float:
        return sum(_full_core(n, eps, P, mu, R, delta_mass))

    lo, hi = mu * mu * P, P
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if hi - lo <= 1e-12 * P:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    r_star = 0.5 * (lo + hi)

    first, second, rest = _full_core(n, eps, P, mu, r_star, delta_mass)
    log_tau0 = math.log2(eps) - (6.0 / 50.0) * math.log2(10.0)
    return _report(KIND_ACH_FULL, eps, first, second, rest + log_tau0)


def covert_throughput_bounds(n: int, eps: float, delta: float) -> tuple[ThroughputReport, ThroughputReport]:
    """Achievability and converse throughput bounds under the TVD budget.

    The converse (necessary) side takes its capacity-scale term from the
    necessary power's intermediate y and its dispersion from the
    sufficient power's y0; the achievability (sufficient) side swaps the
    two roles.  The O(log n) residual is fixed at +log2(n)/2 on both.
    Returns (suf, nec) with suf.bits <= nec.bits.
    """
    n = _check_common(n, eps)
    budget = CovertBudget.from_delta(n, delta)
    eta_y = eta_from_lambda(budget.lam, budget.y)
    eta_y0 = eta_from_lambda(budget.lam1, budget.y0)
    qi = q_inv(eps)
    logn = 0.5 * math.log2(n)

    def second_term(lam: float) -> float:
        # 1 - eta^-2 = 4 lam / (1 + lam)^2 for eta = (1+lam)/(1-lam);
        # exact rewrite, no cancellation as the budget vanishes
        one_minus = 4.0 * lam / ((1.0 + lam) * (1.0 + lam))
        return -math.sqrt(0.5 * n * LOG2E * LOG2E * one_minus) * qi

    nec = _report(KIND_COVERT_NEC, eps, n * math.log2(eta_y), second_term(budget.lam1), logn)
    suf = _report(KIND_COVERT_SUF, eps, n * math.log2(eta_y0), second_term(budget.lam), logn)
    return suf, nec
