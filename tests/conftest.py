"""Shared independent oracles for the test suite, and a fresh-interpreter
runner for import-footprint tests.

The oracles deliberately avoid the library's incomplete-gamma path (scipy's
gammainc): regularized gamma values come from adaptive quadrature of the
log-stable integrand, erfc from quadrature of the Gaussian tail, and the
exact distance from mpmath quadrature of the Gamma(n/2) density.
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest

# before scipy.integrate (which imports scipy.special), so the suite runs on
# the same scipy load as `import covertvd` on its own
import covertvd  # noqa: F401,I001
from scipy.integrate import quad


def quad_reg_lower_gamma(a: float, z: float) -> float:
    """P(a, z) by adaptive quadrature of e^(-t) t^(a-1) on [0, z],
    normalized through lgamma."""
    if z <= 0.0:
        return 0.0
    lg = math.lgamma(a)

    def integrand(t):
        return math.exp((a - 1.0) * math.log(t) - t - lg) if t > 0.0 else 0.0

    # integrate on both sides of the mode so the adaptive rule sees the peak
    mode = min(max(a - 1.0, 0.0), z)
    total = 0.0
    err = 0.0
    for lo, hi in ((0.0, mode), (mode, z)):
        if hi > lo:
            v, e = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)
            total += v
            err += e
    return total


def mp_tvd(n: int, theta: float, dps: int = 40):
    """V(theta) at blocklength n as an mpmath number good to about dps digits:
    the Gamma(n/2) density integrated over [g, f], in the coordinate
    d = t/(n/2) - 1, as sqrt(a/2pi)/Gamma*(a) * integral of e^(-a phi(d))/(1 + d)
    over [d_g, d_f], a = n/2, phi(d) = d - ln(1 + d), split at the peak d = 0.
    Twenty guard digits cover the cancellation in phi at small d and in
    a ln a - a - ln Gamma(a) up to a ~ 1e18; the integrand must stay smooth
    on [d_g, d_f], as it does near the square-root law."""
    import mpmath as mp

    with mp.workdps(dps + 20):
        a = mp.mpf(n) / 2
        t = mp.mpf(theta)
        r = mp.log1p(t) / t
        log_norm = a * mp.log(a) - a - mp.loggamma(a)
        v = mp.quad(lambda d: mp.exp(log_norm - a * (d - mp.log1p(d))) / (1 + d),
                    [r - 1, 0, (1 + t) * r - 1])
    return v


def quad_erfc(x: float) -> float:
    """erfc(x) = (2/sqrt(pi)) integral_x^inf e^(-t^2) dt by quadrature."""
    v, _ = quad(lambda t: math.exp(-t * t), x, math.inf, epsabs=1e-14, limit=200)
    return 2.0 / math.sqrt(math.pi) * v


@pytest.fixture(scope="session")
def gamma_oracle():
    return quad_reg_lower_gamma


@pytest.fixture(scope="session")
def tvd_mpmath():
    pytest.importorskip("mpmath")
    return mp_tvd


@pytest.fixture(scope="session")
def erfc_oracle():
    return quad_erfc


def _run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports covertvd from this tree."""
    src = os.path.dirname(os.path.dirname(covertvd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr


@pytest.fixture(scope="session")
def run_python():
    return _run_python
