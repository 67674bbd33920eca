"""Shared independent oracles for the test suite, and a fresh-interpreter
runner for import-footprint tests.

The oracles deliberately avoid the library's incomplete-gamma path (scipy's
gammainc): regularized gamma values come from adaptive quadrature of the
log-stable integrand, erfc from quadrature of the Gaussian tail.
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


def quad_erfc(x: float) -> float:
    """erfc(x) = (2/sqrt(pi)) integral_x^inf e^(-t^2) dt by quadrature."""
    v, _ = quad(lambda t: math.exp(-t * t), x, math.inf, epsabs=1e-14, limit=200)
    return 2.0 / math.sqrt(math.pi) * v


@pytest.fixture(scope="session")
def gamma_oracle():
    return quad_reg_lower_gamma


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
