"""Shared independent oracles for the test suite, and a fresh-interpreter
runner for import-footprint tests.

The oracles deliberately avoid the library's incomplete-gamma path (scipy's
gammainc): one mpmath integral of the Gamma(a) density in the coordinate
d = t/a - 1 gives both P(a, z) and the exact distance, and erfc comes from
mpmath.erfc.
"""

import os
import subprocess
import sys
import textwrap

import pytest

# before any test module imports scipy, so the suite runs on the same scipy
# load as `import covertvd` on its own
import covertvd


def _mp_gamma_mass(a, d_lo, d_hi):
    """The Gamma(a) probability of t in [a (1 + d_lo), a (1 + d_hi)], at the
    caller's mpmath precision: sqrt(a/2pi)/Gamma*(a) times the integral of
    e^(-a phi(d))/(1 + d) over [d_lo, d_hi], phi(d) = d - ln(1 + d), split
    at the peak d = 0 when it lies inside."""
    import mpmath as mp

    log_norm = a * mp.log(a) - a - mp.loggamma(a)
    return mp.quad(lambda d: mp.exp(log_norm - a * (d - mp.log1p(d))) / (1 + d),
                   [d_lo, 0, d_hi] if d_lo < 0 < d_hi else [d_lo, d_hi])


def mp_reg_lower_gamma(a: float, z: float, dps: int = 40):
    """P(a, z) as an mpmath number good to about dps digits: the Gamma(a)
    density integrated over d in [-1, z/a - 1]."""
    import mpmath as mp

    with mp.workdps(dps + 20):
        a = mp.mpf(a)
        return _mp_gamma_mass(a, mp.mpf(-1), mp.mpf(z) / a - 1)


def mp_tvd(n: int, theta: float, dps: int = 40):
    """V(theta) at blocklength n as an mpmath number good to about dps digits:
    the Gamma(n/2) density integrated over d in [d_g, d_f], the exact (not
    rounded) pair of the distance, d_g = ln(1 + theta)/theta - 1 and
    d_f = (1 + theta)(d_g + 1) - 1.  Twenty guard digits cover the
    cancellation in phi at small d and in a ln a - a - ln Gamma(a) up to
    a ~ 1e18; the integrand must stay smooth on [d_g, d_f], as it does near
    the square-root law."""
    import mpmath as mp

    with mp.workdps(dps + 20):
        t = mp.mpf(theta)
        r = mp.log1p(t) / t
        return _mp_gamma_mass(mp.mpf(n) / 2, r - 1, (1 + t) * r - 1)


@pytest.fixture(scope="session")
def gamma_mpmath():
    pytest.importorskip("mpmath")
    return mp_reg_lower_gamma


@pytest.fixture(scope="session")
def tvd_mpmath():
    pytest.importorskip("mpmath")
    return mp_tvd


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
