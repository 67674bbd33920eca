"""Shared independent oracles for the test suite, a bisection inverter, and
a fresh-interpreter runner for import-footprint tests.

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


def _digits_lost(x) -> int:
    """The decimal digits that terms of size 1 lose when they cancel to
    size |x|: the extra digits that keep the result at full precision."""
    import mpmath as mp

    return max(0, -int(mp.log10(abs(x)))) if x else 0


def _mp_gamma_mass(a, d_lo, d_hi):
    """The Gamma(a) probability of t in [a (1 + d_lo), a (1 + d_hi)], at the
    caller's mpmath precision: sqrt(a/2pi)/Gamma*(a) times the integral of
    e^(-a phi(d))/(1 + d) over [d_lo, d_hi], phi(d) = d - ln(1 + d), split
    at the peak d = 0 when it lies inside.  The normaliser a ln a - a -
    ln Gamma(a) and phi(d) cancel, by about log10(a ln a) digits and
    2 log10(1/|d|) digits; both are taken with that many extra digits, so
    the integral keeps its precision at every shape."""
    import mpmath as mp

    with mp.extradps(int(mp.log10(1 + a * abs(mp.log(a))))):
        log_norm = +(a * mp.log(a) - a - mp.loggamma(a))

    def density(d):
        with mp.extradps(_digits_lost(d)):
            phi = d - mp.log1p(d)
        return mp.exp(log_norm - a * phi) / (1 + d)

    return mp.quad(density, [d_lo, 0, d_hi] if d_lo < 0 < d_hi else [d_lo, d_hi])


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
    d_f = (1 + theta)(d_g + 1) - 1.  d_g cancels by log10(1/theta) digits,
    taken as extra digits, and twenty guard digits cover the rest; the
    integrand must stay smooth on [d_g, d_f], as it does near the
    square-root law."""
    import mpmath as mp

    with mp.workdps(dps + 20):
        t = mp.mpf(theta)
        with mp.extradps(_digits_lost(t)):
            r = mp.log1p(t) / t
            d_g, d_f = r - 1, (1 + t) * r - 1
        return _mp_gamma_mass(mp.mpf(n) / 2, +d_g, +d_f)


@pytest.fixture(scope="session")
def gamma_mpmath():
    pytest.importorskip("mpmath")
    return mp_reg_lower_gamma


@pytest.fixture(scope="session")
def tvd_mpmath():
    pytest.importorskip("mpmath")
    return mp_tvd


def _invert_monotone(fn, target):
    """Bisection inversion of an increasing fn(theta) >= 0: double hi from 1
    until fn(hi) >= target, then 200 halvings of [0, hi].  Independent of
    the closed forms under test."""
    lo, hi = 0.0, 1.0
    while fn(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def invert_monotone():
    return _invert_monotone


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
