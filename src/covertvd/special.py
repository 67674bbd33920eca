"""Baseline special functions the rest of the library treats as ground truth.

Provides
--------
reg_lower_gamma : regularized lower incomplete gamma P(a, z)
reg_upper_gamma : regularized upper incomplete gamma Q(a, z) = 1 - P(a, z)
chi2_cdf        : central chi-square CDF with n degrees of freedom
erfc            : complementary error function
q_fn, q_inv     : standard normal tail probability and its inverse

P(a, z) and Q(a, z) are scipy's gammainc / gammaincc (DiDonato & Morris,
ACM TOMS 12, 1986).  The lower tail near the transition loses precision
with a: at z = a - 5 sqrt(a) the relative error of P against 30-digit
mpmath is 7e-15 at a = 1e5, 3.6e-13 at 2.5e5, 8.2e-9 at 5e5 and 4.3e-6 at
1e6.  The wrappers validate their arguments (DomainError) and raise
AccuracyError rather than pass on a non-finite result.

gammainc, gammaincc, ndtri and erfinv (for the start of power.p_exact) are
bound from scipy.special.cython_special, scipy's compiled scalar API: the
same C routines as the scipy.special ufuncs, with the same bits, but called
with Python floats and returning a Python float, without the ufunc's type
resolution and 0-d array boxing (about 0.3 us per call instead of about
1.5 us).

The extension is loaded by _bare_import, without running
scipy/special/__init__.py, whose array-API backend layer pulls in
numpy.f2py, numpy.testing and more: import covertvd then loads scipy's
top-level init, scipy._cyutility, scipy._lib._ccallback and the six
compiled scipy.special extensions (cython_special, _ufuncs, _ufuncs_cxx,
_gufuncs, _special_ufuncs and _ellip_harm_2), and takes about 0.25-0.3 s
in a fresh interpreter instead of about 0.6 s (verified on scipy 1.17.1).
A later import scipy.special runs the full package init as usual and
reuses those extensions.  QUADPACK's dqagse, _qagse, which
oracles.tvd_quadrature calls, is bound the same way from the compiled
extension scipy.integrate._quadpack, which imports nothing but numpy
(under 1 ms; scipy's Python quad wrapper, scipy.integrate._quadpack_py,
would add the array-API layer and about 0.2 s).  Brent's root finder,
_brentq, which power.p_exact calls below n = 500, comes the same way from
the compiled extension scipy.optimize._zeros, which imports nothing (about
0.4 ms; scipy.optimize's package init would add about 0.35 s).  All three
loads run while this module is imported, under Python's import lock.  One
caveat: code in another thread that imports scipy.special,
scipy.integrate or scipy.optimize for the first time while import
covertvd runs could see the bare stand-in.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import types

from .errors import AccuracyError, DomainError
from .types import check_int


def _bare_import(package: str, module: str) -> types.ModuleType:
    """package.module, imported without package's __init__ if that has not
    run yet (package is a subpackage such as scipy.special).

    A bare package module, with the parent's directory of that name as its
    __path__, stands in for package while the module loads, so only the
    module and the siblings it imports are loaded.  Afterwards it is removed
    from sys.modules together with the package.* entries it gathered: the
    caller keeps what it binds from the module, and a later import of
    package (or of package.module) imports them again and binds them as
    attributes of the real package.  If package is already loaded, or the
    bare import raises ImportError, it is the plain import.
    """
    name = f"{package}.{module}"
    if package not in sys.modules:
        parent, _, leaf = package.rpartition(".")
        bare = types.ModuleType(package)
        roots = importlib.import_module(parent).__path__
        bare.__path__ = [os.path.join(p, leaf) for p in roots]
        sys.modules[package] = bare
        try:
            return importlib.import_module(name)
        except ImportError:
            pass
        finally:
            if sys.modules.get(package) is bare:
                for entry in [m for m in sys.modules if m.startswith(package + ".")]:
                    del sys.modules[entry]
                del sys.modules[package]
    return importlib.import_module(name)


_cs = _bare_import("scipy.special", "cython_special")
gammainc, gammaincc, ndtri, erfinv = _cs.gammainc, _cs.gammaincc, _cs.ndtri, _cs.erfinv
# _qagse(func, a, b, args, full_output, epsabs, epsrel, limit) returns
# (value, abserr, infodict, ier)
_qagse = _bare_import("scipy.integrate", "_quadpack")._qagse
# _brentq(f, a, b, xtol, rtol, maxiter, args, full_output, disp) returns
# (root, funcalls, iterations, flag) with full_output = 1
_brentq = _bare_import("scipy.optimize", "_zeros")._brentq

_SQRT2 = math.sqrt(2.0)


def _check_gamma_args(a: float, z: float) -> None:
    if not (math.isfinite(a) and math.isfinite(z)):
        raise DomainError(f"incomplete gamma arguments must be finite, got a={a!r}, z={z!r}")
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got a={a!r}")
    if z < 0.0:
        raise DomainError(f"argument must be nonnegative, got z={z!r}")


def _finite(value: float, name: str, a: float, z: float) -> float:
    if not math.isfinite(value):
        raise AccuracyError(f"{name} returned {value!r} at a={a!r}, z={z!r}")
    return value


def reg_lower_gamma(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z) / Gamma(a)."""
    _check_gamma_args(a, z)
    return _finite(gammainc(a, z), "gammainc", a, z)


def reg_upper_gamma(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) = Gamma(a, z) / Gamma(a).

    Evaluated directly (no 1 - P subtraction), which keeps tiny tails
    exact; the asymptotics and rate-fit sweeps rely on that.
    """
    _check_gamma_args(a, z)
    return _finite(gammaincc(a, z), "gammaincc", a, z)


def chi2_cdf(n: int, x: float) -> float:
    """CDF of the central chi-square distribution with n degrees of freedom.

    Identical call path to reg_lower_gamma(n/2, x/2).
    """
    n = check_int(n, 1, "degrees of freedom must be a positive integer")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi-square argument must be finite and nonnegative, got {x!r}")
    return reg_lower_gamma(0.5 * n, 0.5 * x)


def erfc(x: float) -> float:
    """Complementary error function erfc(x) = 1 - erf(x)."""
    if not math.isfinite(x):
        raise DomainError(f"erfc argument must be finite, got {x!r}")
    return math.erfc(x)


def q_fn(x: float) -> float:
    """Standard normal tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    if not math.isfinite(x):
        raise DomainError(f"Q-function argument must be finite, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inv(p: float) -> float:
    """Inverse of the normal tail: the x with Q(x) = p, for p in (0, 1)."""
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"tail probability must lie in (0, 1), got {p!r}")
    return -ndtri(p)


def _phi(x: float) -> float:
    """x - ln(1 + x) for x > -1; below |x| = 1/4, where that cancels, the
    Taylor series of x - 2 atanh(r) in r = x/(2 + x)."""
    if -0.25 < x < 0.25:
        r = x / (2.0 + x)
        t = r * r
        return r * (x - 2.0 * t * (1 / 3 + t * (1 / 5 + t * (1 / 7 + t * (1 / 9 + t * (
            1 / 11 + t * (1 / 13 + t * (1 / 15 + t * (1 / 17 + t / 19)))))))))
    return x - math.log1p(x)


def _gamma_log_norm(b: float) -> float:
    """ln[e^(-b) b^b / Gamma(b)] = ln(b/2pi)/2 - ln Gamma*(b), with Stirling's
    series for ln Gamma*(b) (DLMF 5.11.1) from b = 20 on and lgamma below."""
    if b < 20.0:
        return b * math.log(b) - b - math.lgamma(b)
    t = 1.0 / (b * b)
    return 0.5 * math.log(b / (2.0 * math.pi)) - (
        1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (1 / 1680 - t / 1188)))) / b


def _gamma_log_density(b: float, z: float, log_norm: float) -> float:
    """ln[e^(-z) z^b / Gamma(b)] = log_norm - b phi((z - b)/b), z > 0, log_norm =
    _gamma_log_norm(b) (0 gives ln[e^(b - z) (z/b)^b]): no term of size b ln b.
    Below z = b/2, ln(1 + x) is ln(z/b), as x rounds to -1 once z/b < 2^-53."""
    x = (z - b) / b
    if x < -0.5:
        r = z / b  # 0.0 where z/b underflows
        return log_norm - b * (x - (math.log(r) if r else math.log(z) - math.log(b)))
    return log_norm - b * _phi(x)
