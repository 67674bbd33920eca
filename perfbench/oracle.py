"""High-precision reference for the benchmark's correctness checks.

Everything here is evaluated in mpmath at DPS significant digits and is
independent of the package's own incomplete-gamma kernel.  P(a, z) uses
the lower series (mpmath's 1F1 summation) wherever the upper tail is not
tiny, and Q(a, z) uses a Lentz continued fraction beyond that point:
mpmath's own gammainc raises NoConvergence at a ~ 5e5 on either side of
z ~ a, so it cannot serve as the reference at n = 1e6.

check(record) compares one benchmark output record against the reference
and returns a Verdict; the record kinds are produced by workloads.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf

DPS = 50

# An output fails when it misses the reference by more than these.  The
# package's kernel loses up to ~5e-10 absolute at n = 1e6 (the lgamma
# prefactor, see ROADMAP item 2); V_ATOL is four times that, so the known
# loss shows in accuracy_digits rather than as failures, while a relative
# error of 1e-6 on any V >= 3e-3 is rejected.
V_RTOL = 1e-7
V_ATOL = 2e-9
TAIL_RTOL = 1e-7          # 1 - V evaluated in tail space
CLOSED_FORM_RTOL = 1e-8   # divergences, power levels, throughput terms
# The approach-to-1 fit takes 1 - v in double precision unless v rounds to
# exactly 1, which moves its exponent by up to ~1e-3 near saturation
# (4e-4 measured at tau = 0.25, n <= 1e6); a wrong transform or slope
# misses by more than 0.1.
FIT_ATOL = 1e-2
# Monte Carlo estimate against the exact TVD: its error count is rejected
# when a Poisson count with the exact mean lies that far out with less
# than this probability on either side (6 sigma for large counts; a normal
# bound would reject the single error that turns up about once in 500
# estimates when the mean count is ~2e-3).
MC_TAIL = 1e-9

# Relative errors below this are reported as this (17 digits).
_REL_FLOOR = 1e-17


@dataclass
class Verdict:
    """Outcome of checking one record.

    errors holds (quantity, relative error) for the three quantities that
    make up accuracy_digits: "V", "1-V" and "p_exact residual".
    """

    errors: list[tuple[str, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def reject(self, message: str) -> None:
        self.problems.append(message)


# ---------------------------------------------------------------- reference

def _lower(a: mpf, z: mpf) -> mpf:
    """P(a, z) = z^a e^-z / Gamma(a+1) * 1F1(1; a+1; z)."""
    if z == 0:
        return mpf(0)
    series = mp.hyp1f1(1, a + 1, z, maxterms=10**7)
    return mp.exp(-z + a * mp.log(z) - mp.loggamma(a + 1)) * series


def _upper_cf(a: mpf, z: mpf) -> mpf:
    """Q(a, z) by the modified-Lentz continued fraction, for z > a + 1."""
    tiny = mpf(10) ** (-2 * DPS)
    eps = mpf(10) ** (-DPS + 3)
    b = z + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < eps:
            return mp.exp(-z + a * mp.log(z) - mp.loggamma(a)) * h


def gamma_pq(a, z) -> tuple[mpf, mpf]:
    """(P(a, z), Q(a, z)) to about DPS digits; each side is computed
    directly where it is the small one, so tails keep full precision."""
    with mp.workdps(DPS):
        a = mpf(a)
        z = mpf(z)
        if z <= a + 4 * mp.sqrt(a):
            p = _lower(a, z)
            return p, 1 - p
        q = _upper_cf(a, z)
        return 1 - q, q


@functools.lru_cache(maxsize=4096)
def tvd_pair(n: int, theta: float) -> tuple[mpf, mpf]:
    """(V, 1 - V) at blocklength n and the double-precision snr theta
    (cached: a rate-fit check revisits its sweep's points)."""
    with mp.workdps(DPS):
        th = mpf(theta)
        a = mpf(n) / 2
        ratio = mp.log1p(th) / th
        f = a * (1 + th) * ratio
        g = a * ratio
        _, q_f = gamma_pq(a, f)
        p_g, _ = gamma_pq(a, g)
        return 1 - q_f - p_g, q_f + p_g


def q_inv(p: float) -> mpf:
    """x with Q(x) = p for the standard normal tail."""
    with mp.workdps(DPS):
        return mp.sqrt(2) * mp.erfinv(1 - 2 * mpf(p))


def power_levels(n: int, delta: float) -> tuple[mpf, mpf]:
    """(p_suf, p_nec) at unit noise variance, with lambda, lambda1 as in
    the paper: p = 2 lam / (1 - lam)."""
    with mp.workdps(DPS):
        d = mpf(delta)
        lam = mp.sqrt(1 - (1 - d) ** (mpf(4) / n))
        lam1 = mp.sqrt(1 - (1 - d * d) ** (mpf(2) / n))
        return 2 * lam1 / (1 - lam1), 2 * lam / (1 - lam)


def bounds(n: int, theta: float) -> dict[str, mpf]:
    """Closed-form divergences and TVD bounds (divergences in bits)."""
    with mp.workdps(DPS):
        th = mpf(theta)
        half = mpf(n) / 2
        kl_fwd = half * (th - mp.log1p(th))
        kl_rev = half * (mp.log1p(th) - th / (1 + th))
        base = 4 * (1 + th) / (2 + th) ** 2
        hsq = 1 - base ** (mpf(n) / 4)
        return {
            "kl_fwd": kl_fwd / mp.log(2),
            "kl_rev": kl_rev / mp.log(2),
            "hellinger_sq": hsq,
            "pinsker_upper": mp.sqrt(kl_fwd / 2),
            "sason_upper": mp.sqrt(1 - (1 - hsq) ** 2),
            "sqrt2h_upper": mp.sqrt(2 * hsq),
            "kl_exp_upper": mp.sqrt(1 - mp.exp(-kl_fwd)),
        }


def covert_throughput(n: int, eps: float, delta: float) -> dict[str, dict[str, mpf]]:
    """Covert-budget throughput terms: suf uses (y0, y), nec uses (y, y0)."""
    with mp.workdps(DPS):
        d = mpf(delta)
        lam = mp.sqrt(1 - (1 - d) ** (mpf(4) / n))
        lam1 = mp.sqrt(1 - (1 - d * d) ** (mpf(2) / n))
        log2e = 1 / mp.log(2)
        qi = q_inv(eps)

        def second(l):
            return -mp.sqrt(mpf(n) / 2 * log2e**2 * 4 * l / (1 + l) ** 2) * qi

        logn = mp.log(n, 2) / 2
        return {
            "suf": {"term_first": n * mp.log((1 + lam1) / (1 - lam1), 2),
                    "term_second": second(lam), "term_logn": logn},
            "nec": {"term_first": n * mp.log((1 + lam) / (1 - lam), 2),
                    "term_second": second(lam1), "term_logn": logn},
        }


# ----------------------------------------------------------------- checker

def _rel(x: float, ref: mpf) -> float:
    if ref == 0:
        return 0.0 if x == 0 else math.inf
    return max(_REL_FLOOR, float(abs(mpf(x) - ref) / abs(ref)))


def _close(x: float, ref: mpf, rtol: float) -> bool:
    return math.isfinite(x) and abs(mpf(x) - ref) <= rtol * abs(ref)


def _check_v(v: Verdict, n: int, theta: float, value: float, label: str) -> mpf:
    V, _ = tvd_pair(n, theta)
    v.errors.append(("V", _rel(value, V)))
    if not (math.isfinite(value) and abs(mpf(value) - V) <= V_RTOL * V + V_ATOL):
        v.reject(f"{label}: V={value!r} vs reference {mpmath.nstr(V, 17)} at n={n}, theta={theta!r}")
    return V


def _check_tail(v: Verdict, n: int, theta: float, value: float) -> None:
    _, C = tvd_pair(n, theta)
    v.errors.append(("1-V", _rel(value, C)))
    if not _close(value, C, TAIL_RTOL):
        v.reject(f"tvd_complement={value!r} vs reference {mpmath.nstr(C, 17)} at n={n}, theta={theta!r}")


def _check_power(v: Verdict, n: int, delta: float, p_suf: float, p_ex: float, p_nec: float) -> None:
    ref_suf, ref_nec = power_levels(n, delta)
    if not (_close(p_suf, ref_suf, CLOSED_FORM_RTOL) and _close(p_nec, ref_nec, CLOSED_FORM_RTOL)):
        v.reject(f"power levels ({p_suf!r}, {p_nec!r}) vs reference at n={n}, delta={delta!r}")
    if not (p_suf <= p_ex <= p_nec):
        v.reject(f"p_exact={p_ex!r} outside [p_suf, p_nec]=[{p_suf!r}, {p_nec!r}] at n={n}, delta={delta!r}")
        return
    V, _ = tvd_pair(n, p_ex)
    v.errors.append(("p_exact residual", max(_REL_FLOOR, float(abs(V - mpf(delta)) / delta))))
    if abs(V - mpf(delta)) > V_RTOL * delta + V_ATOL:
        v.reject(f"V(p_exact) = {mpmath.nstr(V, 17)} misses delta={delta!r} at n={n}")


def _check_bounds(v: Verdict, n: int, theta: float, rep: dict, V: mpf | None) -> None:
    ref = bounds(n, theta)
    for key, want in ref.items():
        if not _close(rep[key], want, CLOSED_FORM_RTOL):
            v.reject(f"{key}={rep[key]!r} vs reference {mpmath.nstr(want, 17)} at n={n}, theta={theta!r}")
    if V is not None:
        slack = V_RTOL * V + V_ATOL
        uppers = ("pinsker_upper", "sason_upper", "sqrt2h_upper", "kl_exp_upper")
        if rep["hellinger_sq"] > V + slack or any(rep[k] < V - slack for k in uppers):
            v.reject(f"bounds do not sandwich V at n={n}, theta={theta!r}")


def _check_series(v: Verdict, n: int, theta: float, value: float, err_estimate: float) -> None:
    """err_estimate is documented as |value - exact V|."""
    V, _ = tvd_pair(n, theta)
    if abs(abs(mpf(value) - V) - mpf(err_estimate)) > V_RTOL * V + V_ATOL:
        v.reject(f"tvd_series err_estimate={err_estimate!r} but |value - V| = "
                 f"{mpmath.nstr(abs(mpf(value) - V), 6)} at n={n}, theta={theta!r}")


def _reference_fit(tau: float, ns: list[int]) -> float:
    """Slope of the rate fit recomputed from reference values."""
    xs = [math.log(n) for n in ns]
    ys = []
    for n in ns:
        V, C = tvd_pair(n, float(n) ** (-tau))
        ys.append(float(mp.log(-mp.log(C))) if tau < 0.5 else float(mp.log(V)))
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _check_fit(v: Verdict, tau: float, ns: list[int], exponent: float) -> None:
    want = _reference_fit(tau, ns)
    if not (math.isfinite(exponent) and abs(exponent - want) <= FIT_ATOL):
        v.reject(f"fit exponent {exponent!r} vs reference {want!r} at tau={tau!r}")


def _check_report(v: Verdict, rep: dict, label: str) -> None:
    parts = rep["term_first"] + rep["term_second"] + rep["term_logn"]
    if not (math.isfinite(rep["bits"]) and abs(rep["bits"] - parts) <= 1e-9 * max(1.0, abs(parts))):
        v.reject(f"{label}: bits={rep['bits']!r} is not the sum of its terms {parts!r}")


def check(record: dict) -> Verdict:
    """Check one output record against the reference."""
    v = Verdict()
    kind = record["kind"]
    if kind in ("power_vs_n", "power_vs_delta", "power"):
        for n, delta, p_suf, p_ex, p_nec in record["rows"]:
            _check_power(v, n, delta, p_suf, p_ex, p_nec)
    elif kind in ("sweep", "sweep_fit", "fit"):
        for n, value in record.get("points", ()):
            _check_v(v, n, float(n) ** (-record["tau"]), value, "sweep_tvd")
        if "exponent" in record:
            _check_fit(v, record["tau"], record["ns"], record["exponent"])
    elif kind == "bounds_curve":
        for row in record["rows"]:
            V = _check_v(v, row["n"], row["theta"], row["tvd_exact"], "tvd_exact")
            _check_bounds(v, row["n"], row["theta"], row["bounds"], V)
            _check_series(v, row["n"], row["theta"], row["series"], row["series_err"])
    elif kind == "tvd_exact":
        _check_v(v, record["n"], record["theta"], record["value"], "tvd_exact")
    elif kind == "tvd_quadrature":
        _check_v(v, record["n"], record["theta"], record["value"], "tvd_quadrature")
    elif kind == "tvd_complement":
        _check_tail(v, record["n"], record["theta"], record["value"])
    elif kind == "tvd_series":
        _check_series(v, record["n"], record["theta"], record["value"], record["err_estimate"])
    elif kind == "tvd_bounds":
        V = _check_v(v, record["n"], record["theta"], record["tvd_exact"], "tvd_exact") \
            if "tvd_exact" in record else None
        _check_bounds(v, record["n"], record["theta"], record["bounds"], V)
    elif kind == "covert_throughput":
        ref = covert_throughput(record["n"], record["eps"], record["delta"])
        for side in ("suf", "nec"):
            rep = record[side]
            _check_report(v, rep, side)
            for key, want in ref[side].items():
                if not _close(rep[key], want, CLOSED_FORM_RTOL):
                    v.reject(f"covert {side} {key}={rep[key]!r} vs reference {mpmath.nstr(want, 17)}")
        if record["suf"]["bits"] > record["nec"]["bits"]:
            v.reject("covert throughput: suf bits exceed nec bits")
    elif kind == "achievability_full":
        # no closed form to compare with (the bound maximises over the shell
        # rate); only its decomposition into terms is checked
        _check_report(v, record["report"], "achievability_full")
    elif kind == "simulate_test":
        V, C = tvd_pair(record["n"], record["theta"])
        if "tvd_exact" in record:
            _check_v(v, record["n"], record["theta"], record["tvd_exact"], "tvd_exact")
        # the summed error count has mean m (1 - V) and variance at most
        # that, so a Poisson count with that mean bounds its tails
        m = record["m"]
        errors = round((record["alpha_hat"] + record["beta_hat"]) * m)
        mean = C * m
        at_least = gamma_pq(errors, mean)[0] if errors else mpf(1)  # P(K >= errors)
        at_most = gamma_pq(errors + 1, mean)[1]                     # P(K <= errors)
        if min(at_least, at_most) < MC_TAIL:
            v.reject(f"Monte Carlo error count {errors} of {m} is too unlikely "
                     f"(tail {mpmath.nstr(min(at_least, at_most), 3)}) for V = {mpmath.nstr(V, 10)}")
    else:
        raise ValueError(f"unknown record kind {kind!r}")
    return v
