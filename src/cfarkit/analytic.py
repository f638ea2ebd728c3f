"""Exact performance of the CA, OS, GM, and ideal fixed-threshold detectors.

All expressions assume exponential clutter of rate ``lambda`` and a
Swerling I target of linear SCR ``S`` in the cell under test, which is
then exponential with rate ``lambda/(1+S)``.

Cell averaging (sum statistic over ``N`` cells, multiplier ``tau``)::

    Pd  = (1 + tau/(1+S)) ** -N
    Pfa = (1 + tau) ** -N              # S = 0

Order statistic (k-th smallest of ``N``)::

    Pd  = N!/(N-k)! * G(u + N - k + 1) / G(u + N + 1),   u = tau/(1+S)
    Pfa = same with u = tau

with ``G`` the gamma function.  Both are evaluated purely in log space:
``G(tau + N + 1)`` overflows double precision for modest ``N``, while the
log-gamma differences stay small and well conditioned.

Geometric mean (``g = (X_1 ... X_N)**(1/N)``)::

    Pfa = E[exp(-tau g)] = (1/2 pi i) * integral G(s) tau**-s G(1 - s/N)**N ds
    Pd  = Pfa at tau/(1+S)

on a line ``Re s = c``, ``0 < c < N``: the Mellin-Barnes form of
``exp(-x)`` with ``E[g**-s] = G(1 - s/N)**N``.  It is evaluated by one
trapezoid sum in log space, which stops once the integrand has decayed
and also gives ``d log Pfa / d log tau`` for Newton steps in ``log tau``.

The ideal detector compares the CUT against the fixed level
``-ln(Pfa)/lambda``, which requires exact knowledge of ``lambda`` and so
is not CFAR; it serves as the performance upper bound.  Its detection
probability follows in one line: an exponential variate of rate
``lambda/(1+S)`` exceeds ``-ln(p)/lambda`` with probability
``exp(ln(p)/(1+S)) = p**(1/(1+S))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverSettings",
    "ThresholdSolverError",
    "ca_pd",
    "ca_pfa",
    "ca_threshold",
    "os_pd",
    "os_pfa",
    "os_threshold",
    "gm_pd",
    "gm_pfa",
    "gm_threshold",
    "ideal_threshold",
    "ideal_pd",
]


@dataclass(frozen=True)
class SolverSettings:
    """Controls for the threshold solver (regula falsi for OS, Newton for GM).

    ``relative_tolerance`` bounds the relative false-alarm residual at the
    returned threshold; ``max_iterations`` counts Pfa evaluations.
    """

    relative_tolerance: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class ThresholdSolverError(RuntimeError):
    """Raised when the threshold solver exhausts its iteration budget."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (last bracket [{bracket[0]!r}, {bracket[1]!r}])")
        self.bracket = bracket


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"threshold multiplier must be finite and >= 0, got {tau!r}")


def _check_scr(scr: float) -> None:
    if not (math.isfinite(scr) and scr >= 0):
        raise ValueError(f"SCR must be finite and >= 0, got {scr!r}")


def _check_pfa(pfa: float) -> None:
    if not (0.0 < pfa <= 1.0):
        raise ValueError(f"design Pfa must lie in (0, 1], got {pfa!r}")


def _check_window(n: int) -> None:
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")


def ca_pd(tau: float, scr: float, n: int) -> float:
    """Cell-averaging detection probability ``(1 + tau/(1+scr))**-n``.

    Evaluated as ``exp(-n*log1p(...))`` so large ``n`` cannot overflow.
    """
    _check_tau(tau)
    _check_scr(scr)
    _check_window(n)
    return math.exp(-n * math.log1p(tau / (1.0 + scr)))


def ca_pfa(tau: float, n: int) -> float:
    """Cell-averaging false-alarm probability ``(1+tau)**-n`` (Pd at S=0)."""
    return ca_pd(tau, 0.0, n)


def ca_threshold(pfa: float, n: int) -> float:
    """Multiplier achieving a given cell-averaging Pfa: ``pfa**(-1/n) - 1``."""
    _check_pfa(pfa)
    _check_window(n)
    return pfa ** (-1.0 / n) - 1.0


def _os_log_prob(u: float, n: int, k: int) -> float:
    """log of the order-statistic exceedance probability at shifted multiplier u."""
    if k == 1:
        # N/(N+u): the log-gamma differences below cancel catastrophically
        return -math.log1p(u / n)
    return (
        math.lgamma(n + 1)
        - math.lgamma(n - k + 1)
        + math.lgamma(u + n - k + 1)
        - math.lgamma(u + n + 1)
    )


def _check_os_index(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"order-statistic index must satisfy 1 <= k <= {n}, got {k}")


def os_pd(tau: float, scr: float, n: int, k: int) -> float:
    """Order-statistic detection probability via log-gamma differences."""
    _check_tau(tau)
    _check_scr(scr)
    _check_window(n)
    _check_os_index(k, n)
    return math.exp(_os_log_prob(tau / (1.0 + scr), n, k))


def os_pfa(tau: float, n: int, k: int) -> float:
    """Order-statistic false-alarm probability (Pd at S=0, same code path)."""
    return os_pd(tau, 0.0, n, k)


def os_threshold(
    pfa: float, n: int, k: int, settings: SolverSettings = SolverSettings()
) -> float:
    """Invert the order-statistic Pfa for the threshold multiplier.

    The minimum (``k == 1``) has Pfa ``N/(N+tau)`` and is inverted in
    closed form; every other index goes through the bracketed solver.
    """
    _check_pfa(pfa)
    _check_window(n)
    _check_os_index(k, n)
    if k == 1:
        tau = n * (1.0 - pfa) / pfa
        if math.isinf(tau):
            raise ValueError(f"minimum-detector multiplier at Pfa {pfa!r}, N={n} overflows")
        return tau
    return _solve_threshold(lambda tau: _os_log_prob(tau, n, k), pfa, settings)


# Stirling-series coefficients B_2j / (2j (2j - 1)), j = 1..7, summed by
# np.polyval: numpy.polynomial is a lazy subpackage that takes 4 ms to load
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log1p(x: np.ndarray) -> np.ndarray:
    """Complex ``log(1 + x)``, accurate relative to ``|x|`` for small ``x``."""
    a, b = x.real, x.imag
    # |1 + x|**2 - 1 keeps small x exact; where a <= -1/2, 1 + a is exact itself
    modulus = np.where(a > -0.5, 0.5 * np.log1p(a * (2.0 + a) + b * b), np.log(np.hypot(1.0 + a, b)))
    return modulus + 1j * np.arctan2(b, 1.0 + a)


def _log_gamma1p(x: np.ndarray) -> np.ndarray:
    """Complex ``log G(1 + x)`` for ``Re x > -1``, up to multiples of ``2*pi*i``.

    ``G(1 + x) = G(11 + x) / ((1 + x) ... (10 + x))`` moves the argument to
    ``Re >= 10``, where seven Stirling terms are accurate to 1e-16.  Each
    part is written as its change from ``x = 0``, so near ``x = 0`` the
    error shrinks with ``|x|`` instead of staying near 1e-15, as
    ``N log G(1 - s/N)`` needs at large ``N``.  Only ``exp`` of the result
    is used.
    """
    w = 11.0 + x
    series = np.polyval(_STIRLING[::-1], 1.0 / (w * w)) / w
    series -= np.polyval(_STIRLING[::-1], 1.0 / 121.0) / 11.0
    shift = np.zeros_like(x)  # (1 + x)(1 + x/2) ... (1 + x/10) - 1
    for j in range(1, 11):
        shift += (x / j) * (1.0 + shift)
    stirling = (10.5 + x) * _log1p(x / 11.0) + x * (math.log(11.0) - 1.0)
    return stirling + series - _log1p(shift)


# Trapezoid rule on the upper half of the contour (the integrand is conjugate
# symmetric): nodes Im s = 0, h, ..., 60, weights h/pi halved at 0.  A contour
# 0.1 or more from the poles at s = -1, 0 and N bounds the error by
# exp(-2 pi 0.1 / h) of the integrand's size.  Its modulus falls with |Im s|,
# so chunks of 1280 nodes (Im s = 25.6, enough for N <= 64) are summed until
# it has decayed.
_GM_STEP = 0.02
_GM_NODES = 1j * np.arange(0.0, 60.0 + _GM_STEP / 2, _GM_STEP)
_GM_WEIGHTS = np.where(_GM_NODES == 0, 0.5, 1.0) * _GM_STEP / math.pi


def _gm_log_pfa(tau: float, n: int) -> float:
    """log of the geometric-mean false-alarm probability at multiplier ``tau``."""
    return _gm_quadrature(tau, n)[0]


def _gm_quadrature(tau: float, n: int) -> tuple[float, float]:
    """log Pfa of the geometric mean at ``tau`` and its slope ``d log Pfa / d log tau``.

    The contour ``Re s = c`` runs through the saddle point, the minimum of
    the convex ``log(tau**-c G(c) G(1 - c/n)**n)`` on ``[0.25, n - 0.25]``.
    Where the saddle would sit left of 0.25 (``tau`` below 0.03 to 0.04, Pfa
    near 1) the line moves past the pole at ``s = 0`` into ``[-0.9, -0.1]``
    and the residue 1 is added: the line then carries ``Pfa - 1`` to full
    relative precision.  ``1 >= Pfa >= 1 - tau``, so below ``tau = 1e-30``
    the log Pfa is returned as 0.  The slope weights the same terms by
    ``-s``.  A sum whose integrand has not decayed by ``Im s = 60``, or that
    cancels by more than six digits, is refused: N = 1024 below Pfa 1e-15.
    """
    if tau <= 1e-30:
        return 0.0, 0.0
    log_tau = math.log(tau)

    def log_peak(c: float) -> float:
        return math.lgamma(c) + n * math.lgamma(1.0 - c / n) - c * log_tau

    def saddle(lo: float, hi: float) -> float:
        for _ in range(16):  # shrinks the bracket to (2/3)**16 of its width
            m1, m2 = (2.0 * lo + hi) / 3.0, (lo + 2.0 * hi) / 3.0
            lo, hi = (lo, m2) if log_peak(m1) < log_peak(m2) else (m1, hi)
        return 0.5 * (lo + hi)

    residue = log_peak(0.25) <= log_peak(0.26)  # the saddle lies left of about 0.25
    c = saddle(-0.9, -0.1) if residue else saddle(0.25, n - 0.25)
    peak, parts = log_peak(c), []  # log |integrand| at Im s = 0
    for start in range(0, _GM_NODES.size, 1280):
        s = c + _GM_NODES[start:start + 1280]
        log_g = _log_gamma1p(np.concatenate((s, -s / n)))
        log_f = log_g[:s.size] - np.log(s) + n * log_g[s.size:] - s * log_tau
        parts.append(_GM_WEIGHTS[start:start + s.size] * np.exp(log_f - peak))
        if abs(parts[-1][-1]) < 1e-16 * abs(parts[0].real.sum()):
            break
    terms = np.concatenate(parts)
    total = float(terms.real.sum()) * (-1.0 if residue else 1.0)
    trusted = abs(terms[-1]) < 1e-16 * total and np.abs(terms).sum() < 1e6 * total
    if not (total > 0.0 and trusted):
        raise ValueError(f"geometric-mean Pfa at tau={tau!r}, N={n} is beyond the quadrature")
    slope = -float(((c + _GM_NODES[:terms.size]) * terms).real.sum())
    if residue:
        log_pfa = math.log1p(-total * math.exp(peak))
        return log_pfa, slope * math.exp(peak - log_pfa)
    return min(0.0, peak + math.log(total)), slope / total


def gm_pd(tau: float, scr: float, n: int) -> float:
    """Geometric-mean detection probability: the Pfa at ``tau/(1+scr)``."""
    _check_tau(tau)
    _check_scr(scr)
    _check_window(n)
    return math.exp(_gm_log_pfa(tau / (1.0 + scr), n))


def gm_pfa(tau: float, n: int) -> float:
    """Geometric-mean false-alarm probability (Pd at S=0, same code path)."""
    return gm_pd(tau, 0.0, n)


def gm_threshold(pfa: float, n: int, settings: SolverSettings = SolverSettings()) -> float:
    """Invert the geometric-mean Pfa for the threshold multiplier.

    ``min <= g <= mean`` brackets the root between N times the CA multiplier
    and the minimum detector's ``N (1 - pfa) / pfa``, equal at N = 1.
    """
    _check_pfa(pfa)
    _check_window(n)
    lo = n * math.expm1(min(-math.log(pfa) / n, 709.0))  # both edges kept finite
    hi = min(n * ((1.0 - pfa) / pfa), 1e308)
    return _solve_threshold(lambda tau: _gm_quadrature(tau, n), pfa, settings, (lo, hi))


def _solve_threshold(log_prob, pfa: float, settings: SolverSettings, bracket=None) -> float:
    """Solve ``log_prob(tau) = log(pfa)`` for ``tau >= 0``, ``0 < pfa <= 1``.

    ``log_prob`` is continuous and strictly decreasing from 0 at ``tau = 0``,
    so ``pfa = 1`` has the root 0.  Given a ``bracket`` of the root,
    ``log_prob`` also returns ``d log Pfa / d log tau`` for Newton steps in
    ``log tau`` from its lower edge, with bisection for a step that leaves
    it.  Otherwise the root is bracketed by doubling from 1, then polished
    by regula falsi safeguarded by bisection.  Either way the solve stops
    when the relative Pfa residual is within ``settings.relative_tolerance``
    or the bracket collapses to machine precision.  Exhausting the
    iteration budget raises :class:`ThresholdSolverError` with the last bracket.
    """
    if pfa == 1.0:
        return 0.0
    log_pfa = math.log(pfa)

    def residual(tau: float) -> float:
        # log-space residual; strictly decreasing in tau
        return log_prob(tau) - log_pfa

    lo, hi = bracket or (0.0, 1.0)
    iterations, cand, f_best = 0, lo, math.inf
    if not bracket:
        f_lo, f_hi = -log_pfa, residual(hi)
        while f_hi > 0.0:
            iterations += 1
            if iterations >= settings.max_iterations:
                raise ThresholdSolverError("bracket growth exhausted iterations", (lo, hi))
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi = residual(hi)
        best, f_best = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)

    use_bisection = False
    while iterations < settings.max_iterations:
        iterations += 1
        if bracket:
            f_cand, slope = log_prob(cand)
            f_cand -= log_pfa
        else:
            # Alternate regula falsi with plain bisection: falsi gives fast
            # convergence on this smooth monotone residual, bisection guarantees
            # the bracket collapses even when falsi stalls one-sided.
            cand = lo + f_lo * (hi - lo) / (f_lo - f_hi)
            if use_bisection or not (lo < cand < hi):
                cand = 0.5 * (lo + hi)
            use_bisection = not use_bisection
            f_cand = residual(cand)
        if abs(f_cand) < abs(f_best):
            best, f_best = cand, f_cand
        # |expm1(log residual)| is the relative Pfa error at the candidate.
        if abs(math.expm1(f_cand)) <= settings.relative_tolerance:
            return cand
        if f_cand > 0.0:
            lo, f_lo = cand, f_cand
        else:
            hi, f_hi = cand, f_cand
        if hi - lo <= 4.0 * math.ulp(hi):
            return best
        if bracket:  # a Newton step in log tau, else bisection in log tau
            cand *= math.exp(min(-f_cand / min(slope, -1e-300), 700.0))
            if not lo < cand < hi:
                cand = math.sqrt(lo) * math.sqrt(hi)
    raise ThresholdSolverError("threshold solver failed to converge", (lo, hi))


def ideal_threshold(pfa: float, rate: float) -> float:
    """Fixed detection level ``-ln(pfa)/rate`` of the clairvoyant detector."""
    _check_pfa(pfa)
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"clutter rate must be finite and > 0, got {rate!r}")
    return -math.log(pfa) / rate


def ideal_pd(pfa: float, scr: float) -> float:
    """Detection probability ``pfa**(1/(1+scr))`` of the ideal detector.

    Independent of the clutter rate: the rate cancels between the fixed
    level and the CUT distribution.
    """
    _check_pfa(pfa)
    _check_scr(scr)
    return pfa ** (1.0 / (1.0 + scr))
