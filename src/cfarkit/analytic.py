"""Closed-form performance of the CA, OS, and ideal fixed-threshold detectors.

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

__all__ = [
    "SolverSettings",
    "ThresholdSolverError",
    "ca_pd",
    "ca_pfa",
    "ca_threshold",
    "os_pd",
    "os_pfa",
    "os_threshold",
    "ideal_threshold",
    "ideal_pd",
]


@dataclass(frozen=True)
class SolverSettings:
    """Controls for the bracketed threshold solver.

    ``relative_tolerance`` bounds the relative false-alarm residual at the
    returned threshold; ``bracket_hi_initial`` seeds the geometric bracket
    growth.
    """

    relative_tolerance: float = 1e-12
    max_iterations: int = 200
    bracket_hi_initial: float = 1.0

    def __post_init__(self) -> None:
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.bracket_hi_initial > 0:
            raise ValueError("bracket_hi_initial must be > 0")


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

    The Pfa is continuous and strictly decreasing in ``tau``, so the root
    is bracketed by growing the upper edge geometrically and then polished
    with regula falsi steps safeguarded by bisection.  Convergence is
    declared when the relative Pfa residual drops below
    ``settings.relative_tolerance`` or the bracket collapses to machine
    precision (whichever comes first); exhausting the iteration budget
    raises :class:`ThresholdSolverError` with the last bracket.  The
    minimum (``k == 1``) has Pfa ``N/(N+tau)`` and is inverted in closed
    form.
    """
    _check_pfa(pfa)
    _check_window(n)
    _check_os_index(k, n)
    if pfa == 1.0:
        return 0.0
    if k == 1:
        return n * (1.0 - pfa) / pfa

    log_pfa = math.log(pfa)

    def residual(tau: float) -> float:
        # log-space residual; strictly decreasing in tau
        return _os_log_prob(tau, n, k) - log_pfa

    lo, f_lo = 0.0, -log_pfa
    hi = settings.bracket_hi_initial
    iterations = 0
    f_hi = residual(hi)
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
