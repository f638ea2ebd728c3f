"""Exact performance of the CA, OS, GM, and ideal fixed-threshold detectors.

All expressions assume exponential clutter of rate ``lambda`` and a
Swerling I target of linear SCR ``S`` in the cell under test, which is
then exponential with rate ``lambda/(1+S)``.

Cell averaging (sum statistic over ``N`` cells, multiplier ``tau``)::

    Pd  = (1 + tau/(1+S)) ** -N
    Pfa = (1 + tau) ** -N              # S = 0

Order statistic (k-th smallest of ``N``), Rohling's product form::

    Pd  = prod_{i=N-k+1..N} i / (i + u),   u = tau/(1+S)
    Pfa = same with u = tau

Its log is a sum of k terms ``-log1p(u/i)`` of one sign, which neither
cancels nor overflows; the minimum (k = 1) is its one factor ``N/(N+u)``.

Geometric mean (``g = (X_1 ... X_N)**(1/N)``)::

    Pfa = E[exp(-tau g)] = (1/2 pi i) * integral G(s) tau**-s G(1 - s/N)**N ds
    Pd  = Pfa at tau/(1+S)

with ``G`` the gamma function, on a line ``Re s = c``, ``0 < c < N``:
the Mellin-Barnes form of ``exp(-x)`` with ``E[g**-s] = G(1 - s/N)**N``.
It is evaluated by one trapezoid sum in log space, which stops once the
integrand has decayed and also gives ``d log Pfa / d log tau``.

The OS and GM thresholds come from one solver: Newton steps in
``log tau`` inside a bracket of the root that each Pfa supplies.

The ideal detector compares the CUT against the fixed level
``-ln(Pfa)/lambda``, which requires exact knowledge of ``lambda`` and so
is not CFAR; it serves as the performance upper bound.  Its detection
probability follows in one line: an exponential variate of rate
``lambda/(1+S)`` exceeds ``-ln(p)/lambda`` with probability
``exp(ln(p)/(1+S)) = p**(1/(1+S))``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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


# the threshold solver (bracketed Newton in ``log tau``, OS and GM) returns
# once the relative Pfa residual is within _RELATIVE_TOLERANCE times
# min(1, |d log Pfa / d log tau|), which also bounds the relative error of
# tau where Pfa is near 1, and gives up after _MAX_EVALUATIONS evaluations
_RELATIVE_TOLERANCE = 1e-12
_MAX_EVALUATIONS = 200


class ThresholdSolverError(RuntimeError):
    """Raised when the threshold solver exhausts its evaluation budget."""

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


def _check_count(name: str, value, low: int) -> None:
    """Refuse a ``value`` that is not an integer (a bool, a float) or is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_window(n: int) -> None:
    _check_count("window length", n, 1)


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
    """Multiplier achieving a given cell-averaging Pfa: ``pfa**(-1/n) - 1``.

    ``expm1`` keeps the digits that the subtraction cancels below 1; above,
    the power is exact where ``expm1`` would amplify the error of ``log``.
    """
    _check_pfa(pfa)
    _check_window(n)
    x = -math.log(pfa) / n
    try:
        return math.expm1(x) if x < math.log(2.0) else pfa ** (-1.0 / n) - 1.0
    except OverflowError:
        raise ValueError(f"cell-averaging multiplier at Pfa {pfa!r}, N={n} overflows") from None


def _os_log_prob(u: float, n: int, k: int) -> tuple[float, float]:
    """log Pfa of the k-th smallest of N at multiplier ``u``, and ``d log Pfa / d log u``.

    Rohling's product ``prod_{i=N-k+1..N} i/(i + u)`` has k positive
    factors, so its log is a sum of ``-log1p(u/i)`` without cancellation.
    """
    x = u / np.arange(n - k + 1, n + 1.0)
    return -float(np.log1p(x).sum()), -float((x / (1.0 + x)).sum())


def _check_os_index(k: int, n: int) -> None:
    _check_count("order-statistic index", k, 1)
    if k > n:
        raise ValueError(f"order-statistic index must satisfy 1 <= k <= {n}, got {k}")


def os_pd(tau: float, scr: float, n: int, k: int) -> float:
    """Order-statistic detection probability: the product form at ``tau/(1+scr)``."""
    _check_tau(tau)
    _check_scr(scr)
    _check_window(n)
    _check_os_index(k, n)
    return math.exp(_os_log_prob(tau / (1.0 + scr), n, k)[0])


def os_pfa(tau: float, n: int, k: int) -> float:
    """Order-statistic false-alarm probability (Pd at S=0, same code path)."""
    return os_pd(tau, 0.0, n, k)


def os_threshold(pfa: float, n: int, k: int) -> float:
    """Invert the order-statistic Pfa for the threshold multiplier.

    Each factor ``i/(i + tau)`` lies between ``(N-k+1)/(N-k+1 + tau)`` and
    ``N/(N + tau)``, so the root lies between ``N-k+1`` and ``N`` times the
    CA multiplier of k cells.  The edges meet at k = 1, the minimum.
    """
    _check_pfa(pfa)
    _check_window(n)
    _check_os_index(k, n)
    try:
        unit = ca_threshold(pfa, k)  # (1 + unit)**-k = pfa
    except ValueError:  # overflows only at k = 1
        unit = math.inf
    if math.isinf(n * unit):
        raise ValueError(f"minimum-detector multiplier at Pfa {pfa!r}, N={n} overflows")
    bracket = ((n - k + 1) * unit, n * unit)
    return _solve_threshold(lambda tau: _os_log_prob(tau, n, k), pfa, bracket)


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
# symmetric): nodes Im s = 0, h, 2h, ..., weights h/pi halved at 0.  A contour
# 0.1 or more from the poles at s = -1, 0 and N bounds the error by
# exp(-2 pi 0.1 / h) of the integrand's size.  Its modulus falls with |Im s|,
# so chunks of 1280 nodes (Im s = 25.6, enough for N <= 64) are built and
# summed until it has decayed, up to Im s = 2048.
_GM_STEP, _GM_CHUNK, _GM_NODES = 0.02, 1280, 102400


def _gm_quadrature(tau: float, n: int) -> tuple[float, float]:
    """log Pfa of the geometric mean at ``tau`` and its slope ``d log Pfa / d log tau``.

    The contour ``Re s = c`` runs through the saddle point, the minimum of
    the convex ``log(tau**-c G(c) G(1 - c/n)**n)`` on ``[0.25, n - 0.25]``.
    Where the saddle would sit left of 0.25 (``tau`` below 0.03 to 0.04, Pfa
    near 1) the line moves past the pole at ``s = 0`` into ``[-0.9, -0.1]``
    and the residue 1 is added: the line then carries ``Pfa - 1`` to full
    relative precision.  ``1 >= Pfa >= 1 - tau``, so below ``tau = 1e-30``
    the log Pfa is returned as 0.  The slope weights the same terms by
    ``-s``.  A sum whose integrand has not decayed by ``Im s = 2048``, or
    that cancels by more than six digits, is refused: N <= 4 at some Pfas
    below 1e-15.
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
    for start in range(0, _GM_NODES, _GM_CHUNK):
        j = np.arange(start, start + _GM_CHUNK)
        s = c + 1j * (_GM_STEP * j)
        log_g = _log_gamma1p(np.concatenate((s, -s / n)))
        log_f = log_g[:s.size] - np.log(s) + n * log_g[s.size:] - s * log_tau
        parts.append(np.where(j == 0, 0.5, 1.0) * _GM_STEP / math.pi * np.exp(log_f - peak))
        if abs(parts[-1][-1]) < 1e-16 * abs(parts[0].real.sum()):
            break
    terms = np.concatenate(parts)
    total = float(terms.real.sum()) * (-1.0 if residue else 1.0)
    trusted = abs(terms[-1]) < 1e-16 * total and np.abs(terms).sum() < 1e6 * total
    if not (total > 0.0 and trusted):
        raise ValueError(f"geometric-mean Pfa at tau={tau!r}, N={n} is beyond the quadrature")
    slope = -float(((c + 1j * (_GM_STEP * np.arange(terms.size))) * terms).real.sum())
    if residue:
        log_pfa = math.log1p(-total * math.exp(peak))
        return log_pfa, slope * math.exp(peak - log_pfa)
    return min(0.0, peak + math.log(total)), slope / total


def gm_pd(tau: float, scr: float, n: int) -> float:
    """Geometric-mean detection probability: the Pfa at ``tau/(1+scr)``."""
    _check_tau(tau)
    _check_scr(scr)
    _check_window(n)
    return math.exp(_gm_quadrature(tau / (1.0 + scr), n)[0])


def gm_pfa(tau: float, n: int) -> float:
    """Geometric-mean false-alarm probability (Pd at S=0, same code path)."""
    return gm_pd(tau, 0.0, n)


def gm_threshold(pfa: float, n: int) -> float:
    """Invert the geometric-mean Pfa for the threshold multiplier.

    ``min <= g <= mean`` brackets the root between N times the CA
    multipliers of N cells and of one cell (the minimum detector's), which
    are equal at N = 1, where the geometric mean is the cell itself.
    """
    _check_pfa(pfa)
    _check_window(n)
    try:  # overflows only at N = 1, where the root 1/pfa - 1 itself does
        lo = n * ca_threshold(pfa, n)
    except ValueError:
        raise ValueError(f"geometric-mean multiplier at Pfa {pfa!r}, N={n} overflows") from None
    hi = min(n * ca_threshold(max(pfa, 1e-308), 1), 1e308)  # kept finite
    return _solve_threshold(lambda tau: _gm_quadrature(tau, n), pfa, (lo, hi))


def _solve_threshold(log_prob, pfa: float, bracket) -> float:
    """Solve ``log Pfa(tau) = log(pfa)`` for ``tau`` in ``bracket``, ``0 < pfa <= 1``.

    ``log_prob(tau)`` returns ``log Pfa`` and ``d log Pfa / d log tau``;
    ``log Pfa`` is continuous and strictly decreasing from 0 at ``tau = 0``,
    so ``pfa = 1`` has the root 0.  Newton steps in ``log tau`` start from
    the lower edge, with bisection in ``log tau`` for a step that leaves
    the bracket.  The solve stops when the relative Pfa residual is within
    ``_RELATIVE_TOLERANCE`` times ``min(1, |slope|)``, which also bounds
    the relative error of ``tau``, or the bracket is within machine
    precision, at once for a bracket of zero width.  ``_MAX_EVALUATIONS``
    evaluations without either raise :class:`ThresholdSolverError` with
    the last bracket.
    """
    if pfa == 1.0:
        return 0.0
    log_pfa = math.log(pfa)
    lo, hi = bracket
    cand, best, f_best = lo, lo, math.inf
    for _ in range(_MAX_EVALUATIONS):
        if hi - lo <= 4.0 * math.ulp(hi):
            return best
        f_cand, slope = log_prob(cand)
        f_cand -= log_pfa
        if abs(f_cand) < abs(f_best):
            best, f_best = cand, f_cand
        # |expm1(log residual)| is the relative Pfa error at the candidate, and
        # that over |slope| the relative error of tau, large where Pfa is near 1
        if abs(math.expm1(f_cand)) <= _RELATIVE_TOLERANCE * min(1.0, -slope):
            return cand
        if f_cand > 0.0:
            lo = cand
        else:
            hi = cand
        # a Newton step in log tau, else bisection in log tau
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
