"""Reference values computed apart from cfarkit, used to check its outputs.

Every oracle here is written from the model alone (exponential clutter,
Swerling I targets, a detector that declares a target when the cell under
test exceeds ``tau * g``); none imports the package under test.

A cell of scale ``c`` is exponential with mean ``c``.  With the cell under
test (CUT) of scale ``c0`` the exceedance probability of a statistic ``Y``
of the reference cells is ``E[exp(-u*Y)]`` with ``u = tau / c0``: a
Swerling I target of linear SCR ``S`` multiplies ``c0`` by ``1 + S``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, special

UNTESTED = -1  # decision code of a cell without a complete window


def ca_exceed(u: float, scales) -> float:
    """Sum statistic: ``prod_i (1 + u*c_i)^-1``, a product of exponential MGFs."""
    c = np.asarray(scales, dtype=float)
    return math.exp(-float(np.sum(np.log1p(u * c))))


def _binom_pmf(count: int, q: float) -> np.ndarray:
    """Binomial(count, q) PMF from log-gamma terms, exact down to underflow."""
    j = np.arange(count + 1)
    log_choose = math.lgamma(count + 1) - special.gammaln(j + 1) - special.gammaln(count - j + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = log_choose + special.xlogy(j, q) + special.xlog1py(count - j, -q)
    return np.exp(log_pmf)


def _count_at_most(x: float, populations) -> np.ndarray:
    """PMF of how many cells are <= x: a Poisson-binomial over the populations."""
    pmf = np.ones(1)
    for count, scale in populations:
        if count:
            pmf = np.convolve(pmf, _binom_pmf(count, -math.expm1(-x / scale)))
    return pmf


def os_exceed(u: float, k: int, populations) -> float:
    """k-th order statistic over cell populations ``[(count, scale), ...]``.

    ``E[exp(-u*X_(k))] = int_0^inf exp(-t) P(X_(k) <= t/u) dt`` by a 1-D
    quadrature; ``P(X_(k) <= x)`` is the chance that at least ``k`` cells
    are at most ``x``.
    """
    n = sum(count for count, _ in populations)
    if not 1 <= k <= n:
        raise ValueError(f"order index {k} outside 1..{n}")

    def integrand(t: float) -> float:
        return math.exp(-t) * float(_count_at_most(t / u, populations)[k:].sum())

    # the integrand rises from 0 like t**k and decays like exp(-t); split
    # where its bulk lies so the adaptive rule sees both ends
    edges = [0.0, 1.0, 4.0, 16.0, 64.0, math.inf]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)
        total += part
    return total


def ideal_pd(pfa: float, scr: float) -> float:
    """Clairvoyant fixed threshold: ``pfa ** (1 / (1 + S))``."""
    return pfa ** (1.0 / (1.0 + scr))


def gm_pfa_cmc(tau: float, n: int, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """False-alarm rate of the geometric-mean detector at ``tau``.

    Conditional Monte Carlo: the CUT is integrated out exactly, leaving
    ``E[exp(-tau * GM)]`` over ``n`` unit exponentials.  Returns the
    estimate and its standard error.
    """
    acc = []
    chunk = 1 << 16
    for start in range(0, samples, chunk):
        rows = min(chunk, samples - start)
        x = rng.standard_exponential((rows, n))
        acc.append(np.exp(-tau * np.exp(np.log(x).mean(axis=1))))
    values = np.concatenate(acc)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def slide_reference(profile: np.ndarray, stat: str, k: int | None, n: int, guard: int,
                    tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Decisions of a sliding detector and each tested cell's relative margin.

    ``stat`` is ``sum``, ``os``, ``min`` or ``gm``.  Cells without ``n/2``
    reference cells plus ``guard/2`` guard cells on both sides are
    ``UNTESTED`` (margin ``inf``).  The margin ``|cut - tau*g| / (tau*g)``
    lets a check ignore cells whose decision rounding could flip.
    """
    profile = np.asarray(profile, dtype=float)
    half, gs = n // 2, guard // 2
    reach = half + gs
    span = 2 * reach + 1
    win = sliding_window_view(profile, span)
    crp = np.concatenate([win[:, :half], win[:, span - half:]], axis=1)
    cut = win[:, reach]
    if stat == "sum":
        g = crp.sum(axis=1)
    elif stat == "os":
        g = np.sort(crp, axis=1)[:, k - 1]
    elif stat == "min":
        g = crp.min(axis=1)
    elif stat == "gm":
        g = np.exp(np.log(crp).mean(axis=1))
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    level = tau * g
    decisions = np.full(profile.size, UNTESTED, dtype=np.int8)
    decisions[reach:profile.size - reach] = cut > level
    margin = np.full(profile.size, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        margin[reach:profile.size - reach] = np.abs(cut - level) / level
    return decisions, margin
