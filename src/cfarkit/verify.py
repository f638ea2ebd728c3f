"""Self-check registry behind the ``verify`` subcommand.

Each property is a fast, deterministic check of an invariant the toolkit
is built on: scale invariance of the clutter statistics, inversion round
trips, exchangeability identities, analytic dominance relations, and the
defining CFAR property.  That property, a false-alarm rate independent of
the clutter power, is ``decision-scale-invariance``: scaling the CUT and
every CRP cell by one factor leaves each decision as it was.  No property
runs the Monte Carlo engine, so each one passes or fails exactly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import ca_pd, ca_threshold, ideal_pd, os_pd, os_pfa, os_threshold
from .detector import GeometricMean, OrderStatistic, Sum, clutter_statistic, decide
from .stats import db_to_linear, linear_to_db

__all__ = ["PropertyResult", "run_properties"]

_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
_ALL_STATS = (Sum(), OrderStatistic(7), OrderStatistic(31), GeometricMean(), OrderStatistic(1))
_VERIFY_SEED = 20260810


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def _check_scale_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED)
    worst = 0.0
    for _ in range(50):
        crp = rng.exponential(size=32)
        for stat in _ALL_STATS:
            g = clutter_statistic(stat, crp)
            for eta in _SCALES:
                err = abs(clutter_statistic(stat, eta * crp) - eta * g) / (eta * g)
                worst = max(worst, err)
    return worst <= 1e-12, f"worst relative error {worst:.2e} (bound 1e-12)"


def _check_decision_scale_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 1)
    stats = (Sum(), OrderStatistic(7), OrderStatistic(15), GeometricMean(), OrderStatistic(1))
    for _ in range(200):
        crp = rng.exponential(size=16)
        z0 = float(rng.exponential())
        tau = float(rng.uniform(0.0, 3.0))
        for stat in stats:
            base = decide(z0, clutter_statistic(stat, crp), tau)
            for eta in _SCALES:
                scaled = decide(eta * z0, clutter_statistic(stat, eta * crp), tau)
                if scaled is not base:
                    return False, f"decision flipped at eta={eta:g} for {stat!r}"
    return True, "decision invariant over all tested scalings"


def _check_order_statistic() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 2)
    for _ in range(100):
        crp = rng.exponential(size=24)
        ordered = np.sort(crp)
        for k in (1, 5, 12, 24):
            want = ordered[k - 1]
            for _ in range(4):
                got = clutter_statistic(OrderStatistic(k), rng.permutation(crp))
                if got != want:
                    return False, f"k={k}: permutation changed the statistic"
    return True, "permutation invariant and equal to sorted copy"


def _check_sum_compression() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 3)
    worst = 0.0
    for _ in range(200):
        crp = rng.exponential(size=32)
        direct = float(np.sum(crp))
        worst = max(worst, abs(clutter_statistic(Sum(), crp) - direct) / direct)
    return worst <= 1e-12, f"half-bank sum vs direct sum, worst {worst:.2e}"


def _round_trip(stats_of, bound: float) -> tuple[bool, str]:
    """Pfa (Pd at SCR 0) at the solved threshold of each statistic ``stats_of(n)``."""
    worst = 0.0
    for p, n in itertools.product((1e-2, 1e-4, 1e-6), (8, 16, 32, 64)):
        for stat in stats_of(n):
            worst = max(worst, abs(stat.pd(stat.threshold(p, n), 0.0, n) - p) / p)
    return worst <= bound, f"worst relative residual {worst:.2e} (bound {bound:g})"


def _check_exchangeability() -> tuple[bool, str]:
    checks = [
        (os_pfa(1.0, 4, 4), 0.2),
        (os_pfa(1.0, 2, 1), 2.0 / 3.0),
    ]
    checks += [(os_pfa(1.0, n, 1), n / (n + 1.0)) for n in (4, 16, 32)]
    worst = max(abs(got - want) for got, want in checks)
    return worst <= 1e-12, f"worst absolute error {worst:.2e} (bound 1e-12)"


def _check_minimum_consistency() -> tuple[bool, str]:
    # closed form for the minimum detector: Pfa = n / (tau + n)
    worst = 0.0
    for tau, n in itertools.product((0.5, 1.0, 3.0, 10.0), (4, 16, 32)):
        want = n / (tau + n)
        worst = max(worst, abs(os_pfa(tau, n, 1) - want) / want)
    return worst <= 1e-12, f"os k=1 vs n/(tau+n), worst {worst:.2e}"


def _check_db_round_trip() -> tuple[bool, str]:
    worst = 0.0
    for x in np.linspace(-100.0, 100.0, 401):
        worst = max(worst, abs(linear_to_db(db_to_linear(float(x))) - x) / max(abs(x), 1.0))
    return worst <= 1e-12, f"worst relative error {worst:.2e}"


def _check_ca_dominance() -> tuple[bool, str]:
    n, pfa = 32, 1e-4
    tau_ca = ca_threshold(pfa, n)
    ks = (8, 16, 24, 27, 28, 30, 31, 32)
    tau_os = {k: os_threshold(pfa, n, k) for k in ks}
    for scr_db in range(0, 31):
        s = db_to_linear(scr_db)
        pd_ca = ca_pd(tau_ca, s, n)
        if any(pd_ca < os_pd(tau_os[k], s, n, k) for k in ks):
            return False, f"CA fell below an OS detector at {scr_db} dB"
    return True, "CA Pd dominates every tested OS detector (0..30 dB)"


def _check_os_index_response() -> tuple[bool, str]:
    # At design Pfa 1e-4 and N=32 the matched-Pfa OS Pd rises with k up to
    # k=27 and falls beyond it; check both flanks so a formula perturbation
    # in either direction is caught.
    n, pfa = 32, 1e-4
    taus = {k: os_threshold(pfa, n, k) for k in range(1, n + 1)}
    for scr_db in (0, 10, 20, 30):
        s = db_to_linear(scr_db)
        pds = [os_pd(taus[k], s, n, k) for k in range(1, n + 1)]
        rising = all(b > a for a, b in zip(pds[:27], pds[1:27]))
        falling = all(b < a for a, b in zip(pds[26:], pds[27:]))
        if not (rising and falling):
            return False, f"Pd-vs-k profile changed shape at {scr_db} dB"
    return True, "matched-Pfa Pd rises through k=27 and falls beyond"


def _check_ideal_bound() -> tuple[bool, str]:
    pfa = 1e-4
    for scr_db in range(0, 31):
        s = db_to_linear(scr_db)
        if ideal_pd(pfa, s) < ca_pd(ca_threshold(pfa, 32), s, 32):
            return False, f"ideal bound violated at {scr_db} dB"
    for s in (db_to_linear(0.0), db_to_linear(10.0), db_to_linear(20.0)):
        gaps = [
            ideal_pd(pfa, s) - ca_pd(ca_threshold(pfa, n), s, n)
            for n in (8, 16, 32, 64, 128, 256)
        ]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            return False, f"CA-to-ideal gap not shrinking at S={s:g}"
    return True, "ideal dominates CA; gap shrinks monotonically in N"


_REGISTRY: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("scale-invariance", _check_scale_invariance),
    ("decision-scale-invariance", _check_decision_scale_invariance),
    ("order-statistic-permutation", _check_order_statistic),
    ("sum-half-compression", _check_sum_compression),
    ("ca-round-trip", lambda: _round_trip(lambda n: [Sum()], 1e-12)),
    ("os-round-trip", lambda: _round_trip(
        lambda n: [OrderStatistic(k) for k in (1, 2, n // 2, n - 1, n)], 1e-12)),
    ("gm-round-trip", lambda: _round_trip(lambda n: [GeometricMean()], 1e-10)),
    ("exchangeability", _check_exchangeability),
    ("minimum-consistency", _check_minimum_consistency),
    ("db-round-trip", _check_db_round_trip),
    ("ca-dominance", _check_ca_dominance),
    ("os-index-response", _check_os_index_response),
    ("ideal-bound", _check_ideal_bound),
)


def run_properties(name_filter: str | None = None) -> list[PropertyResult]:
    """Run all (or substring-matching) properties and collect results, each with its wall time."""
    results = []
    for name, check in _REGISTRY:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(PropertyResult(name, passed, detail, seconds))
    return results
