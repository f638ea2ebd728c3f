"""The three workloads: inputs made from the seed, and checks of the outputs.

Every expected value comes from :mod:`oracles` and from thresholds the
benchmark solves itself, never from a stored copy of cfarkit's output.

A Monte Carlo row passes when ``|p_hat - p| <= Z * sqrt(p (1 - p) / runs)``
with ``p`` the exact value.  ``Z = 7`` keeps the chance that any row of a
run fails by sampling alone below about 1e-8 for the row sets here
(``false_failure_rate`` computes it from the binomial law); rows whose
``p * runs`` is near 1/Z**2 would fail far more often, and the
configurations below avoid them.  Analytic rows must match their closed
form to ``REL_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize, stats

import oracles
from job import BANK, GUARD, WINDOW

Z = 7.0
REL_TOL = 1e-9
BLOCK = 1 << 16

# sizes of each workload; "smoke" runs every check on a tiny input
INTERFERENCE = {
    "full": {"scr_db": "0:30:1", "inr_db": (5.0, 15.0), "runs": 2 * BLOCK},
    "smoke": {"scr_db": "0:30:15", "inr_db": (15.0,), "runs": BLOCK + 4464},
}
REGULATION = {
    "full": {"affected": "0:32", "runs": 4 * BLOCK},
    "smoke": {"affected": "0:32:8", "runs": BLOCK + 4464},
}
RANGE = {
    "full": {"profiles": 4, "cells": 8192, "pfa": 1e-5, "cmc": 1 << 18, "probe_scr_db": "0:30:1"},
    "smoke": {"profiles": 1, "cells": 1024, "pfa": 1e-3, "cmc": 1 << 14, "probe_scr_db": "0:30:15"},
}

INTERFERENCE_PFA = 1e-4
REGULATION_PFA = 1e-3
REGULATION_BOOST_DB = 2.0


@dataclass
class Outcome:
    """Operations checked and the ones that failed, with a reason each."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def grid(spec: str) -> list[float]:
    """An inclusive ``start:stop[:step]`` grid, as the config files write it."""
    start, stop, step = (float(x) for x in (spec + ":1").split(":")[:3])
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


# ---------------------------------------------------------------------------
# thresholds solved by the benchmark itself
# ---------------------------------------------------------------------------


def ca_tau(pfa: float, n: int = WINDOW) -> float:
    return pfa ** (-1.0 / n) - 1.0


@lru_cache(maxsize=None)
def os_tau(pfa: float, k: int, n: int = WINDOW) -> float:
    """Invert the quadrature oracle for the homogeneous OS(k) threshold."""
    def residual(log_tau: float) -> float:
        return math.log(oracles.os_exceed(math.exp(log_tau), k, [(n, 1.0)])) - math.log(pfa)

    lo, hi = -10.0, 1.0
    while residual(hi) > 0:
        lo, hi = hi, hi + 4.0
    return math.exp(optimize.brentq(residual, lo, hi, xtol=1e-13, rtol=1e-14))


def min_tau(pfa: float, n: int = WINDOW) -> float:
    """The minimum of n unit exponentials is exponential of rate n: Pfa = n / (n + tau)."""
    return n * (1.0 / pfa - 1.0)


def mc_ok(p_hat: float, p: float, runs: int) -> bool:
    return abs(p_hat - p) <= Z * math.sqrt(p * (1.0 - p) / runs)


def rel_ok(value: float, exact: float, tol: float = REL_TOL) -> bool:
    return abs(value - exact) <= tol * abs(exact)


def os_tol(tau: float, n: int = WINDOW) -> float:
    """Relative tolerance of an OS probability evaluated in log-gamma space.

    The closed form subtracts log-gammas near ``lgamma(tau + n + 1)``, so
    its rounding error is a few ulps of that value: 7e-8 for the minimum
    detector at Pfa 1e-5, whose tau is 3.2e6.
    """
    return max(REL_TOL, 8.0 * sys.float_info.epsilon * math.lgamma(tau + n + 1.0))


def false_failure_rate(probabilities, runs: int) -> float:
    """Chance, under the exact binomial law, that any of these rows fails."""
    total = 0.0
    for p in probabilities:
        mean, half = runs * p, Z * math.sqrt(runs * p * (1.0 - p))
        total += stats.binom.cdf(math.ceil(mean - half) - 1, runs, p)
        total += stats.binom.sf(math.floor(mean + half), runs, p)
    return total


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def interference_config(seed: int, size: str, workers: int = 2) -> str:
    s = INTERFERENCE[size]
    return "\n".join([
        "experiment = pd-curve",
        "detectors = ca, os:31, ideal",
        f"window = {WINDOW}",
        f"guard = {GUARD}",
        f"design_pfa = {INTERFERENCE_PFA!r}",
        "lambda = 1.0",
        f"scr_db = {s['scr_db']}",
        "interference_db = " + ", ".join(f"{x:g}" for x in s["inr_db"]),
        "interference_count = 2",
        "interference_placement = random",
        f"runs = {s['runs']}",
        f"workers = {workers}",
        f"seed = {seed}",
        "",
    ])


def regulation_config(seed: int, size: str) -> str:
    s = REGULATION[size]
    return "\n".join([
        "experiment = regulation",
        "detectors = ca, os:31",
        f"window = {WINDOW}",
        f"guard = {GUARD}",
        f"design_pfa = {REGULATION_PFA!r}",
        "lambda = 1.0",
        f"boost_db = {REGULATION_BOOST_DB:g}",
        f"affected = {s['affected']}",
        f"runs = {s['runs']}",
        "workers = 1",
        f"seed = {seed}",
        "",
    ])


def probe_config(size: str) -> str:
    """Analytic-only pd-curve run that the range-profile trace uses for the CLI layer."""
    return "\n".join([
        "experiment = pd-curve",
        "detectors = ca, os:24, min, ideal",
        f"window = {WINDOW}",
        f"guard = {GUARD}",
        f"design_pfa = {RANGE[size]['pfa']!r}",
        f"scr_db = {RANGE[size]['probe_scr_db']}",
        "",
    ])


def expected_interference(size: str, tau_scale: float = 1.0) -> dict:
    """Exact Pd per (detector, INR dB, SCR dB); INR None marks the ideal rows.

    ``tau_scale`` perturbs the benchmark's thresholds, for negative tests.
    """
    s = INTERFERENCE[size]
    taus = {"sum": ca_tau(INTERFERENCE_PFA), "os31": os_tau(INTERFERENCE_PFA, 31)}
    out = {}
    for scr_db in grid(s["scr_db"]):
        scr = db(scr_db)
        out[("ideal", None, scr_db)] = oracles.ideal_pd(INTERFERENCE_PFA, scr)
        for inr_db in s["inr_db"]:
            scale = 1.0 + db(inr_db)
            u = {k: tau_scale * t / (1.0 + scr) for k, t in taus.items()}
            out[("sum", inr_db, scr_db)] = oracles.ca_exceed(
                u["sum"], [1.0] * (WINDOW - 2) + [scale] * 2
            )
            out[("os31", inr_db, scr_db)] = oracles.os_exceed(
                u["os31"], 31, [(WINDOW - 2, 1.0), (2, scale)]
            )
    return out


def expected_regulation(size: str, tau_scale: float = 1.0) -> dict:
    """Exact Pfa per (detector, boosted cells j) at the clutter edge."""
    boost = db(REGULATION_BOOST_DB)
    taus = {"ca": ca_tau(REGULATION_PFA), "os31": os_tau(REGULATION_PFA, 31)}
    out = {}
    for j in (int(x) for x in grid(REGULATION[size]["affected"])):
        cut = boost if j > WINDOW // 2 else 1.0
        out[("ca", j)] = oracles.ca_exceed(
            tau_scale * taus["ca"] / cut, [boost] * j + [1.0] * (WINDOW - j)
        )
        out[("os31", j)] = oracles.os_exceed(
            tau_scale * taus["os31"] / cut, 31, [(WINDOW - j, 1.0), (j, boost)]
        )
    return out


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _inr_of(label: str) -> float | None:
    marker = "+int"
    if marker not in label:
        return None
    return float(label.split(marker, 1)[1].removesuffix("dB"))


def check_pd_curve(path, expected: dict, runs: int, tolerances: dict | None = None) -> Outcome:
    """Every expected row present once; MC rows within Z SE, analytic ones exact.

    Rows are keyed by (statistic and k, INR dB or None, SCR dB); rows
    without interference are the analytic ones, compared to the relative
    tolerance ``tolerances[statistic]`` (default ``REL_TOL``).
    """
    tolerances = tolerances or {}
    out = Outcome()
    seen = set()
    for row in read_rows(path):
        key = (row["stat"] + row["k"], _inr_of(row["detector"]), float(row["scr_db"]))
        if key not in expected or key in seen:
            out.add(False, f"unexpected row {row}")
            continue
        seen.add(key)
        p_hat, p = float(row["pd_hat"]), expected[key]
        if key[1] is None:
            ok = row["source"] == "analytic" and rel_ok(p_hat, p, tolerances.get(key[0], REL_TOL))
        else:
            ok = row["source"] == "montecarlo" and int(row["runs"]) == runs and mc_ok(p_hat, p, runs)
        out.add(ok, f"{key}: got {p_hat!r}, exact {p!r}")
    for key in expected.keys() - seen:
        out.add(False, f"missing row {key}")
    return out


def check_regulation(path, expected: dict, runs: int) -> Outcome:
    out = Outcome()
    seen = set()
    for row in read_rows(path):
        key = (row["detector"], int(row["affected_cells"]))
        if key not in expected or key in seen:
            out.add(False, f"unexpected row {row}")
            continue
        seen.add(key)
        p_hat, p = float(row["pfa_hat"]), expected[key]
        ok = int(row["runs"]) == runs and mc_ok(p_hat, p, runs)
        out.add(ok, f"{key}: got {p_hat!r}, exact {p!r}")
    for key in expected.keys() - seen:
        out.add(False, f"missing row {key}")
    return out


def probe_tolerances(size: str) -> dict:
    pfa = RANGE[size]["pfa"]
    return {"os24": os_tol(os_tau(pfa, 24)), "min": os_tol(min_tau(pfa))}


def expected_probe(size: str) -> dict:
    """Closed forms of the analytic rows of ``probe_config``."""
    pfa = RANGE[size]["pfa"]
    taus = {"sum": ca_tau(pfa), "os24": os_tau(pfa, 24), "min": min_tau(pfa)}
    out = {}
    for scr_db in grid(RANGE[size]["probe_scr_db"]):
        scr = db(scr_db)
        out[("ideal", None, scr_db)] = oracles.ideal_pd(pfa, scr)
        out[("sum", None, scr_db)] = oracles.ca_exceed(taus["sum"] / (1 + scr), [1.0] * WINDOW)
        out[("os24", None, scr_db)] = oracles.os_exceed(taus["os24"] / (1 + scr), 24, [(WINDOW, 1.0)])
        out[("min", None, scr_db)] = WINDOW / (WINDOW + taus["min"] / (1 + scr))
    return out


# ---------------------------------------------------------------------------
# range-profile workload
# ---------------------------------------------------------------------------

PROFILE_TAG = 0x50524F46  # separates the profile stream from other uses of the seed


def make_profiles(seed: int, count: int, cells: int) -> np.ndarray:
    """Exponential clutter with power edges and Swerling I targets.

    Each profile has 2 to 5 clutter edges at random cells, each segment at
    0, 5, 10 or 20 dB, and one target per 512 cells with SCR uniform in
    5..25 dB; a target cell is exponential with mean ``(1 + S)`` times
    the local clutter mean.
    """
    rng = np.random.default_rng([seed, PROFILE_TAG])
    out = np.empty((count, cells))
    margin = min(64, cells // 8)
    for p in range(count):
        cuts = np.sort(rng.choice(np.arange(margin, cells - margin), rng.integers(2, 6), replace=False))
        levels = db(rng.choice([0.0, 5.0, 10.0, 20.0], cuts.size + 1))
        mean = np.repeat(levels, np.diff(np.concatenate([[0], cuts, [cells]])))
        targets = rng.choice(cells, max(1, cells // 512), replace=False)
        mean[targets] *= 1.0 + db(rng.uniform(5.0, 25.0, targets.size))
        out[p] = rng.standard_exponential(cells) * mean
    return out


def check_thresholds(taus: dict, pfa: float, cmc_samples: int, seed: int) -> Outcome:
    """The bank's thresholds against the design Pfa.

    CA and OS thresholds are closed-form or solved, so they must hit
    ``pfa`` to ``REL_TOL``, or to ``os_tol`` where cfarkit solves in
    log-gamma space.  The geometric mean's is calibrated by Monte Carlo
    over ``max(1e6, 100/pfa)`` ratios, so its Pfa, found by conditional
    Monte Carlo, must lie within Z standard errors of both estimates.
    """
    out = Outcome()
    out.add(rel_ok(taus["ca"], ca_tau(pfa)), f"ca tau {taus['ca']!r}")
    exact = min_tau(pfa)
    out.add(rel_ok(taus["min"], exact, os_tol(exact)), f"min tau {taus['min']!r}, exact {exact!r}")
    got = oracles.os_exceed(taus["os24"], 24, [(WINDOW, 1.0)])
    out.add(rel_ok(got, pfa, os_tol(taus["os24"])), f"os24 tau {taus['os24']!r} gives Pfa {got!r}")
    rng = np.random.default_rng([seed, PROFILE_TAG, 1])
    got, se = oracles.gm_pfa_cmc(taus["gm"], WINDOW, cmc_samples, rng)
    calibration_runs = max(1_000_000, math.ceil(100.0 / pfa))
    bound = Z * math.sqrt(pfa * (1.0 - pfa) / calibration_runs + se * se)
    out.add(abs(got - pfa) <= bound, f"gm tau {taus['gm']!r} gives Pfa {got!r} +- {se:.2g}")
    return out


def check_decisions(decisions: np.ndarray, profiles: np.ndarray, taus: dict) -> Outcome:
    """Each (detector, profile) slide against the reference detector.

    Cells whose level lies within a relative 1e-9 of the CUT may round
    either way and are not compared; every other cell, untested edges
    included, must match.
    """
    out = Outcome()
    if decisions.shape != (len(BANK),) + profiles.shape:
        out.add(False, f"decisions shape {decisions.shape}")
        return out
    for d, (name, kind, k) in enumerate(BANK):
        for p, profile in enumerate(profiles):
            ref, margin = oracles.slide_reference(profile, kind, k, WINDOW, GUARD, taus[name])
            firm = margin > 1e-9
            wrong = int(np.count_nonzero(decisions[d, p][firm] != ref[firm]))
            out.add(wrong == 0, f"{name} profile {p}: {wrong} cells differ")
    return out
