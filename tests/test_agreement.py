"""Every Monte Carlo path against exact values, at points drawn at random.

A point is a detector design, a CUT scale and two cell populations: the
first ``count`` CRP cells at a common scale (interferers, or a clutter
edge's boosted cells) and the others at scale 1.  Its exact detection
probability is ``E[exp(-u * Y)]``, with ``u = tau / cut_scale`` and ``Y``
the clutter statistic of the CRP, taken from oracles written here:

- CA: ``exp(-sum n_i * log1p(u * c_i))``.
- OS(k): a quadrature over the Poisson-binomial count of cells below a
  level: the k-th smallest cell lies below it when at least k cells do.
- GM: the GM Pfa at ``u * (prod c_i)**(1/N)``, by the ``scipy.special``
  oracle of ``test_analytic``.

``estimate_pd``, ``scr_sweep`` with interferers and ``pfa_regulation_curve``
each estimate their rows at the drawn points, and every row must lie
within 4 standard errors of its exact value.  The point seed, ``RUNS``
and the bound were fixed before the test first ran: a failure is
investigated, never re-seeded.
"""

import math
import random

import pytest
from scipy import integrate
from test_analytic import gm_pfa_by_scipy_loggamma

from cfarkit.detector import DetectorSpec, GeometricMean, OrderStatistic, Sum, resolve_threshold
from cfarkit.simulation import (
    ExperimentSpec,
    InterferenceSpec,
    RegulationSpec,
    estimate_pd,
    pfa_regulation_curve,
    scr_sweep,
)
from cfarkit.stats import ClutterModel, TargetContext, db_to_linear

POINT_SEED = 20261020  # draws the points
MC_SEED = 2026  # the Monte Carlo runs' seed
RUNS = 100_000  # two blocks per point
Z = 4.0


def os_exceed_by_quadrature(u: float, k: int, populations) -> float:
    """``E[exp(-u * X_(k))]`` for independent exponential cells of ``(count, scale)`` groups.

    Integrates ``exp(-s) * P(X_(k) <= s/u)`` over ``s``, where ``X_(k) <= t``
    when at least ``k`` cells lie below ``t``: a Poisson-binomial count.
    """

    def cdf(t: float) -> float:
        below, reached = [1.0] + [0.0] * (k - 1), 0.0  # P(m cells below t) for m < k; P(>= k)
        for count, scale in populations:
            p, q = -math.expm1(-t / scale), math.exp(-t / scale)
            for _ in range(count):
                reached += below[-1] * p
                below = [below[0] * q] + [a * q + b * p for a, b in zip(below[1:], below)]
        return reached

    # the count rises where s/u passes a group's scale: give quad those places
    points = sorted({u * scale * x for _, scale in populations for x in (0.1, 1.0, 10.0)
                     if u * scale * x < 60.0})
    value, err = integrate.quad(lambda s: math.exp(-s) * cdf(s / u), 0.0, 60.0,
                                points=points or None, epsabs=0.0, epsrel=1e-10, limit=500)
    assert err < 1e-8 * value  # the quadrature itself converged
    return value


def exact(spec: DetectorSpec, cut_scale: float, count: int, scale: float) -> float:
    """P(CUT > tau * statistic) with ``count`` CRP cells at ``scale`` and the rest at 1."""
    n, stat = spec.window_length, spec.stat
    populations = [(c, s) for c, s in ((count, scale), (n - count, 1.0)) if c]
    u = spec.threshold_multiplier / cut_scale
    if isinstance(stat, Sum):
        return math.exp(-sum(c * math.log1p(u * s) for c, s in populations))
    if isinstance(stat, OrderStatistic):
        return os_exceed_by_quadrature(u, stat.k, populations)
    log_mean = sum(c * math.log(s) for c, s in populations) / n
    return gm_pfa_by_scipy_loggamma(u * math.exp(log_mean), n)[0]


def _draw_points():
    """Six designs, two of each kind, each with its own interference and edge boost."""
    rng = random.Random(POINT_SEED)
    designs = []
    for kind in rng.sample(["ca", "os", "gm"] * 2, 6):
        n = rng.choice((4, 8, 16, 24, 32))
        stat = {"ca": Sum(), "os": OrderStatistic(rng.randint(1, n)), "gm": GeometricMean()}[kind]
        pfa = rng.choice((1e-1, 1e-2, 1e-3, 1e-4))
        spec = DetectorSpec(stat, n, resolve_threshold(stat, n, pfa), rng.choice((0, 2, 8)))
        target = None if rng.random() < 0.3 else TargetContext.from_db(rng.uniform(0.0, 20.0))
        interference = InterferenceSpec(rng.randint(0, n), rng.uniform(0.0, 20.0))
        designs.append((spec, target, interference, rng.uniform(0.0, 15.0)))
    clutter = ClutterModel(10.0 ** rng.uniform(-2.0, 2.0))
    shared = InterferenceSpec(rng.randint(1, min(d[0].window_length for d in designs)),
                              rng.uniform(0.0, 20.0))
    grid = tuple(rng.uniform(0.0, 25.0) for _ in range(3))
    return designs, clutter, shared, grid


DESIGNS, CLUTTER, SHARED_INTERFERENCE, SCR_GRID = _draw_points()


def assert_rows_agree(rows):
    """``rows`` of ``(label, estimate, exact)``, each within ``Z`` standard errors."""
    far = []
    for label, est, p in rows:
        se = max(est.standard_error, math.sqrt(p * (1.0 - p) / est.runs))
        if abs(est.p_hat - p) > Z * se:
            far.append(f"{label}: {est.p_hat} against {p} ({(est.p_hat - p) / se:+.2f} SE)")
    assert not far, "\n".join(far)


def test_the_points_cover_every_kind_and_edges_past_the_midpoint():
    kinds = {type(spec.stat) for spec, *_ in DESIGNS}
    assert kinds == {Sum, OrderStatistic, GeometricMean}
    # interferers past the midpoint; every regulation curve runs counts 0..N
    assert any(i.count > spec.window_length // 2 for spec, _, i, _ in DESIGNS)


@pytest.mark.parametrize("index", range(len(DESIGNS)))
def test_oracles_reduce_to_the_closed_forms_for_one_population(index):
    spec, *_ = DESIGNS[index]
    tau, n = spec.threshold_multiplier, spec.window_length
    for scr in (0.0, 3.0):
        assert exact(spec, 1.0 + scr, 0, 1.0) == pytest.approx(spec.stat.pd(tau, scr, n),
                                                               rel=1e-8)


def test_estimate_pd():
    rows = []
    for spec, target, interference, _ in DESIGNS:
        est = estimate_pd(spec, CLUTTER, target, interference, RUNS, MC_SEED)
        cut_scale = 1.0 if target is None else 1.0 + target.scr_linear
        scale = 1.0 + db_to_linear(interference.inr_db)
        rows.append((spec, est, exact(spec, cut_scale, interference.count, scale)))
    assert_rows_agree(rows)


def test_scr_sweep_with_interferers():
    detectors = tuple(spec for spec, *_ in DESIGNS)
    experiment = ExperimentSpec(detectors, CLUTTER, SCR_GRID, RUNS, MC_SEED, SHARED_INTERFERENCE)
    count, scale = SHARED_INTERFERENCE.count, 1.0 + db_to_linear(SHARED_INTERFERENCE.inr_db)
    rows = [((curve.detector, scr_db), est,
             exact(curve.detector, 1.0 + db_to_linear(scr_db), count, scale))
            for curve in scr_sweep(experiment) for scr_db, est in curve.points()]
    assert len(rows) == 3 * len(DESIGNS)
    assert_rows_agree(rows)


def test_pfa_regulation_curve():
    rows = []
    for spec, _, _, boost_db in DESIGNS:
        boost, n = db_to_linear(boost_db), spec.window_length
        curve = pfa_regulation_curve(spec, CLUTTER, RegulationSpec(runs=RUNS, boost_db=boost_db),
                                     MC_SEED)
        assert [j for j, _ in curve] == list(range(n + 1))
        rows += [((spec, j), est, exact(spec, boost if j > n // 2 else 1.0, j, boost))
                 for j, est in curve]
    assert_rows_agree(rows)
