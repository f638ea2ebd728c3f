"""Monte Carlo engine: oracle agreement, determinism, and interference handling.

Statistical assertions use 4 standard-error margins against closed-form
oracles from the analytic module, keeping false failures out of the suite.
"""

import math

import pytest

from cfarkit import simulation
from cfarkit.analytic import ca_pd, ca_threshold, gm_threshold, os_threshold
from cfarkit.detector import DetectorSpec, GeometricMean, Minimum, OrderStatistic, Sum
from cfarkit.simulation import (
    BLOCK_TRIALS,
    DetectorCurve,
    ExperimentSpec,
    FixedCells,
    InterferenceSpec,
    PdEstimate,
    RandomUniform,
    RegulationSpec,
    estimate_pd,
    pfa_regulation_curve,
    resolve_threshold,
    run_trial,
    scr_sweep,
)
from cfarkit.stats import ClutterModel, RandomStream, TargetContext

CLUTTER = ClutterModel(1.0)


def within(est: PdEstimate, expect: float, z: float = 4.0) -> bool:
    se = max(est.standard_error, math.sqrt(expect * (1.0 - expect) / est.runs))
    return abs(est.p_hat - expect) <= z * se


class TestRunTrial:
    def test_zero_threshold_always_detects(self):
        spec = DetectorSpec(Sum(), 32, 0.0)
        stream = RandomStream(3, 1)
        assert run_trial(spec, CLUTTER, None, None, stream) is True

    def test_same_stream_same_outcome(self):
        spec = DetectorSpec(OrderStatistic(31), 32, 3.9)
        stream = RandomStream(3, 2)
        outcomes = {run_trial(spec, CLUTTER, TargetContext(5.0), None, stream) for _ in range(5)}
        assert len(outcomes) == 1

    def test_interference_in_fixed_cells(self):
        spec = DetectorSpec(Sum(), 8, 1.0, guard_cells=0)
        inter = InterferenceSpec(2, 20.0, FixedCells((0, 5)))
        assert isinstance(run_trial(spec, CLUTTER, None, inter, RandomStream(4)), bool)

    def test_is_the_one_trial_block_of_estimate_pd(self):
        spec = DetectorSpec(Sum(), 8, ca_threshold(0.3, 8), guard_cells=0)
        outcomes = []
        for seed in range(12):
            stream = RandomStream(5, seed)
            for target, inter in (
                (None, None),
                (TargetContext.from_db(3.0), None),
                (TargetContext.from_db(3.0), InterferenceSpec(2, 10.0)),
            ):
                trial = run_trial(spec, CLUTTER, target, inter, stream.substream(0))
                est = estimate_pd(spec, CLUTTER, target, inter, 1, stream)
                assert trial is (est.successes == 1)
                outcomes.append(trial)
        assert set(outcomes) == {True, False}


class TestPdEstimate:
    def test_standard_error_recomputable(self):
        est = PdEstimate(successes=250, runs=1000)
        assert est.p_hat == 0.25
        assert est.standard_error == pytest.approx(math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)

    def test_ci_brackets_estimate(self):
        est = PdEstimate(successes=3, runs=10)
        lo, hi = est.ci()
        assert 0.0 <= lo <= est.p_hat <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PdEstimate(successes=5, runs=0)
        with pytest.raises(ValueError):
            PdEstimate(successes=11, runs=10)


class TestEstimatePd:
    def test_matches_ca_pd(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        est = estimate_pd(spec, CLUTTER, TargetContext.from_db(10.0), None, 200_000, 11)
        assert within(est, ca_pd(tau, 10.0, 32))

    def test_matches_ca_pfa_under_h0(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        est = estimate_pd(spec, CLUTTER, None, None, 200_000, 12)
        assert within(est, 1e-2)

    def test_matches_os_pfa_under_h0(self):
        tau = os_threshold(1e-2, 32, 31)
        spec = DetectorSpec(OrderStatistic(31), 32, tau)
        est = estimate_pd(spec, CLUTTER, None, None, 200_000, 13)
        assert within(est, 1e-2)

    def test_worker_count_never_changes_the_answer(self):
        spec = DetectorSpec(Sum(), 32, ca_threshold(1e-2, 32))
        target = TargetContext.from_db(5.0)
        one = estimate_pd(spec, CLUTTER, target, None, 300_000, 7, workers=1)
        two = estimate_pd(spec, CLUTTER, target, None, 300_000, 7, workers=2)
        three = estimate_pd(spec, CLUTTER, target, None, 300_000, 7, workers=3)
        assert one == two == three

    def test_interference_placement_immaterial_for_symmetric_stats(self):
        # every implemented statistic is permutation invariant, so fixed and
        # random placements must agree statistically
        target = TargetContext.from_db(10.0)
        for spec in (
            DetectorSpec(Sum(), 32, ca_threshold(1e-2, 32)),
            DetectorSpec(OrderStatistic(31), 32, os_threshold(1e-2, 32, 31)),
        ):
            estimates = [
                estimate_pd(spec, CLUTTER, target, InterferenceSpec(1, 20.0, placement),
                            100_000, seed)
                for seed, placement in (
                    (21, FixedCells((0,))),
                    (22, FixedCells((17,))),
                    (23, RandomUniform()),
                )
            ]
            for a, b in ((0, 1), (0, 2), (1, 2)):
                joint = math.hypot(estimates[a].standard_error, estimates[b].standard_error)
                assert abs(estimates[a].p_hat - estimates[b].p_hat) <= 4.0 * joint

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_random_placement_realised_on_leading_cells(self, count, workers):
        spec = DetectorSpec(OrderStatistic(31), 32, os_threshold(1e-2, 32, 31))
        target = TargetContext.from_db(10.0)
        random, fixed = (
            estimate_pd(spec, CLUTTER, target, InterferenceSpec(count, 20.0, placement),
                        140_000, 24, workers=workers)
            for placement in (RandomUniform(), FixedCells(tuple(range(count))))
        )
        assert random == fixed

    def test_lambda_invariance_of_cfar_detectors(self):
        for spec in (
            DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16)),
            DetectorSpec(OrderStatistic(15), 16, os_threshold(1e-2, 16, 15)),
        ):
            estimates = [
                estimate_pd(spec, ClutterModel(rate), None, None, 100_000, 31 + i)
                for i, rate in enumerate((0.1, 1.0, 10.0))
            ]
            for a, b in ((0, 1), (0, 2), (1, 2)):
                joint = math.hypot(estimates[a].standard_error, estimates[b].standard_error)
                assert abs(estimates[a].p_hat - estimates[b].p_hat) <= 4.0 * joint

    def test_interference_validation(self):
        spec = DetectorSpec(Sum(), 8, 1.0)
        with pytest.raises(ValueError):
            estimate_pd(spec, CLUTTER, None, InterferenceSpec(9, 10.0), 100, 1)
        with pytest.raises(ValueError):
            estimate_pd(spec, CLUTTER, None, InterferenceSpec(1, 10.0, FixedCells((8,))), 100, 1)

    def test_interference_spec_validation(self):
        with pytest.raises(ValueError):
            InterferenceSpec(-1, 10.0)
        with pytest.raises(ValueError):
            InterferenceSpec(2, 10.0, FixedCells((3,)))
        with pytest.raises(ValueError):
            FixedCells((1, 1))


class TestCalibration:
    def test_geometric_mean_pipeline_holds_design_pfa(self):
        tau = resolve_threshold(GeometricMean(), 16, 1e-2)
        spec = DetectorSpec(GeometricMean(), 16, tau)
        est = estimate_pd(spec, CLUTTER, None, None, 400_000, 5)
        assert est.p_hat == pytest.approx(1e-2, rel=0.10)

    def test_resolve_threshold_dispatch(self):
        assert resolve_threshold(Sum(), 32, 1e-4) == ca_threshold(1e-4, 32)
        assert resolve_threshold(OrderStatistic(31), 32, 1e-4) == os_threshold(1e-4, 32, 31)
        assert resolve_threshold(Minimum(), 32, 1e-4) == os_threshold(1e-4, 32, 1)
        assert resolve_threshold(GeometricMean(), 32, 1e-4) == gm_threshold(1e-4, 32)

    def test_resolve_threshold_rejects_zero_pfa(self):
        for stat in (Sum(), OrderStatistic(3), Minimum(), GeometricMean()):
            with pytest.raises(ValueError, match="design Pfa"):
                resolve_threshold(stat, 4, 0.0)


class TestRegulation:
    def test_homogeneous_endpoints_hold_design(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        reg = RegulationSpec(design_pfa=1e-2, runs=200_000, boost_db=10.0,
                             affected_counts=(0, 32))
        curve = dict(pfa_regulation_curve(spec, CLUTTER, reg, 41))
        assert within(curve[0], 1e-2)
        assert within(curve[32], 1e-2)  # full saturation is homogeneous again

    def test_zero_boost_is_flat(self):
        tau = ca_threshold(1e-2, 16)
        spec = DetectorSpec(Sum(), 16, tau)
        reg = RegulationSpec(design_pfa=1e-2, runs=100_000, boost_db=0.0)
        for _, est in pfa_regulation_curve(spec, CLUTTER, reg, 42):
            assert within(est, 1e-2)

    def test_affected_counts_validated(self):
        spec = DetectorSpec(Sum(), 16, 1.0)
        reg = RegulationSpec(design_pfa=1e-2, runs=1000, affected_counts=(17,))
        with pytest.raises(ValueError):
            pfa_regulation_curve(spec, CLUTTER, reg, 1)

    def test_worker_count_never_changes_the_curve(self):
        tau = os_threshold(1e-2, 16, 15)
        spec = DetectorSpec(OrderStatistic(15), 16, tau)
        reg = RegulationSpec(design_pfa=1e-2, runs=150_000, affected_counts=(0, 5, 9, 16))
        a = pfa_regulation_curve(spec, CLUTTER, reg, 43, workers=1)
        b = pfa_regulation_curve(spec, CLUTTER, reg, 43, workers=2)
        assert a == b


class TestScrSweep:
    def _experiment(self, detectors, runs=100_000, interference=None):
        return ExperimentSpec(
            detectors=tuple(detectors),
            clutter=CLUTTER,
            scr_grid_db=(0.0, 10.0, 20.0),
            runs=runs,
            seed=71,
            interference=interference,
        )

    def test_empty_detector_list_gives_empty_result(self):
        assert scr_sweep(self._experiment([])) == ()

    def test_matches_analytic_curve(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        (curve,) = scr_sweep(self._experiment([spec]))
        assert isinstance(curve, DetectorCurve)
        for scr_db, est in curve.points():
            expect = ca_pd(tau, 10.0 ** (scr_db / 10.0), 32)
            assert within(est, expect), (scr_db, est.p_hat, expect)

    def test_duplicate_detectors_agree_statistically_not_bitwise(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        first, second = scr_sweep(self._experiment([spec, spec], runs=150_000))
        # distinct positions derive distinct substreams even for equal specs
        base = RandomStream(71)
        assert base.substream(0, *spec.stream_key(), 0) != base.substream(1, *spec.stream_key(), 0)
        for (_, a), (_, b) in zip(first.points(), second.points()):
            joint = math.hypot(a.standard_error, b.standard_error)
            assert abs(a.p_hat - b.p_hat) <= 4.0 * joint

    def test_worker_count_never_changes_curves(self):
        spec = DetectorSpec(OrderStatistic(31), 32, os_threshold(1e-2, 32, 31))
        exp = self._experiment([spec], runs=150_000)
        assert scr_sweep(exp, workers=1) == scr_sweep(exp, workers=2)

    def test_interference_degrades_ca(self):
        tau = ca_threshold(1e-2, 32)
        spec = DetectorSpec(Sum(), 32, tau)
        exp = self._experiment([spec], runs=150_000, interference=InterferenceSpec(1, 30.0))
        (curve,) = scr_sweep(exp)
        for scr_db, est in curve.points():
            clean = ca_pd(tau, 10.0 ** (scr_db / 10.0), 32)
            assert est.p_hat + 4.0 * est.standard_error < clean

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec((), CLUTTER, (), runs=10, seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec((), CLUTTER, (0.0,), runs=0, seed=1)


class TestRunPlan:
    RUNS = BLOCK_TRIALS + 4464  # two unequal blocks per point

    def test_one_pool_per_run_and_identical_results(self, pools_started):
        ca = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        os15 = DetectorSpec(OrderStatistic(15), 16, os_threshold(1e-2, 16, 15))
        exp = ExperimentSpec((ca, os15), CLUTTER, (0.0, 10.0), self.RUNS, 5,
                             InterferenceSpec(1, 10.0))
        reg = RegulationSpec(design_pfa=1e-2, runs=self.RUNS, affected_counts=(0, 9, 16))
        for call in (
            lambda workers: scr_sweep(exp, workers=workers),
            lambda workers: pfa_regulation_curve(os15, CLUTTER, reg, 6, workers=workers),
        ):
            results = []
            for workers, pools in ((1, 0), (2, 1), (3, 1)):
                pools_started.clear()
                results.append(call(workers))
                assert len(pools_started) == pools, workers
            assert results[0] == results[1] == results[2]

    def test_pool_never_outnumbers_blocks(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InProcessPool)
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        est = estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8, workers=10_000)
        assert sizes == [2]
        assert est == estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8, workers=1)
