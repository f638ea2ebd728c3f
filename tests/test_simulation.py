"""Monte Carlo engine: oracle agreement, determinism, and interference handling.

Statistical assertions use 4 standard-error margins against closed-form
oracles from the analytic module, keeping false failures out of the suite.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
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
    scr_sweep,
)
from cfarkit.stats import ClutterModel, RandomStream, TargetContext, db_to_linear

CLUTTER = ClutterModel(1.0)


def within(est: PdEstimate, expect: float, z: float = 4.0) -> bool:
    se = max(est.standard_error, math.sqrt(expect * (1.0 - expect) / est.runs))
    return abs(est.p_hat - expect) <= z * se


def reference_block(spec, cut_scale, cell_scales, trials, stream, rate=1.0) -> int:
    """Successes of one block drawn as documented: CRP, then CUT, each over ``rate``."""
    n, stat = spec.window_length, spec.stat
    gen = stream.generator()
    crp = -np.log1p(-gen.random((trials, n))) / rate * np.asarray(cell_scales)
    cut = -np.log1p(-gen.random(trials)) / rate * cut_scale
    if isinstance(stat, Sum):
        g = crp[:, : n // 2].sum(axis=1) + crp[:, n // 2 :].sum(axis=1)
    elif isinstance(stat, OrderStatistic):
        g = np.sort(crp, axis=1)[:, stat.k - 1]
    else:
        g = np.exp(np.log(crp).mean(axis=1))
    return int(np.count_nonzero(cut > spec.threshold_multiplier * g))


def reference_successes(spec, cut_scale, cell_scales, runs, stream, rate=1.0) -> int:
    """Successes summed over blocks; block ``b`` draws from ``stream.substream(b)``."""
    return sum(
        reference_block(spec, cut_scale, cell_scales, min(BLOCK_TRIALS, runs - start),
                        stream.substream(b), rate)
        for b, start in enumerate(range(0, runs, BLOCK_TRIALS))
    )


STATS_16 = (
    DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16)),
    DetectorSpec(OrderStatistic(13), 16, os_threshold(1e-2, 16, 13)),
    DetectorSpec(Minimum(), 16, os_threshold(1e-2, 16, 1)),
    DetectorSpec(GeometricMean(), 16, gm_threshold(1e-2, 16)),
)
STAT_IDS = ("sum", "os13", "min", "gm")
OS16 = DetectorSpec(OrderStatistic(16), 16, os_threshold(1e-2, 16, 16))  # the maximum
EDGE = (0, 3, 8, 9, 16)  # affected counts on both sides of the midpoint of N = 16
SCREEN_CASES = {  # where the edge screen could go wrong: (counts, boost dB, clutter rate)
    "pfa1": (EDGE, 10.0, 1.0),  # with the threshold set to 0 (design Pfa 1)
    "one-count-groups": ((7, 7, 12), 10.0, 1.0),  # smallest count = largest in each group
    "3050dB": (EDGE, 3050.0, 1.0),  # boosted cells near float overflow
    "rate2.5": (EDGE, 10.0, 2.5),
}


class TestDrawOrder:
    RUNS = BLOCK_TRIALS + 4464  # two unequal blocks

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_estimate_pd_matches_reference(self, spec):
        target = TargetContext.from_db(3.0)
        inter = InterferenceSpec(2, 10.0, FixedCells((1, 5)))
        scales = tuple(11.0 if i in (1, 5) else 1.0 for i in range(16))
        clutter = ClutterModel(2.0)
        stream = RandomStream(17, 3)
        for tgt, cut_scale in ((None, 1.0), (target, 1.0 + target.scr_linear)):
            est = estimate_pd(spec, clutter, tgt, inter, self.RUNS, stream)
            assert est.successes == reference_successes(
                spec, cut_scale, scales, self.RUNS, stream, rate=2.0
            )


class TestStreamFingerprint:
    """Pinned success counts: a change to any random stream must be made on purpose.

    The counts come from SFC64 streams; two unequal blocks, random
    interference.  If a deliberate stream change moves them, record the
    change in CHANGES.md and pin the new counts.
    """

    RUNS = BLOCK_TRIALS + 4464
    INTER = InterferenceSpec(2, 10.0)

    def test_estimate_pd(self):
        target = TargetContext.from_db(3.0)
        hits = [estimate_pd(spec, CLUTTER, target, self.INTER, self.RUNS, 2026).successes
                for spec in STATS_16]
        assert hits == [3186, 7234, 1784, 6799]

    def test_pfa_regulation_curve(self):
        reg = RegulationSpec(1e-2, self.RUNS, 10.0, affected_counts=(0, 8, 9, 16))
        hits = [[est.successes for _, est in pfa_regulation_curve(spec, CLUTTER, reg, 2026)]
                for spec in STATS_16]
        assert hits == [[660, 0, 4150, 660], [714, 0, 3931, 714], [692, 358, 3320, 692],
                        [734, 2, 10159, 734]]

    def test_scr_sweep(self):
        exp = ExperimentSpec(STATS_16, CLUTTER, (0.0, 10.0), self.RUNS, 2026, self.INTER)
        hits = [[est.successes for est in curve.estimates] for curve in scr_sweep(exp)]
        assert hits == [[1062, 25984], [2912, 35869], [1195, 6273], [2580, 35094]]


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

    def test_zero_threshold_always_detects(self):
        est = estimate_pd(DetectorSpec(Sum(), 32, 0.0), CLUTTER, None, None, 1000, 3)
        assert est.successes == 1000

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
        # on one draw j = N makes the same comparisons as j = 0 (the statistic
        # is scale invariant), so each endpoint gets its own draw
        spec = DetectorSpec(Sum(), 32, ca_threshold(1e-2, 32))
        for j, seed in ((0, 41), (32, 44)):  # full saturation is homogeneous again
            reg = RegulationSpec(design_pfa=1e-2, runs=200_000, boost_db=10.0,
                                 affected_counts=(j,))
            ((count, est),) = pfa_regulation_curve(spec, CLUTTER, reg, seed)
            assert count == j and within(est, 1e-2), (j, est.p_hat)

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

    @pytest.mark.parametrize("boost_db", [-3.0, math.inf])
    def test_boost_must_be_finite_increase(self, boost_db):
        with pytest.raises(ValueError):
            RegulationSpec(design_pfa=1e-2, runs=1000, boost_db=boost_db)

    def test_empty_affected_counts_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(simulation, "_batch_successes", None)  # any block would fail
        reg = RegulationSpec(design_pfa=1e-2, runs=10**7, affected_counts=())
        assert pfa_regulation_curve(DetectorSpec(Sum(), 16, 1.0), CLUTTER, reg, 1) == ()

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
        assert base.substream(0, *spec.stream_key()) != base.substream(1, *spec.stream_key())
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


class TestCommonRandomNumbers:
    """The points of one curve are evaluated on one draw per block."""

    RUNS = BLOCK_TRIALS + 4464

    def test_scr_rows_equal_one_point_evaluations(self):
        inter = InterferenceSpec(2, 15.0)
        grid = (0.0, 5.0, 10.0, 20.0)
        curves = scr_sweep(ExperimentSpec(STATS_16, CLUTTER, grid, self.RUNS, 81, inter))
        scales = (1.0 + db_to_linear(15.0),) * 2 + (1.0,) * 14
        for d_index, (spec, curve) in enumerate(zip(STATS_16, curves)):
            stream = RandomStream(81).substream(d_index, *spec.stream_key())
            for scr_db, est in curve.points():
                one = reference_successes(spec, 1.0 + db_to_linear(scr_db), scales,
                                          self.RUNS, stream)
                assert est.successes == one, (spec.stat, scr_db)
                assert est == estimate_pd(spec, CLUTTER, TargetContext.from_db(scr_db),
                                          inter, self.RUNS, stream)

    EDGE_CASES = [(spec, EDGE, 10.0, 1.0) for spec in STATS_16] + [
        (DetectorSpec(OrderStatistic(2), 16, os_threshold(1e-2, 16, 2)), EDGE, 10.0, 1.0),
        (OS16, EDGE, 10.0, 1.0),
        *((spec, (16, 0, 9, 9, 3), 10.0, 1.0) for spec in STATS_16),
        *((spec, EDGE, 0.0, 1.0) for spec in STATS_16),
        *((replace(spec, threshold_multiplier=0.0) if case == "pfa1" else spec, *args)
          for case, args in SCREEN_CASES.items() for spec in (*STATS_16, OS16)),
    ]
    EDGE_IDS = [*STAT_IDS, "os2", "os16", *(f"{i}-unsorted" for i in STAT_IDS),
                *(f"{i}-0dB" for i in STAT_IDS),
                *(f"{i}-{case}" for case in SCREEN_CASES for i in (*STAT_IDS, "os16"))]

    @pytest.mark.parametrize("spec, counts, boost_db, rate", EDGE_CASES, ids=EDGE_IDS)
    def test_regulation_rows_equal_one_point_evaluations(self, spec, counts, boost_db, rate):
        reg = RegulationSpec(1e-2, self.RUNS, boost_db, affected_counts=counts)
        boost = db_to_linear(boost_db)
        stream = RandomStream(82).substream(*spec.stream_key())
        curve = pfa_regulation_curve(spec, ClutterModel(rate), reg, 82)
        assert [j for j, _ in curve] == list(counts)
        for j, est in curve:
            scales = (boost,) * j + (1.0,) * (16 - j)
            one = reference_successes(spec, boost if j > 8 else 1.0, scales, self.RUNS, stream,
                                      rate)
            assert est.successes == one, j

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_edge_screen_passes_few_trials_on(self, spec, monkeypatch):
        # design Pfa 1e-3, 2 dB edge: about 1% of trials can fire at any count
        rows, hits = [], simulation._edge_hits

        def counted(spec, boost, x, zc, counts):
            rows.append(len(x))
            return hits(spec, boost, x, zc, counts)

        monkeypatch.setattr(simulation, "_edge_hits", counted)
        spec = replace(spec, threshold_multiplier=resolve_threshold(spec.stat, 16, 1e-3))
        _, batch = simulation._regulation_points(
            spec, CLUTTER, RegulationSpec(1e-3, BLOCK_TRIALS, 2.0), RandomStream(89)
        )
        assert len(simulation._batch_successes(batch)) == 17
        assert 0 < sum(rows) < 0.05 * BLOCK_TRIALS, sum(rows) / BLOCK_TRIALS

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_edge_block_makes_no_per_count_statistic_pass(self, spec, monkeypatch):
        calls, kernel = [], simulation._stat_rows

        def counted(stat, crp):
            calls.append(stat)
            return kernel(stat, crp)

        monkeypatch.setattr(simulation, "_stat_rows", counted)
        _, batch = simulation._regulation_points(
            spec, CLUTTER, RegulationSpec(1e-2, 1000, 10.0), RandomStream(88)
        )
        assert len(simulation._batch_successes(batch)) == 17
        assert calls == []

    def test_ca_rows_match_exact_heterogeneous_pd(self):
        # CA with CUT scale c0 and cell scales c_i: Pd = prod_i (1 + u c_i)^-1, u = tau/c0
        n = 32
        tau = ca_threshold(1e-2, n)
        spec = DetectorSpec(Sum(), n, tau)
        inr = db_to_linear(10.0)
        exp = ExperimentSpec((spec,), CLUTTER, tuple(range(0, 31, 3)), 200_000, 83,
                             InterferenceSpec(2, 10.0))
        (curve,) = scr_sweep(exp)
        for scr_db, est in curve.points():
            u = tau / (1.0 + db_to_linear(scr_db))
            expect = (1.0 + u * (1.0 + inr)) ** -2 * (1.0 + u) ** -(n - 2)
            assert within(est, expect), (scr_db, est.p_hat, expect)
        boost = db_to_linear(10.0)
        reg = RegulationSpec(1e-2, 200_000, 10.0)
        for j, est in pfa_regulation_curve(spec, CLUTTER, reg, 84):
            u = tau / (boost if j > n // 2 else 1.0)
            expect = (1.0 + u * boost) ** -j * (1.0 + u) ** -(n - j)
            assert within(est, expect), (j, est.p_hat, expect)

    @pytest.mark.parametrize("inter", [None, InterferenceSpec(2, 15.0)], ids=["clean", "int"])
    def test_successes_nondecreasing_in_scr(self, inter):
        grid = (-5.0, 0.0, 0.5, 1.0, 3.0, 6.0, 10.0, 20.0)
        for curve in scr_sweep(ExperimentSpec(STATS_16, CLUTTER, grid, 30_000, 86, inter)):
            hits = [est.successes for est in curve.estimates]
            assert hits == sorted(hits), curve.detector.stat

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_block_holds_one_crp_matrix_and_row_chunks(self, spec):
        reg = RegulationSpec(1e-2, BLOCK_TRIALS, 10.0)
        _, batch = simulation._regulation_points(spec, CLUTTER, reg, RandomStream(87))
        matrix = BLOCK_TRIALS * spec.window_length * 8
        tracemalloc.start()
        try:
            simulation._batch_successes(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the draw, plus the edge pass's temporaries for one chunk of rows
        assert peak < 1.5 * matrix, peak / matrix


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

    @pytest.mark.parametrize("workers", [0, -5])
    @pytest.mark.parametrize("operation", ["estimate_pd", "pfa_regulation_curve", "scr_sweep"])
    def test_workers_below_one_rejected(self, operation, workers):
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        call = {
            "estimate_pd": lambda: estimate_pd(spec, CLUTTER, None, None, 100, 1, workers=workers),
            "pfa_regulation_curve": lambda: pfa_regulation_curve(
                spec, CLUTTER, RegulationSpec(1e-2, 100), 1, workers=workers),
            "scr_sweep": lambda: scr_sweep(
                ExperimentSpec((spec,), CLUTTER, (0.0,), 100, 1), workers=workers),
        }[operation]
        with pytest.raises(ValueError, match="workers must be >= 1"):
            call()

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
