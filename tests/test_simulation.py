"""Monte Carlo engine: oracle agreement, determinism, and interference handling.

Statistical assertions use 4 standard-error margins against closed-form
oracles from the analytic module, keeping false failures out of the suite.
"""

import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfarkit import detector, simulation
from cfarkit.analytic import ca_pd, ca_threshold, gm_threshold, os_threshold
from cfarkit.detector import (
    DetectorSpec,
    GeometricMean,
    Minimum,
    OrderStatistic,
    Sum,
    resolve_threshold,
)
from cfarkit.simulation import (
    BLOCK_TRIALS,
    DetectorCurve,
    ExperimentSpec,
    InterferenceSpec,
    PdEstimate,
    RegulationSpec,
    estimate_pd,
    pfa_regulation_curve,
    scr_sweep,
)
from cfarkit.stats import ClutterModel, RandomStream, TargetContext, db_to_linear

CLUTTER = ClutterModel(1.0)


def within(est: PdEstimate, expect: float, z: float = 4.0) -> bool:
    se = max(est.standard_error, math.sqrt(expect * (1.0 - expect) / est.runs))
    return abs(est.p_hat - expect) <= z * se


def reference_block(spec, cut_scale, cell_scales, trials, stream, rate=1.0) -> int:
    """Successes of one block drawn as documented, each value over ``rate``.

    The CUTs come from ``stream.substream(0)``, the CRP row by row from ``stream``.
    """
    n, stat = spec.window_length, spec.stat
    cut = -np.log1p(-stream.substream(0).generator().random(trials)) / rate * cut_scale
    crp = -np.log1p(-stream.generator().random((trials, n))) / rate * np.asarray(cell_scales)
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
    "rate2**1000": (EDGE, 10.0, 2.0**1000),  # draws over the rate can be subnormal
    "tau2**-1010": (EDGE, 10.0, 1.0),  # tau times a draw can be subnormal
}
SCREEN_TAUS = {"pfa1": 0.0, "tau2**-1010": 2.0**-1010}  # cases with the threshold set by hand


class TestDrawOrder:
    RUNS = BLOCK_TRIALS + 4464  # two unequal blocks

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_estimate_pd_matches_reference(self, spec):
        target = TargetContext.from_db(3.0)
        inter = InterferenceSpec(2, 10.0)  # on CRP cells 0 and 1
        scales = (11.0,) * 2 + (1.0,) * 14
        clutter = ClutterModel(2.0)
        stream = RandomStream(17, (3,))
        for tgt, cut_scale in ((None, 1.0), (target, 1.0 + target.scr_linear)):
            est = estimate_pd(spec, clutter, tgt, inter, self.RUNS, stream)
            assert est.successes == reference_successes(
                spec, cut_scale, scales, self.RUNS, stream, rate=2.0
            )

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kind", ["detection", "edge"])
    def test_block_draws_every_uniform_once(self, kind, n, monkeypatch):
        # one uniform per CUT and one per CRP cell, none drawn and thrown away
        drawn = []
        generator = RandomStream.generator

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size=None, out=None):
                values = self.gen.random(size, out=out)
                drawn.append(values.size)
                return values

        monkeypatch.setattr(RandomStream, "generator", lambda stream: Counted(generator(stream)))
        spec = DetectorSpec(Sum(), n, ca_threshold(1e-2, n))
        if kind == "detection":
            estimate_pd(spec, CLUTTER, TargetContext(1.0), InterferenceSpec(2, 10.0), self.RUNS, 5)
        else:
            reg = RegulationSpec(runs=self.RUNS, affected_counts=(0, n // 2 + 1, n))
            pfa_regulation_curve(spec, CLUTTER, reg, 5)
        assert sum(drawn) == self.RUNS * (n + 1)


def _runs_avx512_kernels() -> bool:
    """Whether numpy runs an X86_V4 (AVX-512) kernel for a float64 log or exp here."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy 1.x reports no kernels
        return False
    info = opt_func_info(func_name="^(log1p|log|exp|expm1)$", signature="float64")
    return any(sig["current"] == "X86_V4" for func in info.values() for sig in func.values())


OS_GRID_SCRIPT = """
from cfarkit.analytic import os_threshold
for n in (8, 16, 24, 32, 64, 128):
    for k in sorted({1, n // 4, n // 2, 3 * n // 4, n - 1, n}):
        for pfa in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8):
            print(float.hex(os_threshold(pfa, n, k)))
"""


class TestStreamFingerprint:
    """Pinned success counts: a change to any random stream must be made on purpose.

    The counts come from SFC64 streams; two unequal blocks, two
    interferers on the leading CRP cells.  If a deliberate stream change
    moves them, record the change in CHANGES.md and pin the new counts.
    The counts do not depend on the kernels numpy picks for the CPU.
    """

    RUNS = BLOCK_TRIALS + 4464
    INTER = InterferenceSpec(2, 10.0)

    def test_estimate_pd(self):
        target = TargetContext.from_db(3.0)
        hits = [estimate_pd(spec, CLUTTER, target, self.INTER, self.RUNS, 2026).successes
                for spec in STATS_16]
        assert hits == [3208, 7289, 1876, 6822]

    def test_pfa_regulation_curve(self):
        reg = RegulationSpec(runs=self.RUNS, boost_db=10.0, affected_counts=(0, 8, 9, 16))
        hits = [[est.successes for _, est in pfa_regulation_curve(spec, CLUTTER, reg, 2026)]
                for spec in STATS_16]
        assert hits == [[699, 0, 4131, 699], [686, 0, 4032, 686], [710, 397, 3286, 710],
                        [713, 1, 10108, 713]]

    def test_scr_sweep(self):
        exp = ExperimentSpec(STATS_16, CLUTTER, (0.0, 10.0), self.RUNS, 2026, self.INTER)
        hits = [[est.successes for est in curve.estimates] for curve in scr_sweep(exp)]
        assert hits == [[1040, 25970], [2838, 35782], [1188, 6184], [2463, 35039]]

    @pytest.mark.skipif(not _runs_avx512_kernels(), reason="numpy runs no X86_V4 (AVX-512) "
                        "log or exp kernel on this CPU, so there are no other kernels to compare")
    def test_baseline_kernels_give_the_same_results(self):
        # a fresh process with the AVX-512 kernels disabled runs numpy's
        # baseline ones, as on a CPU without AVX-512: the pinned counts above
        # and 252 OS thresholds must come out alike, bit for bit
        root = Path(__file__).parents[1]
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = str(Path(detector.__file__).parents[1])
        baseline = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
        tests = [f"tests/test_simulation.py::TestStreamFingerprint::test_{name}"
                 for name in ("estimate_pd", "pfa_regulation_curve", "scr_sweep")]
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=root, env=baseline, capture_output=True, text=True)
        assert run.returncode == 0, run.stdout
        grids = [subprocess.run([sys.executable, "-c", OS_GRID_SCRIPT], env=e, capture_output=True,
                                text=True, check=True).stdout for e in (env, baseline)]
        assert grids[0].count("\n") == 252
        assert grids[0] == grids[1]


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

    @pytest.mark.parametrize("successes, runs, field", [
        (0, True, "runs"), (1, 2.5, "runs"), (1, 2.0, "runs"), (1, "10", "runs"),
        (True, 10, "successes"), (0.0, 10, "successes"), (-1, 10, "successes"),
    ])
    def test_fields_must_be_integers(self, successes, runs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            PdEstimate(successes, runs)

    def test_numpy_integers_accepted(self):
        assert PdEstimate(np.int64(3), np.int32(10)).p_hat == 0.3


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

    def test_interference_spec_validation(self):
        with pytest.raises(ValueError):
            InterferenceSpec(-1, 10.0)

    def test_runs_must_be_an_integer(self):
        for runs in (1e5, 100.0, True):  # floats and bools are not trial counts
            with pytest.raises(ValueError, match="^runs must be an integer"):
                estimate_pd(DetectorSpec(Sum(), 16, 1.0), CLUTTER, None, None, runs, 1)
        assert estimate_pd(DetectorSpec(Sum(), 16, 1.0), CLUTTER, None, None, np.int64(100),
                           1).runs == 100

    def test_interferer_count_must_be_an_integer(self):
        for count in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="^interferer count must be an integer"):
                InterferenceSpec(count, 10.0)
        assert InterferenceSpec(np.int64(2), 10.0).count == 2


class TestSeed:
    """A seed is an integer: a float or a bool is refused, never truncated."""

    SPEC = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
    RUNS = 1000
    OPERATIONS = {
        "estimate_pd": lambda seed: estimate_pd(TestSeed.SPEC, CLUTTER, None, None,
                                                TestSeed.RUNS, seed),
        "pfa_regulation_curve": lambda seed: pfa_regulation_curve(
            TestSeed.SPEC, CLUTTER, RegulationSpec(runs=TestSeed.RUNS), seed),
        "scr_sweep": lambda seed: scr_sweep(
            ExperimentSpec((TestSeed.SPEC,), CLUTTER, (0.0, 10.0), TestSeed.RUNS, seed)),
    }

    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("seed", [2.7, 3.0, True, np.float64(2.0), np.True_, -1, 1 << 64])
    def test_bad_seeds_are_refused(self, operation, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
            self.OPERATIONS[operation](seed)

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_numpy_integer_seeds_are_their_ints(self, operation):
        run = self.OPERATIONS[operation]
        assert run(np.uint64(3)) == run(np.int32(3)) == run(3)


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
            reg = RegulationSpec(runs=200_000, boost_db=10.0, affected_counts=(j,))
            ((count, est),) = pfa_regulation_curve(spec, CLUTTER, reg, seed)
            assert count == j and within(est, 1e-2), (j, est.p_hat)

    def test_zero_boost_is_flat(self):
        tau = ca_threshold(1e-2, 16)
        spec = DetectorSpec(Sum(), 16, tau)
        reg = RegulationSpec(runs=100_000, boost_db=0.0)
        for _, est in pfa_regulation_curve(spec, CLUTTER, reg, 42):
            assert within(est, 1e-2)

    def test_affected_counts_validated(self):
        spec = DetectorSpec(Sum(), 16, 1.0)
        reg = RegulationSpec(runs=1000, affected_counts=(17,))
        with pytest.raises(ValueError):
            pfa_regulation_curve(spec, CLUTTER, reg, 1)

    def test_counts_must_be_integers(self):
        # a fractional count is refused, not truncated into the row of another count
        for counts in ((1.5, 3, 9.9), (3.0,), (True, 2)):
            with pytest.raises(ValueError, match="^affected cell count must be an integer"):
                RegulationSpec(runs=20_000, boost_db=10.0, affected_counts=counts)
        for runs in (1e5, True):
            with pytest.raises(ValueError, match="^runs must be an integer"):
                RegulationSpec(runs=runs)
        reg = RegulationSpec(runs=np.int64(100), affected_counts=(np.int64(1), np.intp(3)))
        assert [j for j, _ in pfa_regulation_curve(STATS_16[0], CLUTTER, reg, 1)] == [1, 3]

    @pytest.mark.parametrize("boost_db", [-3.0, math.inf])
    def test_boost_must_be_finite_increase(self, boost_db):
        with pytest.raises(ValueError):
            RegulationSpec(runs=1000, boost_db=boost_db)

    def test_fields_are_keyword_only(self):
        # the spec once led with a design Pfa: an old positional call must not bind it to runs
        with pytest.raises(TypeError):
            RegulationSpec(1e-2, 1000)

    def test_empty_affected_counts_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(simulation, "_batch_successes", None)  # any block would fail
        reg = RegulationSpec(runs=10**7, affected_counts=())
        assert pfa_regulation_curve(DetectorSpec(Sum(), 16, 1.0), CLUTTER, reg, 1) == ()

    def test_worker_count_never_changes_the_curve(self):
        tau = os_threshold(1e-2, 16, 15)
        spec = DetectorSpec(OrderStatistic(15), 16, tau)
        reg = RegulationSpec(runs=150_000, affected_counts=(0, 5, 9, 16))
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

    def test_runs_must_be_an_integer(self):
        for runs in (1e5, True):
            with pytest.raises(ValueError, match="^runs must be an integer"):
                ExperimentSpec(STATS_16, CLUTTER, (0.0,), runs=runs, seed=1)
        exp = ExperimentSpec(STATS_16[:1], CLUTTER, (0.0,), runs=np.int64(100), seed=1)
        assert scr_sweep(exp)[0].estimates[0].runs == 100


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

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_counts_never_rise_with_the_threshold(self, spec):
        # specs that differ only in tau share their draws, so a higher tau can
        # only turn a success into a miss, at every affected count
        specs = [replace(spec, threshold_multiplier=spec.threshold_multiplier * (1.0 + 1e-3 * i))
                 for i in range(5)]
        assert len({s.stream_key() for s in specs}) == 1
        reg = RegulationSpec(runs=self.RUNS, boost_db=10.0, affected_counts=EDGE)
        counts = [[est.successes for _, est in pfa_regulation_curve(s, CLUTTER, reg, 83)]
                  for s in specs]
        for lower, higher in zip(counts, counts[1:]):
            assert all(h <= l for l, h in zip(lower, higher)), counts
        assert counts[-1] != counts[0], counts

    EDGE_CASES = [(spec, EDGE, 10.0, 1.0) for spec in STATS_16] + [
        (DetectorSpec(OrderStatistic(2), 16, os_threshold(1e-2, 16, 2)), EDGE, 10.0, 1.0),
        (OS16, EDGE, 10.0, 1.0),
        *((spec, (16, 0, 9, 9, 3), 10.0, 1.0) for spec in STATS_16),
        *((spec, EDGE, 0.0, 1.0) for spec in STATS_16),
        *((replace(spec, threshold_multiplier=SCREEN_TAUS[case]) if case in SCREEN_TAUS
           else spec, *args)
          for case, args in SCREEN_CASES.items() for spec in (*STATS_16, OS16)),
    ]
    EDGE_IDS = [*STAT_IDS, "os2", "os16", *(f"{i}-unsorted" for i in STAT_IDS),
                *(f"{i}-0dB" for i in STAT_IDS),
                *(f"{i}-{case}" for case in SCREEN_CASES for i in (*STAT_IDS, "os16"))]

    @pytest.mark.parametrize("spec, counts, boost_db, rate", EDGE_CASES, ids=EDGE_IDS)
    def test_regulation_rows_equal_one_point_evaluations(self, spec, counts, boost_db, rate):
        reg = RegulationSpec(runs=self.RUNS, boost_db=boost_db, affected_counts=counts)
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
    def test_one_count_rows_equal_the_edge_sweep_rows(self, spec):
        # one count takes the detection pass, several the edge screens: same counts
        reg = RegulationSpec(runs=self.RUNS, boost_db=10.0, affected_counts=EDGE)
        sweep = pfa_regulation_curve(spec, CLUTTER, reg, 85)
        for row in sweep:
            one = replace(reg, affected_counts=row[:1])
            assert pfa_regulation_curve(spec, CLUTTER, one, 85) == (row,)

    @pytest.mark.parametrize("stat", [Sum(), OrderStatistic(31), Minimum(), GeometricMean()],
                             ids=["sum", "os31", "min", "gm"])
    def test_count_order_never_changes_a_count_estimate(self, stat):
        # N = 32: counts up to 16 keep the CUT, 17 and 32 boost it; the two groups interleave
        spec = DetectorSpec(stat, 32, resolve_threshold(stat, 32, 1e-2))
        reg = RegulationSpec(runs=self.RUNS, boost_db=10.0, affected_counts=(0, 3, 9, 16, 17, 32))
        ordered = dict(pfa_regulation_curve(spec, CLUTTER, reg, 86))
        shuffled = replace(reg, affected_counts=(16, 32, 0, 9, 17, 9, 3))
        curve = pfa_regulation_curve(spec, CLUTTER, shuffled, 86)
        assert [j for j, _ in curve] == [16, 32, 0, 9, 17, 9, 3]
        assert all(est == ordered[j] for j, est in curve)
        assert len({est for _, est in curve}) > 1

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_edge_screen_passes_few_trials_on(self, spec, monkeypatch):
        # design Pfa 1e-3, 2 dB edge: about 1% of trials can fire at any count
        rows, hits = [], simulation._edge_hits

        def counted(spec, boost, x, zc, counts):
            rows.append(len(x))
            return hits(spec, boost, x, zc, counts)

        monkeypatch.setattr(simulation, "_edge_hits", counted)
        spec = replace(spec, threshold_multiplier=resolve_threshold(spec.stat, 16, 1e-3))
        batch = simulation._regulation_points(
            spec, CLUTTER, RegulationSpec(runs=BLOCK_TRIALS, boost_db=2.0), RandomStream(89)
        )
        assert len(simulation._batch_successes(batch)) == 17
        assert 0 < sum(rows) < 0.05 * BLOCK_TRIALS, sum(rows) / BLOCK_TRIALS

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_per_count_statistic_sees_only_screened_rows(self, spec, monkeypatch):
        # design Pfa 1e-3, 2 dB edge: no statistic pass covers the whole block;
        # the cell screen makes one pass on the rows it is given, and each row
        # it keeps is evaluated once per count of its CUT-scale group
        kept, given, inside, screen_rows, count_rows = {}, [], [], [], []
        screen, kernel = simulation._edge_screen, type(spec.stat).rows

        def counted_screen(spec, boost, x, zc, j):
            given.append(len(x))
            inside.append(j)
            keep = screen(spec, boost, x, zc, j)
            inside.pop()
            kept[j] = kept.get(j, 0) + int(np.count_nonzero(keep))
            return keep

        def counted_kernel(stat, crp):
            (screen_rows if inside else count_rows).append(len(crp))
            return kernel(stat, crp)

        monkeypatch.setattr(simulation, "_edge_screen", counted_screen)
        monkeypatch.setattr(type(spec.stat), "rows", counted_kernel)
        spec = replace(spec, threshold_multiplier=resolve_threshold(spec.stat, 16, 1e-3))
        batch = simulation._regulation_points(
            spec, CLUTTER, RegulationSpec(runs=BLOCK_TRIALS, boost_db=2.0), RandomStream(89)
        )
        assert len(simulation._batch_successes(batch)) == 17
        # counts 0..8 keep the CUT unboosted (screened at j = 0), 9..16 boost it (j = 9)
        assert sorted(kept) == [0, 9] and min(kept.values()) > 0
        assert screen_rows == given  # one kernel call per screen call, on its rows
        assert len(count_rows) >= 17
        assert max(screen_rows + count_rows) < 0.05 * BLOCK_TRIALS, max(screen_rows + count_rows)
        assert max(count_rows) <= sum(kept.values())
        assert sum(count_rows) == 9 * kept[0] + 8 * kept[9]

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
        reg = RegulationSpec(runs=200_000, boost_db=10.0)
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

    @staticmethod
    def block_peak(batch) -> int:
        """Tracemalloc peak of one ``_batch_successes`` call on ``batch``, after a warm-up call."""
        simulation._batch_successes(batch)  # the first call's lazy imports are not the block's
        tracemalloc.start()
        try:
            simulation._batch_successes(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["edge", "interference"])
    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_block_holds_row_chunks_not_the_crp_matrix(self, spec, kind):
        if kind == "edge":
            batch = simulation._regulation_points(
                spec, CLUTTER, RegulationSpec(runs=BLOCK_TRIALS, boost_db=10.0), RandomStream(87)
            )
        else:
            batch = simulation._detection_batch(
                spec, CLUTTER, [None, TargetContext.from_db(10.0)],
                InterferenceSpec(2, 10.0), BLOCK_TRIALS, RandomStream(87),
            )
        matrix = BLOCK_TRIALS * spec.window_length * 8
        peak = self.block_peak(batch)
        # one chunk of rows with its CUTs, the temporaries of a chunk, and a
        # detection block's limits, CUTs and counts of one sub-block or an
        # edge block's kept rows: measured at most 0.150 (edge) and 0.079
        # (interference) at N = 16, bounded with about 0.02-0.03 to spare
        assert peak < (0.18 if kind == "edge" else 0.10) * matrix, peak / matrix

    def test_block_memory_does_not_grow_with_its_trials(self):
        # one OS(31), N = 32 block of 2**16 and of 2**18 trials: its CUT is
        # read chunk by chunk, so a detection block holds the same chunks and
        # sub-block at both sizes, and an edge block only lets its screens'
        # waits fill further, which are capped at a chunk of rows per group
        stat = OrderStatistic(31)
        spec = DetectorSpec(stat, 32, resolve_threshold(stat, 32, 1e-3))
        targets = [TargetContext.from_db(scr) for scr in range(31)]

        def peaks(trials):
            detection = simulation._detection_batch(
                spec, CLUTTER, targets, InterferenceSpec(2, 15.0), trials, RandomStream(88)
            )
            edge = simulation._regulation_points(
                spec, CLUTTER, RegulationSpec(runs=trials, boost_db=2.0), RandomStream(88)
            )
            return self.block_peak(detection), self.block_peak(edge)

        (detection, edge), (detection_4x, edge_4x) = peaks(1 << 16), peaks(1 << 18)
        assert abs(detection_4x - detection) <= 64 << 10, (detection, detection_4x)
        assert edge_4x - edge <= 512 << 10, (edge, edge_4x)


class TestUniformScreen:
    """Edge chunks are screened on their raw uniforms; only the kept rows become cells."""

    ROWS = 4096

    @staticmethod
    def limits(spec, boost, x, j):
        """Per row, ``tau`` times the statistic of the cells ``x`` with the first ``j`` boosted."""
        y = x.copy()
        # near 3080 dB cells and limits overflow to inf; a zero cell's log is -inf
        with np.errstate(over="ignore", divide="ignore"):
            y[:, :j] *= boost
            return spec.stat.rows(y) * spec.threshold_multiplier

    @classmethod
    def tightest_cut(cls, spec, boost, x, j):
        """Per row, the smallest scaled CUT that ``_edge_screen`` keeps at ``j`` (inf: none)."""
        limit = cls.limits(spec, boost, x, j)
        limit *= 1.0 - simulation._SCREEN_SLACK
        return np.nextafter(limit, np.inf)

    SCREENS = {**SCREEN_CASES,  # and weights that overflow, where the clamp decides
               "3080dB": (EDGE, 3080.0, 1.0), "3080dB-rate2.5": (EDGE, 3080.0, 2.5)}
    CASES = [
        (case, n, name)
        for case in SCREENS for n in (16, 32) for name in ("sum", "os13", "min", "osN", "gm")
    ]
    CASE_IDS = [f"{c}-N{n}-{s}" for c, n, s in CASES]

    def adversarial(self, case, n, name):
        """The case's detector, boost and rate, its CUTs, uniforms and cells, and its
        counts grouped by CUT scale, as the edge pass groups them."""
        counts, boost_db, rate = self.SCREENS[case]
        stat = {"sum": Sum(), "os13": OrderStatistic(13), "min": Minimum(),
                "osN": OrderStatistic(n), "gm": GeometricMean()}[name]
        spec = DetectorSpec(stat, n, SCREEN_TAUS[case] if case in SCREEN_TAUS
                            else resolve_threshold(stat, n, 1e-2))
        gen = RandomStream(93, (n,)).generator()
        cut = simulation._cells(gen.random(self.ROWS), rate)
        u = gen.random((self.ROWS, n))
        # rows where u and -log1p(-u) nearly agree, where the limits near 1, and both
        u[:64] *= 2.0**-36
        u[64:128] = 1.0 - u[64:128] * 2.0**-36
        u[128:192, ::2] *= 2.0**-36
        u[192:256, ::2] = 1.0 - u[192:256, ::2] * 2.0**-36
        u[256], u[257] = 0.0, np.nextafter(1.0, 0.0)
        x = simulation._cells(u.copy(), rate)
        boost = db_to_linear(boost_db)
        groups = {}
        for j in (j * n // 16 for j in counts):
            groups.setdefault(boost if j > n // 2 else 1.0, []).append(j)
        return spec, boost, rate, cut, u, x, groups

    @pytest.mark.parametrize("case, n, name", CASES, ids=CASE_IDS)
    def test_keeps_every_row_the_cell_screen_keeps(self, case, n, name):
        spec, boost, rate, cut, u, x, groups = self.adversarial(case, n, name)
        with np.errstate(divide="ignore"):  # the zero row's log sum is -inf
            screened = np.log(u).sum(axis=1) if name == "gm" else u
        for scale, group in groups.items():
            j = min(group)
            tight = self.tightest_cut(spec, boost, x, j)
            # near 3080 dB weights, CUTs and sums overflow to inf; zero weights and cells: log -inf
            with np.errstate(over="ignore", divide="ignore"):
                w = simulation._screen_weights(spec, boost, j, rate)
                screen = simulation._UNIFORM_SCREENS[type(spec.stat)][1]
                for zc in (cut * scale, tight):
                    on_cells = simulation._edge_screen(spec, boost, x, zc, j)
                    on_uniforms = screen(spec.stat, screened, zc * rate, w, j)
                    assert on_uniforms[on_cells].all(), (scale, j)
                # the tightest CUTs sit on the cell screen's boundary: it keeps each finite one
                assert np.array_equal(simulation._edge_screen(spec, boost, x, tight, j),
                                      np.isfinite(tight))

    @pytest.mark.parametrize("case, n, name", CASES, ids=CASE_IDS)
    def test_screen_at_the_lowest_count_keeps_every_row_that_fires_in_its_group(
        self, case, n, name
    ):
        spec, boost, rate, cut, u, x, groups = self.adversarial(case, n, name)
        for scale, group in groups.items():
            # the CUTs of the case, and per count of the group the smallest CUTs that fire there
            firing = [np.nextafter(self.limits(spec, boost, x, j), np.inf) for j in group]
            with np.errstate(over="ignore", divide="ignore"):
                for i, zc in enumerate([cut * scale, *firing]):
                    if i:  # each row whose limit is finite fires at its count
                        fired = simulation._edge_hits(spec, boost, x, zc, [group[i - 1]])
                        assert fired.tolist() == [np.count_nonzero(np.isfinite(zc))]
                    dropped = ~simulation._edge_screen(spec, boost, x, zc, min(group))
                    hits = simulation._edge_hits(spec, boost, x[dropped], zc[dropped], group)
                    assert hits.tolist() == [0] * len(group), (scale, group, i)

    @pytest.mark.parametrize("rate", [1.0, 2.5, 2.0**-960])
    def test_kept_rows_turn_into_the_cells_of_the_whole_chunk(self, rate):
        gen = RandomStream(94).generator()
        u = gen.random((1024, 32))
        u[0, :3] = 0.0, np.nextafter(1.0, 0.0), 2.0**-53  # the extreme uniforms
        whole = simulation._cells(u.copy(), rate)
        picks = [gen.random(len(u)) < p for p in (0.001, 0.02, 0.3, 0.9)]
        picks += [np.arange(len(u)) == 0, np.arange(len(u)) < 7, np.ones(len(u), dtype=bool)]
        for pick in picks:
            rows = simulation._cells(u[pick], rate)
            assert rows.view(np.int64).tolist() == whole[pick].view(np.int64).tolist()
        # a chunk's CUTs go through the same transform
        assert np.array_equal(simulation._cells(u[:, 5].copy(), rate), whole[:, 5])

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_few_rows_reach_the_transform(self, spec, monkeypatch):
        # design Pfa 1e-3, 2 dB edge: the uniform screen passes few of a block's
        # CRP rows on to the transform
        rows, cells = [], simulation._cells

        def counted(u, rate):
            if u.ndim == 2:  # a CRP chunk or kept rows, not a chunk's CUTs
                rows.append(len(u))
            return cells(u, rate)

        monkeypatch.setattr(simulation, "_cells", counted)
        spec = replace(spec, threshold_multiplier=resolve_threshold(spec.stat, 16, 1e-3))
        batch = simulation._regulation_points(
            spec, CLUTTER, RegulationSpec(runs=BLOCK_TRIALS, boost_db=2.0), RandomStream(89)
        )
        assert len(simulation._batch_successes(batch)) == 17
        assert 0 < sum(rows) < 0.25 * BLOCK_TRIALS, sum(rows) / BLOCK_TRIALS


class TestChunkSize:
    """The CRP chunk size bounds a block's memory and never changes a count."""

    RUNS = 20_000  # one block: 7-row chunks leave a partial last chunk

    @staticmethod
    def at_each_size(monkeypatch, run):
        results = [run()]
        for rows in (7, BLOCK_TRIALS):
            monkeypatch.setattr(detector, "_CHUNK_CELLS", 16 * rows)
            results.append(run())
        return results

    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_detection_counts(self, spec, monkeypatch):
        exp = ExperimentSpec((spec,), CLUTTER, (0.0, 10.0), self.RUNS, 91,
                             InterferenceSpec(2, 10.0))
        default, *others = self.at_each_size(monkeypatch, lambda: scr_sweep(exp))
        assert others == [default] * 2

    @pytest.mark.parametrize("case", SCREEN_CASES)
    @pytest.mark.parametrize("spec", STATS_16, ids=STAT_IDS)
    def test_edge_counts(self, spec, case, monkeypatch):
        counts, boost_db, rate = SCREEN_CASES[case]
        if case in SCREEN_TAUS:
            spec = replace(spec, threshold_multiplier=SCREEN_TAUS[case])
        reg = RegulationSpec(runs=self.RUNS, boost_db=boost_db, affected_counts=counts)
        default, *others = self.at_each_size(
            monkeypatch, lambda: pfa_regulation_curve(spec, ClutterModel(rate), reg, 92)
        )
        assert others == [default] * 2


class TestRunPlan:
    RUNS = BLOCK_TRIALS + 4464  # two unequal blocks per point

    def test_one_pool_per_run_and_identical_results(self, pools_started):
        ca = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        os15 = DetectorSpec(OrderStatistic(15), 16, os_threshold(1e-2, 16, 15))
        exp = ExperimentSpec((ca, os15), CLUTTER, (0.0, 10.0), self.RUNS, 5,
                             InterferenceSpec(1, 10.0))
        reg = RegulationSpec(runs=self.RUNS, affected_counts=(0, 9, 16))
        for call in (
            lambda workers: scr_sweep(exp, workers=workers),
            lambda workers: pfa_regulation_curve(os15, CLUTTER, reg, 6, workers=workers),
        ):
            results = []
            for workers, pools in ((1, 0), (2, 1), (3, 1)):
                pools_started.clear()
                results.append(call(workers))
                assert len(pools_started) == pools, workers
                assert not multiprocessing.active_children(), workers  # the pool was shut down
            assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("workers", [0, -5])
    @pytest.mark.parametrize("operation", ["estimate_pd", "pfa_regulation_curve", "scr_sweep"])
    def test_workers_below_one_rejected(self, operation, workers):
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        call = {
            "estimate_pd": lambda: estimate_pd(spec, CLUTTER, None, None, 100, 1, workers=workers),
            "pfa_regulation_curve": lambda: pfa_regulation_curve(
                spec, CLUTTER, RegulationSpec(runs=100), 1, workers=workers),
            "scr_sweep": lambda: scr_sweep(
                ExperimentSpec((spec,), CLUTTER, (0.0,), 100, 1), workers=workers),
        }[operation]
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            call()

    @pytest.mark.parametrize("workers", [2.0, 1.0, True, "2", None])
    def test_workers_must_be_an_integer(self, workers):
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        with pytest.raises(ValueError, match=r"^workers must be an integer >= 1, got "):
            estimate_pd(spec, CLUTTER, None, None, 100, 1, workers=workers)

    def test_numpy_integer_workers_accepted(self, pools_started):
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        one = estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8)
        assert estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8, workers=np.int64(2)) == one
        assert len(pools_started) == 1

    @staticmethod
    def in_process_pool(sizes: list, pending: list):
        """A pool stand-in that runs each submitted block at once.

        ``sizes`` gets each pool's ``max_workers``; ``pending``, after each
        submit, the number of blocks submitted whose result is not yet read.
        """
        unread = set()

        class Read(Future):
            def result(self, timeout=None):
                unread.discard(self)
                return super().result(timeout)

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Read()
                future.set_result(fn(*args))
                unread.add(future)
                pending.append(len(unread))
                return future

        return InProcessPool

    def test_pool_never_outnumbers_blocks(self, monkeypatch):
        sizes, pending = [], []
        pool = self.in_process_pool(sizes, pending)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        est = estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8, workers=10_000)
        assert sizes == [2]
        assert est == estimate_pd(spec, CLUTTER, None, None, self.RUNS, 8, workers=1)

    def test_at_most_two_blocks_per_process_in_flight(self, monkeypatch):
        sizes, pending = [], []
        pool = self.in_process_pool(sizes, pending)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        exp = ExperimentSpec((spec,) * 3, CLUTTER, (0.0, 10.0), 4 * BLOCK_TRIALS + 4464, 9,
                             InterferenceSpec(1, 10.0))
        curves = scr_sweep(exp, workers=4)
        assert sizes == [4]
        assert len(pending) == 15 and max(pending) == 8, pending  # 3 curves of 5 blocks
        assert curves == scr_sweep(exp, workers=1)

    def test_plan_memory_does_not_grow_with_runs(self, monkeypatch):
        monkeypatch.setattr(simulation, "_batch_successes", lambda block: [0])
        spec = DetectorSpec(Sum(), 16, ca_threshold(1e-2, 16))
        peaks = []
        for runs in (2**20, 2**30):  # 16 and 16,384 blocks
            tracemalloc.start()
            try:
                estimate_pd(spec, CLUTTER, None, None, runs, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 64 * 1024, peaks
