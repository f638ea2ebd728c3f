"""Clutter statistics, the threshold test, and sliding-window detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfarkit
from cfarkit import detector
from cfarkit.analytic import os_threshold
from cfarkit.detector import (
    Decision,
    DetectorSpec,
    GeometricMean,
    Minimum,
    OrderStatistic,
    Sum,
    clutter_statistic,
    decide,
    slide,
)

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


class TestClutterStatistic:
    def test_sum(self):
        assert clutter_statistic(Sum(), [1.0, 2.0, 3.0]) == 6.0

    def test_order_statistic(self):
        assert clutter_statistic(OrderStatistic(2), [3.0, 1.0, 2.0]) == 2.0

    def test_geometric_mean(self):
        assert clutter_statistic(GeometricMean(), [1.0, 4.0]) == pytest.approx(2.0, rel=1e-12)

    def test_minimum(self):
        assert clutter_statistic(Minimum(), [3.0, 1.0, 2.0]) == 1.0

    def test_minimum_is_the_first_order_statistic(self):
        assert cfarkit.Minimum() == OrderStatistic(1)

    def test_geometric_mean_zero_limit(self):
        assert clutter_statistic(GeometricMean(), [0.0, 4.0, 2.0]) == 0.0

    def test_empty_crp_rejected(self):
        with pytest.raises(ValueError):
            clutter_statistic(Sum(), [])

    def test_order_index_exceeding_crp(self):
        with pytest.raises(ValueError):
            clutter_statistic(OrderStatistic(4), [1.0, 2.0, 3.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            clutter_statistic(Sum(), [1.0, -2.0])

    @given(
        crp=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=64),
        eta_index=st.integers(0, len(SCALES) - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, crp, eta_index):
        eta = SCALES[eta_index]
        crp = np.asarray(crp)
        stats = [Sum(), OrderStatistic(1), OrderStatistic(len(crp)), GeometricMean(), Minimum()]
        for stat in stats:
            g = clutter_statistic(stat, crp)
            scaled = clutter_statistic(stat, eta * crp)
            assert abs(scaled - eta * g) <= 1e-12 * eta * g

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        crp = rng.exponential(size=32)
        ordered = np.sort(crp)
        for k in (1, 8, 17, 32):
            for _ in range(5):
                shuffled = rng.permutation(crp)
                assert clutter_statistic(OrderStatistic(k), shuffled) == ordered[k - 1]

    def test_sum_matches_direct_summation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            crp = rng.exponential(size=32)
            direct = float(np.sum(crp))
            assert abs(clutter_statistic(Sum(), crp) - direct) <= 1e-12 * direct


class TestDecide:
    def test_exceedance_fires(self):
        assert decide(2.0, 1.0, 1.5) is Decision.H1

    def test_tie_resolves_to_h0(self):
        assert decide(1.0, 1.0, 1.0) is Decision.H0

    def test_zero_cut_never_fires_against_positive_threshold(self):
        assert decide(0.0, 3.0, 0.5) is Decision.H0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decide(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            decide(1.0, float("nan"), 1.0)

    def test_scale_invariance_of_decision(self):
        rng = np.random.default_rng(9)
        stats = [Sum(), OrderStatistic(5), GeometricMean(), Minimum()]
        for _ in range(200):
            crp = rng.exponential(size=8)
            z0 = float(rng.exponential())
            tau = float(rng.uniform(0.0, 3.0))
            for stat in stats:
                base = decide(z0, clutter_statistic(stat, crp), tau)
                for eta in SCALES:
                    assert decide(eta * z0, clutter_statistic(stat, eta * crp), tau) is base


class TestDetectorSpec:
    def test_rejects_odd_window(self):
        with pytest.raises(ValueError):
            DetectorSpec(Sum(), 5, 1.0)

    def test_rejects_odd_guard(self):
        with pytest.raises(ValueError):
            DetectorSpec(Sum(), 4, 1.0, guard_cells=3)

    def test_rejects_order_index_above_window(self):
        with pytest.raises(ValueError):
            DetectorSpec(OrderStatistic(9), 8, 1.0)

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError):
            DetectorSpec(Sum(), 8, -0.5)

    def test_stream_key_distinguishes_specs(self):
        specs = [DetectorSpec(Sum(), 32, 1.0), DetectorSpec(Sum(), 16, 1.0),
                 DetectorSpec(Sum(), 32, 1.0, 2), DetectorSpec(OrderStatistic(31), 32, 1.0),
                 DetectorSpec(OrderStatistic(30), 32, 1.0), DetectorSpec(GeometricMean(), 32, 1.0)]
        assert len({spec.stream_key() for spec in specs}) == len(specs)

    @pytest.mark.parametrize("stat, key", [
        (Sum(), (1, 0)), (OrderStatistic(7), (2, 7)), (Minimum(), (2, 1)), (GeometricMean(), (3, 0)),
    ], ids=["sum", "os7", "min", "gm"])
    def test_stream_key_leads_with_the_kind_code(self, stat, key):
        # the stream of every Monte Carlo row derives from these codes and the
        # window, never the threshold: specs that differ only in tau share draws
        assert DetectorSpec(stat, 32, 1.0, 4).stream_key() == (*key, 32, 4)

    @pytest.mark.parametrize("field, args", [
        ("window length", (32.0, 1.0)),
        ("window length", (True, 1.0)),
        ("guard cell count", (32, 1.0, 8.0)),
        ("guard cell count", (32, 1.0, False)),
    ])
    def test_counts_must_be_integers(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            DetectorSpec(Sum(), *args)

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_order_index_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="^order-statistic index must be an integer >= 1"):
            OrderStatistic(k)

    def test_numpy_integers_are_counts(self):
        spec = DetectorSpec(OrderStatistic(np.int64(31)), np.int32(32), 1.0, np.int64(8))
        assert spec.stream_key() == DetectorSpec(OrderStatistic(31), 32, 1.0, 8).stream_key()


@pytest.mark.parametrize(
    "stat", [Sum(), OrderStatistic(5), Minimum(), GeometricMean()], ids=["sum", "os5", "min", "gm"]
)
def test_caller_arrays_left_unchanged(stat):
    # the statistic kernel works in place; the public entry points hand it copies
    rng = np.random.default_rng(7)
    crp = rng.exponential(size=8)
    profile = rng.exponential(size=64)
    crp_before, profile_before = crp.copy(), profile.copy()
    clutter_statistic(stat, crp)
    slide(profile, DetectorSpec(stat, 8, 2.0, guard_cells=2))
    np.testing.assert_array_equal(crp, crp_before)
    np.testing.assert_array_equal(profile, profile_before)


SLIDE_CASES = [(Sum(), 0.4), (OrderStatistic(24), 3.0), (Minimum(), 30.0), (GeometricMean(), 8.0)]
SLIDE_IDS = ["sum", "os24", "min", "gm"]


class TestSlide:
    def test_constant_profile_all_h0(self):
        spec = DetectorSpec(Sum(), 4, 1.0, guard_cells=4)
        out = slide(np.ones(20), spec)
        reach = spec.reach
        assert np.all(out[:reach] == Decision.UNTESTED)
        assert np.all(out[-reach:] == Decision.UNTESTED)
        assert np.all(out[reach:-reach] == Decision.H0)  # z0 = 1 vs tau*g = 4

    def test_spike_detected_exactly_once(self):
        # one strong cell in a weak profile; k = N-1 keeps the spike out of
        # every neighbour's clutter estimate
        tau = os_threshold(1e-4, 4, 3)
        spec = DetectorSpec(OrderStatistic(3), 4, tau, guard_cells=2)
        profile = np.full(25, 1e-3)
        profile[12] = 1e3
        out = slide(profile, spec)
        (hits,) = np.nonzero(out == Decision.H1)
        assert list(hits) == [12]

    def test_edge_cells_untested(self):
        spec = DetectorSpec(Sum(), 8, 0.5, guard_cells=4)
        out = slide(np.ones(40), spec)
        reach = spec.half_window + spec.guard_per_side
        assert np.all(out[:reach] == Decision.UNTESTED)
        assert np.all(out[40 - reach :] == Decision.UNTESTED)
        assert np.all(out[reach : 40 - reach] != Decision.UNTESTED)

    def test_short_profile_rejected(self):
        spec = DetectorSpec(Sum(), 8, 1.0, guard_cells=4)
        with pytest.raises(ValueError):
            slide(np.ones(12), spec)  # needs N + guard + 1 = 13

    @staticmethod
    def edged_profile(rng, size):
        # clutter edges: piecewise-constant power steps of 0 to 20 dB
        power = 10.0 ** rng.choice([0.0, 0.5, 1.0, 2.0], size=5)
        return rng.exponential(size=size) * np.repeat(power, -(-size // 5))[:size]

    @staticmethod
    def per_cell_reference(profile, spec):
        # one clutter_statistic and one decide per testable cell
        reach, gs = spec.reach, spec.guard_per_side
        expected = np.full(profile.size, Decision.UNTESTED, dtype=np.int8)
        for i in range(reach, profile.size - reach):
            crp = np.concatenate(
                [profile[i - reach : i - gs], profile[i + gs + 1 : i + reach + 1]]
            )
            expected[i] = decide(profile[i], clutter_statistic(spec.stat, crp),
                                 spec.threshold_multiplier)
        return expected

    @pytest.mark.parametrize("stat, tau", SLIDE_CASES, ids=SLIDE_IDS)
    def test_matches_per_cell_reference(self, stat, tau):
        rng = np.random.default_rng(11)
        spec = DetectorSpec(stat, 32, tau, guard_cells=8)
        for _ in range(10):
            profile = self.edged_profile(rng, int(rng.integers(41, 2000)))
            expected = self.per_cell_reference(profile, spec)
            np.testing.assert_array_equal(slide(profile, spec), expected)

    @pytest.mark.parametrize("rows", [7, None, 10**6], ids=["7", "default", "whole"])
    @pytest.mark.parametrize("stat, tau", SLIDE_CASES, ids=SLIDE_IDS)
    def test_chunk_size_never_changes_decisions(self, stat, tau, rows, monkeypatch):
        # 4,460 tested cells: 7 rows leave a partial last chunk, the default
        # (1,024 rows at N = 32) makes five chunks and 10**6 rows make one
        if rows is not None:
            monkeypatch.setattr(detector, "_CHUNK_CELLS", 32 * rows)
        spec = DetectorSpec(stat, 32, tau, guard_cells=8)
        profile = self.edged_profile(np.random.default_rng(12), 4500)
        np.testing.assert_array_equal(slide(profile, spec), self.per_cell_reference(profile, spec))

    def test_memory_bounded_by_one_chunk(self):
        # the profile (8 MB) and the decisions (1 MB) are the output's own
        # size; a (cells, N) CRP matrix would be 256 MB
        profile = np.random.default_rng(13).exponential(size=10**6)
        spec = DetectorSpec(OrderStatistic(24), 32, 3.0, guard_cells=8)
        tracemalloc.start()
        try:
            slide(profile, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak

    def test_guard_cells_never_enter_the_clutter_estimate(self):
        # N = 4, one guard cell per side: the CUT at 10 uses cells 7, 8 and
        # 12, 13; cells 9 and 11 are guards.  On a unit profile g = 4 and the
        # CUT of 2 exceeds 0.3 * g; a spike that enters g masks it.
        spec = DetectorSpec(Sum(), 4, 0.3, guard_cells=2)
        profile = np.ones(21)
        profile[10] = 2.0
        assert slide(profile, spec)[10] == Decision.H1
        for guard in (9, 11):
            spiked = profile.copy()
            spiked[guard] = 1e6
            assert slide(spiked, spec)[10] == Decision.H1
        for reference in (8, 12, 7, 13):
            spiked = profile.copy()
            spiked[reference] = 1e6
            assert slide(spiked, spec)[10] == Decision.H0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_nonfinite_values(self, bad):
        spec = DetectorSpec(Sum(), 4, 1.0, guard_cells=2)
        profile = np.ones(20)
        profile[10] = bad
        with pytest.raises(ValueError):
            slide(profile, spec)

    def test_rejects_non_1d_profile(self):
        spec = DetectorSpec(Sum(), 4, 1.0, guard_cells=2)
        with pytest.raises(ValueError):
            slide(np.ones((2, 20)), spec)
