"""Distribution, conversion, and sampling tests for the stats module.

Expected values are frozen from independent evaluations: exact decades
for the dB conversions, law-of-large-numbers and KS oracles for the
sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfarkit.stats import (
    ClutterModel,
    RandomStream,
    TargetContext,
    db_to_linear,
    linear_to_db,
    sample_exponential,
    unit_exponential,
)


class TestDbConversion:
    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0), (20.0, 100.0)])
    def test_decades(self, db, linear):
        assert db_to_linear(db) == pytest.approx(linear, rel=1e-14)

    @given(x=st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_overflow_is_value_error(self):
        assert db_to_linear(3080.0) == pytest.approx(1e308, rel=1e-12)
        with pytest.raises(ValueError, match="5000"):
            db_to_linear(5000.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_linear_to_db_domain(self, bad):
        with pytest.raises(ValueError):
            linear_to_db(bad)


class TestRates:
    @given(x=st.floats(0.0, 60.0), rate=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_boost_scales_mean_intensity(self, x, rate):
        # clutter raised by x dB has rate lambda * 10^(-x/10); its mean 1/rate
        # is 10^(x/10) times the unboosted mean
        model = ClutterModel(rate)
        boosted = ClutterModel(model.rate * 10.0 ** (-x / 10.0))
        assert 1.0 / boosted.rate == pytest.approx(db_to_linear(x) / model.rate, rel=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ClutterModel(0.0)
        with pytest.raises(ValueError):
            ClutterModel(math.inf)
        with pytest.raises(ValueError):
            TargetContext(-1.0)

    @pytest.mark.parametrize("rate", [1e-300, 3e-307, 1e-310, 2.0**-961])
    def test_rate_too_small_for_finite_draws_is_refused(self, rate):
        # below 2**-960 a unit draw divided by the rate can overflow to inf
        with pytest.raises(ValueError, match="2\\*\\*-960"):
            ClutterModel(rate)

    @pytest.mark.parametrize("rate", [2.0**-960, 1.7e308])
    def test_extreme_accepted_rates_give_finite_draws(self, rate):
        model = ClutterModel(rate)
        # the largest unit draw, -log1p(-U) at the largest U below 1
        largest = -math.log1p(-(1.0 - 2.0**-53)) / model.rate
        assert math.isfinite(largest * 2.0**58)  # also a sum of 2**58 such cells
        assert np.isfinite(sample_exponential(model, 1000, RandomStream(1))).all()


class TestRandomStream:
    def test_same_stream_same_samples(self):
        model = ClutterModel(1.0)
        a = sample_exponential(model, 64, RandomStream(1234, (7,)))
        b = sample_exponential(model, 64, RandomStream(1234, (7,)))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        model = ClutterModel(1.0)
        a = sample_exponential(model, 64, RandomStream(1234, (7,)))
        b = sample_exponential(model, 64, RandomStream(1234, (8,)))
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic_and_keyed(self):
        base = RandomStream(99)
        assert base.substream(1, 2) == base.substream(1, 2)
        assert base.substream(1, 2) != base.substream(2, 1)
        assert base.substream(0) != base.substream(1)

    def test_u64_bounds(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(1 << 64)
        RandomStream((1 << 64) - 1)  # boundary is valid

    @pytest.mark.parametrize("seed, key", [(0, (0,)), (2026, (3,)), ((1 << 64) - 1, (7,)),
                                           (5, (1, 2, 3)), (9, ())])
    def test_generator_is_sfc64_of_the_seed_sequence_of_the_key(self, seed, key):
        ss = np.random.SeedSequence(seed, spawn_key=key)
        expected = np.random.Generator(np.random.SFC64(ss)).random(8)
        assert RandomStream(seed, key).generator().random(8).tolist() == expected.tolist()

    def test_substream_appends_to_the_key(self):
        base = RandomStream(99)
        assert base.key == (0,)
        assert base.substream(3, 4) == RandomStream(99, (0, 3, 4))
        assert base.substream(3).substream(4) == base.substream(3, 4)
        assert base.substream() == base

    def test_keys_that_split_into_words_are_refused(self):
        # SeedSequence splits a word of 2**32 or more into 32-bit words, so
        # (2**32,) would draw what (0, 1) draws
        words = [np.random.SeedSequence(1, spawn_key=key).generate_state(4).tolist()
                 for key in ((1 << 32,), (0, 1))]
        assert words[0] == words[1]
        RandomStream(1, ((1 << 32) - 1,))  # boundary is valid
        message = r"^key must be an integer in \[0, 2\*\*32\), got 4294967296$"
        with pytest.raises(ValueError, match=message):
            RandomStream(1).substream(1 << 32)

    @pytest.mark.parametrize("key", [-1, 1 << 32, 1 << 64, True, np.True_, 1.0, 2.5,
                                     np.float64(3)])
    def test_bad_keys_are_refused(self, key):
        with pytest.raises(ValueError, match="^key must be an integer in "):
            RandomStream(5).substream(key)
        with pytest.raises(ValueError, match="^key must be an integer in "):
            RandomStream(5, (1, key))

    @pytest.mark.parametrize("seed", [True, False, 1.0, 2.7, np.float64(3), np.True_])
    def test_float_and_bool_seeds_are_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), "):
            RandomStream(seed)

    def test_numpy_integers_are_taken_as_ints(self):
        stream = RandomStream(np.uint64(7), (np.int64(3),)).substream(np.int32(2))
        assert stream == RandomStream(7, (3, 2))
        draws = [s.generator().random(4).tolist() for s in (stream, RandomStream(7, (3, 2)))]
        assert draws[0] == draws[1]


class TestSampleExponential:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_exponential(ClutterModel(1.0), 0, RandomStream(1))

    def test_positive(self):
        samples = sample_exponential(ClutterModel(3.0), 10_000, RandomStream(5))
        assert np.all(samples >= 0.0) and np.all(np.isfinite(samples))

    @pytest.mark.parametrize("rate", [1.0, 2.5, 2.0**-960])
    def test_samplers_are_the_inverse_cdf_of_their_stream(self, rate):
        # the public samplers and the engine's cells share one transform, bit for bit
        stream = RandomStream(44, (3,))
        u = stream.generator().random((64, 64))
        expected = (-np.log1p(-u) / rate).view(np.int64).tolist()
        unit = unit_exponential(stream.generator(), (64, 64)) / rate
        assert unit.view(np.int64).tolist() == expected
        samples = sample_exponential(ClutterModel(rate), 64 * 64, stream).reshape(64, 64)
        assert samples.view(np.int64).tolist() == expected

    def test_mean_rate_one(self):
        # 4 standard errors of the mean at n = 1e6 (std of Exp(1) is 1)
        n = 1_000_000
        samples = sample_exponential(ClutterModel(1.0), n, RandomStream(42))
        assert abs(samples.mean() - 1.0) < 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 10.0])
    def test_mean_converges(self, rate):
        n = 1_000_000
        samples = sample_exponential(ClutterModel(rate), n, RandomStream(43))
        se = (1.0 / rate) / math.sqrt(n)
        assert abs(samples.mean() - 1.0 / rate) < 5.0 * se

    def test_kolmogorov_smirnov(self):
        from scipy import stats as sps

        n, rate = 100_000, 2.0
        samples = sample_exponential(ClutterModel(rate), n, RandomStream(44))
        result = sps.kstest(samples, lambda t: -np.expm1(-rate * t))
        # asymptotic critical value at the 0.001 significance level
        critical = math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(n)
        assert result.statistic < critical
