"""Exact evaluators and the threshold solver.

Derived expectations are frozen from independent sources: 40-digit
arithmetic for point values, an order-statistic quadrature oracle for the
exceedance probability, brute-force Monte Carlo for small windows, and
for the geometric mean ``scipy.special.loggamma``, the single-cell
identity ``Pfa = 1/(1+tau)`` and conditional Monte Carlo.
The quadrature oracle integrates

    P(Z0 > tau * Z_(k)) = integral f_(k)(t) * exp(-tau * t) dt

with f_(k) the density of the k-th order statistic of N unit
exponentials, built from the binomial form of the order-statistic
density, a route that never touches the product form under test.
"""

import decimal
import itertools
import math
import sys

import numpy as np
import pytest
from scipy import integrate, special

from cfarkit import analytic
from cfarkit.analytic import (
    ThresholdSolverError,
    _gm_quadrature,
    _log_gamma1p,
    ca_pd,
    ca_pfa,
    ca_threshold,
    gm_pd,
    gm_pfa,
    gm_threshold,
    ideal_pd,
    ideal_threshold,
    os_pd,
    os_pfa,
    os_threshold,
)
from cfarkit.cli import main
from cfarkit.config import DetectorRequest
from cfarkit.detector import OrderStatistic
from cfarkit.simulation import resolve_threshold

PFA_GRID = (1e-2, 1e-4, 1e-6)
WINDOW_GRID = (8, 16, 32, 64)


def os_exceedance_by_quadrature(tau: float, n: int, k: int) -> float:
    """Independent oracle: quadrature over the k-th order-statistic density."""
    binom = math.comb(n, k) * k

    def integrand(t: float) -> float:
        cdf = -math.expm1(-t)
        sf = math.exp(-t)
        return binom * cdf ** (k - 1) * sf ** (n - k) * sf * math.exp(-tau * t)

    value, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    assert err < 1e-11 * value  # quadrature itself converged
    return value


def gm_pfa_by_scipy_loggamma(tau: float, n: int) -> tuple[float, float]:
    """Independent GM oracle: the Mellin-Barnes sum with ``scipy.special.loggamma``.

    Its line ``Re s`` sits a tenth of the way from the saddle towards the
    nearer pole, and its step is finer than the code's, so it shares
    neither the log-gamma nor the node grid.  Returns the Pfa and the
    oracle's own relative rounding error, 8 eps times the size of the
    log-gamma terms it adds (1.2e-11 at N = 1024 and Pfa 1e-300).
    """
    log_tau = math.log(tau)

    def log_peak(c):
        return math.lgamma(c) + n * math.lgamma(1.0 - c / n) - c * log_tau

    grid = np.linspace(0.0, n, 4001)[1:-1]
    c = grid[np.argmin([log_peak(x) for x in grid])]
    c += 0.1 * min(c, n - c)
    h = min(0.01, min(c, n - c) / 7.0)  # trapezoid error exp(-14 pi) of the integrand
    peak, total, start = log_peak(c), 0.0, 0
    while True:  # chunks of 4096 nodes until the integrand has decayed
        s = c + 1j * h * np.arange(start, start + 4096)
        log_f = special.loggamma(s) + n * special.loggamma(1.0 - s / n) - s * log_tau
        terms = np.exp(log_f - peak) * np.where(s.imag == 0, 0.5, 1.0)
        total, start = total + terms.real.sum(), start + 4096
        if abs(terms[-1]) < 1e-17 * abs(total):
            break
    size = abs(math.lgamma(c)) + n * abs(math.lgamma(1.0 - c / n)) + c * abs(log_tau)
    return total * h / math.pi * math.exp(peak), 8.0 * sys.float_info.epsilon * size


class TestCellAveraging:
    @pytest.mark.parametrize("scr,n", [(0.0, 1), (3.0, 8), (100.0, 64)])
    def test_zero_threshold_always_fires(self, scr, n):
        assert ca_pd(0.0, scr, n) == 1.0

    def test_threshold_trivials(self):
        assert ca_threshold(1.0, 32) == 0.0
        assert ca_pfa(0.0, 32) == 1.0
        assert ca_pfa(1.0, 1) == pytest.approx(0.5, rel=1e-14)

    def test_threshold_frozen_value(self):
        # 10**0.125 - 1 to 20 digits: 0.33352143216332402568
        assert ca_threshold(1e-4, 32) == pytest.approx(0.3335214321633240, rel=1e-12)

    def test_pd_frozen_value(self):
        # (1 + tau/11)**-32 at the design threshold: 0.38449445211841579222
        tau = ca_threshold(1e-4, 32)
        assert ca_pd(tau, 10.0, 32) == pytest.approx(0.3844944521184158, rel=1e-11)

    @pytest.mark.parametrize(
        "pfa, n", [(0.999, 1), (1 - 1e-9, 1024), (0.5, 16), (1e-4, 32), (1e-30, 2), (1e-300, 1)]
    )
    def test_threshold_against_decimal_oracle(self, pfa, n):
        # pfa**(-1/n) - 1 to 40 digits from the exact binary value of pfa: near
        # Pfa 1 the subtraction cancels, near 0 log(pfa) carries a large error
        ctx = decimal.Context(prec=40)
        exact = ctx.subtract(ctx.power(decimal.Decimal(pfa), ctx.divide(-1, n)), 1)
        assert abs(ctx.divide(decimal.Decimal(ca_threshold(pfa, n)), exact) - 1) <= 1e-15

    def test_pfa_is_pd_at_zero_scr(self):
        for tau, n in itertools.product((0.1, 0.5, 2.0), WINDOW_GRID):
            assert ca_pfa(tau, n) == ca_pd(tau, 0.0, n)  # same code path, bit for bit

    def test_round_trip(self):
        for p, n in itertools.product(PFA_GRID, WINDOW_GRID):
            tau = ca_threshold(p, n)
            assert abs(ca_pfa(tau, n) - p) / p <= 1e-12

    def test_monotone_in_tau_and_scr(self):
        taus = np.linspace(0.05, 5.0, 40)
        pds = [ca_pd(t, 1.0, 32) for t in taus]
        assert all(b < a for a, b in zip(pds, pds[1:]))
        scrs = np.linspace(0.0, 100.0, 40)
        pds = [ca_pd(0.5, s, 32) for s in scrs]
        assert all(b > a for a, b in zip(pds, pds[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ca_threshold(0.0, 32)
        with pytest.raises(ValueError):
            ca_threshold(1.5, 32)
        with pytest.raises(ValueError):
            ca_pd(-0.1, 0.0, 32)


class TestOrderStatistic:
    def test_zero_threshold_always_fires(self):
        for n, k in ((4, 1), (4, 4), (32, 31)):
            assert os_pd(0.0, 7.0, n, k) == pytest.approx(1.0, rel=1e-14)

    def test_exchangeability_max_of_pool(self):
        # tau=1, k=N: fires iff the CUT is the maximum of N+1 exchangeable cells
        assert os_pfa(1.0, 4, 4) == pytest.approx(0.2, abs=1e-12)

    def test_exchangeability_minimum(self):
        # tau=1, k=1: fires iff the CUT is not the minimum of 3 cells
        assert os_pfa(1.0, 2, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_pd_frozen_value(self):
        # 24 * Gamma(1.5) / Gamma(5.5) reduces to exactly 128/315
        assert os_pd(1.0, 1.0, 4, 4) == pytest.approx(128.0 / 315.0, rel=1e-12)

    def test_pfa_is_pd_at_zero_scr(self):
        for tau, (n, k) in itertools.product((0.5, 1.0, 4.0), ((8, 4), (32, 31))):
            assert os_pfa(tau, n, k) == os_pd(tau, 0.0, n, k)

    def test_minimum_detector_closed_form(self):
        # the product form at k = 1 is its one factor, up to the thresholds
        # of Pfa 1e-6 at N = 64
        taus = (0.5, 1.0, 3.0, 10.0, 3199968.0, 6.4e7)
        for tau, n in itertools.product(taus, (4, 16, 32)):
            assert os_pfa(tau, n, 1) == pytest.approx(n / (tau + n), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "tau,n,k",
        [(0.5, 8, 4), (1.0, 8, 8), (3.9136403991784303, 32, 31), (2.0, 32, 16), (59.7, 4, 3)],
    )
    def test_against_quadrature_oracle(self, tau, n, k):
        oracle = os_exceedance_by_quadrature(tau, n, k)
        assert os_pfa(tau, n, k) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_product_form_survives_large_windows(self):
        value = os_pfa(50.0, 1024, 1023)
        assert 0.0 < value < 1.0 and math.isfinite(value)

    def test_monotone_in_tau_and_scr(self):
        taus = np.linspace(0.1, 8.0, 40)
        pds = [os_pd(t, 1.0, 32, 31) for t in taus]
        assert all(b < a for a, b in zip(pds, pds[1:]))
        scrs = np.linspace(0.0, 100.0, 40)
        pds = [os_pd(2.0, s, 32, 31) for s in scrs]
        assert all(b > a for a, b in zip(pds, pds[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            os_pd(1.0, 0.0, 8, 0)
        with pytest.raises(ValueError):
            os_pd(1.0, 0.0, 8, 9)

    @staticmethod
    def _kth_smallest(crp, k):
        """k-th smallest value of each row of an (m, n <= 3) matrix, by min/max."""
        cols = [crp[:, i] for i in range(crp.shape[1])]
        if len(cols) == 1:
            return cols[0]
        lo, hi = np.minimum(cols[0], cols[1]), np.maximum(cols[0], cols[1])
        if len(cols) == 2:
            return (lo, hi)[k - 1]
        c = cols[2]
        if k == 1:
            return np.minimum(lo, c)
        if k == 3:
            return np.maximum(hi, c)
        return np.maximum(lo, np.minimum(hi, c))

    def test_brute_force_small_windows(self):
        # 1e8-trial brute force per case, 5 binomial standard errors
        rng = np.random.default_rng(2026)
        runs, chunk = 100_000_000, 1 << 20
        for n in (1, 2, 3):
            for k in range(1, n + 1):
                for tau in (1.0, 2.0):
                    want = os_pfa(tau, n, k)
                    successes = 0
                    done = 0
                    while done < runs:
                        m = min(chunk, runs - done)
                        crp = rng.standard_exponential((m, n))
                        cut = rng.standard_exponential(m)
                        g = self._kth_smallest(crp, k)
                        if done == 0:  # the network selects exactly what a sort does
                            np.testing.assert_array_equal(g, np.sort(crp, axis=1)[:, k - 1])
                        successes += int(np.count_nonzero(cut > tau * g))
                        done += m
                    p_hat = successes / runs
                    se = math.sqrt(want * (1.0 - want) / runs)
                    assert abs(p_hat - want) < 5.0 * se, (n, k, tau, p_hat, want)


class TestOsThreshold:
    def test_unit_pfa_means_zero_threshold(self):
        assert os_threshold(1.0, 32, 31) == 0.0

    def test_round_trips(self):
        for p, n in itertools.product(PFA_GRID, ((32, 31), (32, 24), (16, 12))):
            n, k = n
            tau = os_threshold(p, n, k)
            assert abs(os_pfa(tau, n, k) - p) / p <= 1e-12

    def test_exchangeability_inverse(self):
        assert os_threshold(0.2, 4, 4) == pytest.approx(1.0, rel=1e-9)

    def test_frozen_value(self):
        # root of the k=31, N=32 exceedance at 1e-4: 3.9136403991784251626
        assert os_threshold(1e-4, 32, 31) == pytest.approx(3.913640399178425, rel=1e-12)

    def test_minimum_threshold_is_exact(self):
        # k = 1 inverts N/(N+tau) = p: tau = N(1/p - 1)
        assert os_threshold(1e-5, 32, 1) == pytest.approx(3199968.0, rel=1e-14)
        assert os_threshold(1e-6, 32, 1) == pytest.approx(31999968.0, rel=1e-14)

    @pytest.mark.parametrize("pfa", [1e-307, 1e-320])
    def test_minimum_threshold_overflow_is_refused(self, pfa):
        # N (1 - p) / p exceeds the largest double
        with pytest.raises(ValueError, match="overflows"):
            os_threshold(pfa, 32, 1)
        with pytest.raises(ValueError, match="overflows"):
            resolve_threshold(OrderStatistic(1), 32, pfa)

    def test_minimum_needs_no_pfa_evaluation(self, monkeypatch):
        # at k = 1 both bracket edges are N (1/p - 1): the solver returns at once
        monkeypatch.setattr(analytic, "_os_log_prob", None)
        assert os_threshold(1e-4, 32, 1) == 32 * (1e-4 ** -1.0 - 1.0)

    @pytest.mark.parametrize("n, k", [(2, 2), (16, 8), (32, 16), (32, 31), (1024, 2), (1024, 1023)])
    def test_near_one_against_decimal_root(self, n, k):
        # at Pfa 1 - 1e-7 the slope d log Pfa / d log tau is about -1e-7, so a
        # 1e-12 Pfa residual alone would leave tau loose by about 1e-5
        pfa = 1 - 1e-7
        tau = os_threshold(pfa, n, k)
        with decimal.localcontext(decimal.Context(prec=50)):
            log_p, root = decimal.Decimal(pfa).ln(), decimal.Decimal(tau)
            for _ in range(3):  # Newton on sum_i log(1 + root/i) = -log p, from tau
                f = sum((1 + root / i).ln() for i in range(n - k + 1, n + 1)) + log_p
                root -= f / sum(1 / (i + root) for i in range(n - k + 1, n + 1))
            error = abs(decimal.Decimal(tau) / root - 1)
        assert error <= 1e-12, float(error)

    def test_iteration_budget_failure_carries_bracket(self, monkeypatch):
        # one evaluation, at the lower edge: 17 and 32 times the CA multiplier of 16 cells
        monkeypatch.setattr(analytic, "_MAX_EVALUATIONS", 1)
        with pytest.raises(ThresholdSolverError) as info:
            os_threshold(1e-6, 32, 16)
        assert info.value.bracket == (17 * ca_threshold(1e-6, 16), 32 * ca_threshold(1e-6, 16))


class TestGeometricMean:
    def test_log_gamma_matches_scipy(self):
        # the arguments the quadrature meets: G(s) and G(1 - s/N) for
        # 0.25 <= Re s <= N - 0.25, |Im s| <= 60, N up to 1024
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.uniform(0.25, 64.0, 2000) + 1j * rng.uniform(-60.0, 60.0, 2000),
            rng.uniform(0.25 / 1024, 1.0, 2000) + 1j * rng.uniform(-0.06, 0.06, 2000),
            np.array([0.25, 1.0, 2.0, 0.5 + 60j, 1e-4 - 0.01j]),
        ])
        err = np.abs(np.exp(_log_gamma1p(z - 1.0) - special.loggamma(z)) - 1.0)
        assert err.max() <= 1e-12

    def test_log_gamma_matches_scipy_out_to_the_reach(self):
        # the contour runs out to Im s = 2048; there both agree to the
        # rounding of log G itself, up to multiples of 2 pi i
        rng = np.random.default_rng(12)
        z = np.concatenate([
            rng.uniform(0.25, 64.0, 2000) + 1j * rng.uniform(-2048.0, 2048.0, 2000),
            rng.uniform(0.25 / 1024, 1.0, 2000) + 1j * rng.uniform(-2.0, 2.0, 2000),
        ])
        diff = _log_gamma1p(z - 1.0) - special.loggamma(z)
        diff = diff.real + 1j * np.angle(np.exp(1j * diff.imag))
        assert np.all(np.abs(diff) <= 1e-15 * np.abs(special.loggamma(z)) + 1e-14)

    @pytest.mark.parametrize("pfa", [1e-30, 1e-100, 1e-300])
    def test_long_contour_against_scipy_loggamma(self, pfa):
        # N = 512 needs nodes past Im s = 60 from Pfa 1e-30 on
        tau = gm_threshold(pfa, 512)
        value, rounding = gm_pfa_by_scipy_loggamma(tau, 512)
        assert abs(value / pfa - 1.0) <= 1e-12 + rounding

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("tau", [1e-17, 1e-13])
    def test_pfa_near_one_against_power_series(self, tau, n):
        # 1 - Pfa = -sum_m (-tau)^m G(1 + m/N)^N / m!, with N log G(1 + x) from
        # its Taylor series -euler_gamma x + sum_k zeta(k) (-x)^k / k
        def n_log_gamma1p(x):
            return n * (-np.euler_gamma * x + sum(special.zeta(k) * (-x) ** k / k
                                                  for k in range(2, 40)))

        expect = -sum((-tau) ** m * math.exp(n_log_gamma1p(m / n)) / math.factorial(m)
                      for m in range(1, 6))
        assert -math.expm1(_gm_quadrature(tau, n)[0]) == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_single_cell_identity(self):
        # N = 1: g is one exponential, so Pfa = E[exp(-tau X)] = 1/(1+tau)
        for tau in np.logspace(-3.0, 12.0, 61):
            assert gm_pfa(float(tau), 1) == pytest.approx(1.0 / (1.0 + tau), rel=1e-12, abs=0.0)

    def test_bracket_edges_at_the_limits_of_double(self):
        # N = 1: both edges are the exact 1/p - 1, so no sum is needed, down to
        # where 1/p - 1 exceeds the largest double and the design is refused
        assert gm_threshold(1e-308, 1) == ca_threshold(1e-308, 1)
        with pytest.raises(ValueError, match="geometric-mean multiplier at Pfa 1e-320, N=1"):
            gm_threshold(1e-320, 1)
        # the upper edge 32/p overflows and is kept finite; the root is far below it
        assert gm_threshold(1e-320, 32) == pytest.approx(7418261123380.17, rel=1e-12)

    @pytest.mark.parametrize("tau,n", [(9.846050029, 16), (3.0, 16), (26.9228569026, 32)])
    def test_against_conditional_monte_carlo(self, tau, n):
        # the CUT integrated out: Pfa = E[exp(-tau g)] over n unit exponentials
        rng = np.random.default_rng([n, 2026])
        values = np.concatenate([
            np.exp(-tau * np.exp(np.log(rng.standard_exponential((1 << 16, n))).mean(axis=1)))
            for _ in range(16)
        ])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(gm_pfa(tau, n) - values.mean()) <= 4.0 * se

    def test_threshold_round_trips(self):
        for p, n in itertools.product((0.999, 1e-2, 1e-5, 1e-8, 1e-12), (1, 2, 32, 1024)):
            tau = gm_threshold(p, n)
            assert abs(gm_pfa(tau, n) - p) / p <= 1e-10, (p, n, tau)

    @pytest.mark.parametrize("n", [1, 32, 1024])
    @pytest.mark.parametrize("tau", [1e-3, 3.0, 27.0])  # 1e-3: the residue branch
    def test_slope_matches_finite_difference(self, tau, n):
        _, slope = _gm_quadrature(tau, n)
        h = 1e-5
        up, down = _gm_quadrature(tau * math.exp(h), n)[0], _gm_quadrature(tau * math.exp(-h), n)[0]
        diff = (up - down) / (2 * h)
        assert slope == pytest.approx(diff, rel=1e-8, abs=0.0)

    def test_threshold_within_mean_and_minimum_bounds(self):
        # min <= g <= mean puts the root between the minimum's and N times the
        # CA multiplier; the two meet at N = 1, where rounding of the closed
        # forms (up to 1e-13 relative near Pfa 1) decides the order
        for p, n in itertools.product((0.999, 1e-2, 1e-5, 1e-8, 1e-12), (1, 2, 32, 1024)):
            tau = gm_threshold(p, n)
            assert n * ca_threshold(p, n) * (1 - 1e-12) <= tau <= n * (1 - p) / p * (1 + 1e-12)
            if n > 1:
                assert n * ca_threshold(p, n) < tau < n * (1 - p) / p

    def test_iteration_budget_failure_carries_bracket(self, monkeypatch):
        monkeypatch.setattr(analytic, "_MAX_EVALUATIONS", 1)
        with pytest.raises(ThresholdSolverError) as info:
            gm_threshold(1e-5, 32)
        lo, hi = info.value.bracket
        assert 0.0 <= lo < hi

    def test_frozen_values(self):
        # the same quadrature evaluated with scipy.special.loggamma
        assert gm_threshold(1e-3, 32) == pytest.approx(14.3163956341, rel=1e-10)
        assert gm_threshold(1e-5, 32) == pytest.approx(26.9228569026, rel=1e-10)
        assert gm_threshold(1e-12, 32) == pytest.approx(100.001127679, rel=1e-10)

    def test_pd_is_pfa_at_scaled_threshold(self):
        for tau, s in itertools.product((0.5, 8.0, 27.0), (0.0, 1.0, 99.0)):
            assert gm_pd(tau, s, 32) == gm_pfa(tau / (1.0 + s), 32)
        pds = [gm_pd(9.0, s, 32) for s in np.linspace(0.0, 100.0, 40)]
        assert all(b > a for a, b in zip(pds, pds[1:]))

    def test_trivials(self):
        assert gm_pd(0.0, 3.0, 16) == 1.0
        assert gm_threshold(1.0, 16) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gm_threshold(0.0, 4)
        with pytest.raises(ValueError):
            gm_threshold(1e-3, 0)
        with pytest.raises(ValueError):
            gm_pd(-1.0, 0.0, 4)
        with pytest.raises(ValueError, match="beyond the quadrature"):
            gm_threshold(1e-100, 2)  # the sum cancels by more than six digits


CONTRACT_WINDOWS = (1, 2, 16, 32, 128, 1024)
CONTRACT_PFAS = (1 - 1e-7, 0.5, 1e-4, 1e-12, 1e-30, 1e-100, 1e-300)
# the GM designs whose quadrature sum cancels by more than six digits
GM_REFUSED = {(2, 1e-100), (2, 1e-300)}


def contract_designs():
    for n in CONTRACT_WINDOWS:
        ks = sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1)))
        for stat, k in [("ca", None), *(("os", k) for k in ks), ("gm", None)]:
            for pfa in CONTRACT_PFAS:
                yield pytest.param(stat, k, n, pfa, id=f"{stat}{k or ''}-N{n}-{pfa!r}")


def true_pfa_error(stat: str, k: int | None, n: int, tau: float, pfa: float) -> tuple[float, float]:
    """``|Pfa(tau)/pfa - 1|`` by an independent oracle, and the oracle's own error."""
    ctx = decimal.Context(prec=40)
    t = decimal.Decimal(tau)
    if stat == "os":  # Rohling's product of k factors i/(i + tau)
        exact = decimal.Decimal(1)
        for i in range(n - k + 1, n + 1):
            exact = ctx.multiply(exact, ctx.divide(i, ctx.add(i, t)))
    elif stat == "ca" or n == 1:  # the GM of one cell is that cell
        exact = ctx.power(ctx.add(1, t), -n)
    else:
        value, rounding = gm_pfa_by_scipy_loggamma(tau, n)
        return abs(value / pfa - 1.0), rounding
    return float(abs(ctx.divide(exact, decimal.Decimal(pfa)) - 1)), 0.0


class TestThresholdContract:
    """Every design achieves its Pfa to 1e-12 or is refused in one line.

    The grid spans N from 1 to 1024, the OS indices 1, 2, N/2, N-1 and N,
    and Pfa from 1 - 1e-7 to 1e-300.  ``cfarkit threshold`` exits 0 with a
    finite multiplier, or 1 or 2 with one line on stderr: never a
    traceback or ``inf``.
    """

    @pytest.mark.parametrize("stat, k, n, pfa", contract_designs())
    def test_design(self, stat, k, n, pfa, capsys):
        argv = ["threshold", "--stat", stat, "--window", str(n), "--pfa", repr(pfa)]
        code = main(argv + ([] if k is None else ["--k", str(k)]))
        out, err = capsys.readouterr()
        if code != 0:
            assert code in (1, 2) and out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert stat == "gm" and (n, pfa) in GM_REFUSED  # refusals may only shrink
            return
        tau = resolve_threshold(DetectorRequest(stat, k).to_stat(), n, pfa)
        assert math.isfinite(tau) and float(out) == pytest.approx(tau, rel=1e-8)
        error, rounding = true_pfa_error(stat, k, n, tau, pfa)
        assert error <= 1e-12 + rounding


class TestIdeal:
    def test_threshold_trivials(self):
        assert ideal_threshold(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-12)
        assert ideal_threshold(1.0, 3.0) == 0.0

    def test_threshold_frozen_value(self):
        # ln(1e4) = 9.2103403719761827361
        assert ideal_threshold(1e-4, 1.0) == pytest.approx(9.210340371976182, rel=1e-12)

    def test_pd_reduces_to_pfa_without_target(self):
        for p in PFA_GRID:
            assert ideal_pd(p, 0.0) == pytest.approx(p, rel=1e-14, abs=0.0)

    def test_pd_frozen_value(self):
        # 10**(-4/11) = 0.43287612810830583474
        assert ideal_pd(1e-4, 10.0) == pytest.approx(0.4328761281083058, rel=1e-12)

    def test_pd_saturates_for_strong_targets(self):
        assert abs(ideal_pd(1e-4, 1e6) - 1.0) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ideal_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            ideal_threshold(0.5, 0.0)
        with pytest.raises(ValueError):
            ideal_pd(2.0, 1.0)
