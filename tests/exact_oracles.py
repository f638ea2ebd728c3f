"""Exact probabilities for the tests, by routes that share nothing with ``cfarkit``.

Every exact-probability oracle of the test suite lives here, and this
module imports nothing from ``cfarkit``.  A cell population is a list of
``(count, scale)`` groups of independent exponential cells with those
means, and ``u`` is the threshold multiplier over the CUT's scale, so each
``*_exceed`` is ``P(CUT > tau * statistic) = E[exp(-u * statistic)]``:

- :func:`ca_exceed`: the CA product ``prod (1 + u c)**-n``.
- :func:`os_exceed`: the k-th smallest cell, as a Poisson-binomial sum of
  exponentials in ``decimal``, with its own rounding bound.
- :func:`os_exceed_by_race`: the same in exact rationals, by the race of
  the cells against an exponential clock of rate ``u``.
- :func:`gm_exceed`: the geometric mean, by :func:`gm_pfa_by_scipy_loggamma`,
  a Mellin-Barnes sum with ``scipy.special.loggamma``.

For one population of unit cells there are the closed forms to 40 digits
or more: the CA and Rohling products, the CA threshold, and the OS
threshold by Newton's method; :func:`relative_error` compares a float with
them in ``decimal``.
"""

import decimal
import functools
import math
import sys
from collections import defaultdict
from fractions import Fraction

import numpy as np
from scipy import special

# os_exceed's working digits, doubled until its rounding bound is below
# OS_RELATIVE_BOUND of its value
OS_DIGITS = 80
OS_RELATIVE_BOUND = 1e-40


def ca_exceed(u: float, populations) -> float:
    """``exp(-sum n * log1p(u * c))``: the CUT against the sum of the cells."""
    return math.exp(-sum(n * math.log1p(u * c) for n, c in populations))


@functools.cache
def _binomial_terms(n: int) -> tuple[tuple[int, ...], ...]:
    """For ``a = 0..n``, ``C(n, a) (1 - q)**a q**(n - a)`` as its coefficients of ``q**0..q**n``."""
    terms = []
    for a in range(n + 1):
        coefficients = [0] * (n + 1)
        for j in range(a + 1):  # (1 - q)**a = sum_j C(a, j) (-q)**j
            coefficients[n - a + j] = (-1) ** j * math.comb(n, a) * math.comb(a, j)
        terms.append(tuple(coefficients))
    return tuple(terms)


def _exceed_coefficients(k: int, counts) -> dict[tuple[int, ...], int]:
    """``P(X_(k) > t)`` as ``{(r_1, .., r_G): c}``, a sum of ``c * prod_g q_g**r_g``.

    With ``q_g = exp(-t/c_g)`` a cell of group ``g`` lies below ``t`` with
    chance ``1 - q_g``, and ``X_(k) > t`` when fewer than ``k`` cells do:
    the Poisson-binomial sum of ``prod_g C(n_g, a_g) (1 - q_g)**a_g
    q_g**(n_g - a_g)`` over ``sum a_g < k``.  The last group enters through
    its sum over ``a <= k - 1 - m``, with ``m`` cells of the others below.
    """
    states = {0: {(): 1}}  # cells below among the groups so far -> their monomials
    for n in counts[:-1]:
        grown = defaultdict(lambda: defaultdict(int))
        for m, monomials in states.items():
            for a, coefficients in enumerate(_binomial_terms(n)[:k - m]):
                _add_product(grown[m + a], monomials, coefficients)
        states = grown
    terms = _binomial_terms(counts[-1])
    result = defaultdict(int)
    for m, monomials in states.items():
        _add_product(result, monomials, [sum(column) for column in zip(*terms[:k - m])])
    return result


def _add_product(target, monomials, coefficients) -> None:
    """Add to ``target`` the ``monomials`` times one more group's ``sum_r c_r * q**r``."""
    for r, c in enumerate(coefficients):
        if c:
            for rs, d in monomials.items():
                target[rs + (r,)] += c * d


def os_exceed(u: float, k: int, populations) -> tuple[float, float]:
    """``E[exp(-u * X_(k))]`` for the k-th smallest cell, and its relative rounding bound.

    ``P(X_(k) > t) = sum c * exp(-lam * t)``, with integer ``c`` and
    ``lam = sum_g r_g / c_g`` (:func:`_exceed_coefficients`), integrates
    against ``u exp(-u t)`` to ``1 - sum c * u/(u + lam)``; the ``c`` sum to
    ``P(X_(k) > 0) = 1``, so that is ``sum c * lam/(u + lam)``, with no
    leading one to cancel.  The sum alternates, as Gandhi & Kassam's form
    does, and cancels in floats; it is taken in ``decimal`` at
    ``OS_DIGITS`` digits, doubled until its bound is below
    ``OS_RELATIVE_BOUND`` of the value.

    The bound counts one unit in the last digit for each rounding of a
    term: up to ``2G`` in ``lam`` for ``G`` groups, doubled in
    ``lam/(u + lam)``, two for that sum and quotient and one for the
    coefficient; and one for each addition of the terms; all times the sum
    of their sizes.  The float it returns adds its own half ulp.
    """
    counts = [n for n, _ in populations]
    if not 1 <= k <= sum(counts):
        raise ValueError(f"order index {k} outside 1..{sum(counts)}")
    coefficients = [(c, rs) for rs, c in _exceed_coefficients(k, counts).items() if c and any(rs)]
    scales, big_u = [decimal.Decimal(c) for _, c in populations], decimal.Decimal(u)  # exact
    for digits in (OS_DIGITS << i for i in range(6)):  # up to 2,560 digits
        with decimal.localcontext(decimal.Context(prec=digits)):
            parts = []
            for c, rs in coefficients:
                lam = sum(r / s for r, s in zip(rs, scales) if r)
                parts.append(c * (lam / (big_u + lam)))
            value = sum(parts)
            ulps = 4 * len(populations) + 3 + len(parts)
            bound = ulps * sum(map(abs, parts)) * decimal.Decimal(10) ** (1 - digits)
            if value > 0 and bound <= value * decimal.Decimal(OS_RELATIVE_BOUND):
                return float(value), float(bound / value)
    raise ArithmeticError(f"the order-statistic sum does not settle at {digits} digits")


def os_exceed_by_race(u, k: int, populations) -> Fraction:
    """``E[exp(-u * X_(k))]`` in exact rationals, for ``u`` and scales that ``Fraction`` takes.

    ``exp(-u * X_(k))`` is the chance that an exponential clock of rate
    ``u`` outlasts the k-th cell.  The cells and the clock race: with
    ``a_g`` cells of group ``g`` fired, the next to fire is one of that
    group with chance ``(n_g - a_g)/c_g`` over the total rate.  No term is
    negative, and none shares :func:`os_exceed`'s expansion.
    """
    u = Fraction(u)
    counts = [n for n, _ in populations]
    rates = [1 / Fraction(c) for _, c in populations]

    @functools.cache
    def first(fired: tuple[int, ...]) -> Fraction:  # k cells fire before the clock
        if sum(fired) == k:
            return Fraction(1)
        live = [(n - a) * rate for n, a, rate in zip(counts, fired, rates)]
        total = u + sum(live)
        return sum((rate / total * first(fired[:g] + (fired[g] + 1,) + fired[g + 1:])
                    for g, rate in enumerate(live) if rate), Fraction(0))

    return first((0,) * len(counts))


def gm_pfa_by_scipy_loggamma(tau: float, n: int) -> tuple[float, float]:
    """The GM Pfa of ``n`` unit cells: the Mellin-Barnes sum with ``scipy.special.loggamma``.

    Its line ``Re s`` sits a tenth of the way from the saddle towards the
    nearer pole, and its step is finer than cfarkit's, so it shares
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


def gm_exceed(u: float, populations) -> tuple[float, float]:
    """The CUT against the geometric mean, and the oracle's relative rounding error.

    Scaling the cells scales their geometric mean by ``(prod c)**(1/N)``, so
    this is the unit-cell GM Pfa at ``u`` times that.
    """
    n = sum(count for count, _ in populations)
    log_mean = sum(count * math.log(c) for count, c in populations) / n
    return gm_pfa_by_scipy_loggamma(u * math.exp(log_mean), n)


def ca_pfa_exact(tau: float, n: int) -> decimal.Decimal:
    """``(1 + tau)**-n`` to 40 digits."""
    ctx = decimal.Context(prec=40)
    return ctx.power(ctx.add(1, decimal.Decimal(tau)), -n)


def os_pfa_exact(tau: float, n: int, k: int) -> decimal.Decimal:
    """Rohling's product of the ``k`` factors ``i/(i + tau)``, ``i = N-k+1..N``, to 40 digits."""
    ctx, t = decimal.Context(prec=40), decimal.Decimal(tau)
    exact = decimal.Decimal(1)
    for i in range(n - k + 1, n + 1):
        exact = ctx.multiply(exact, ctx.divide(i, ctx.add(i, t)))
    return exact


def ca_threshold_exact(pfa: float, n: int) -> decimal.Decimal:
    """``pfa**(-1/n) - 1`` to 40 digits from the exact binary value of ``pfa``.

    Near Pfa one the subtraction cancels, and near zero ``log(pfa)`` carries
    a large absolute error: neither harms 40 digits.
    """
    ctx = decimal.Context(prec=40)
    return ctx.subtract(ctx.power(decimal.Decimal(pfa), ctx.divide(-1, n)), 1)


def os_threshold_exact(pfa: float, n: int, k: int, start: float) -> decimal.Decimal:
    """The root of Rohling's product at ``pfa``, by three 50-digit Newton steps from ``start``.

    Newton on ``sum_i log(1 + root/i) = -log pfa``: from a start good to
    1e-5 three steps reach far below 1e-12.
    """
    with decimal.localcontext(decimal.Context(prec=50)):
        log_p, root = decimal.Decimal(pfa).ln(), decimal.Decimal(start)
        for _ in range(3):
            f = sum((1 + root / i).ln() for i in range(n - k + 1, n + 1)) + log_p
            root -= f / sum(1 / (i + root) for i in range(n - k + 1, n + 1))
    return root


def relative_error(value, reference) -> float:
    """``|value/reference - 1|`` to 50 digits, for floats or ``Decimal`` values."""
    with decimal.localcontext(decimal.Context(prec=50)):
        return float(abs(decimal.Decimal(value) / decimal.Decimal(reference) - 1))
