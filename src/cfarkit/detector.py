"""Sliding-window detection geometry and the generic adaptive threshold test.

A detector examines one cell under test (CUT) at a time.  The ``N``
reference cells surrounding it, the clutter range profile (CRP), are
split into two equal banks of ``N/2`` cells, separated from the CUT by
guard cells on each side::

    ... C1 .. Cm | G .. G | CUT | G .. G | Cm+1 .. CN ...
       lagging bank        guards          leading bank

The CRP is compressed to a single clutter level ``g`` by a scale-invariant
statistic (sum, order statistic or geometric mean; the minimum is the order
statistic ``k = 1``), and a target is declared when the CUT strictly
exceeds ``tau * g``.  Scale invariance of the statistic is what makes the
false-alarm rate independent of the unknown clutter power (the CFAR
property).

Each statistic kind is one class holding all that depends on the kind:
``key``, its part of :meth:`DetectorSpec.stream_key`; ``threshold(pfa,
n)`` and ``pd(tau, scr, n)`` from :mod:`cfarkit.analytic`;
``check_window(n)``, which refuses a window it cannot use; and
``rows(crp)``, the statistic of every row of a (rows, N) CRP matrix, the
only code that computes one on cells.  ``rows`` checks nothing and may
overwrite ``crp``, so callers pass a matrix they own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import analytic

__all__ = [
    "Decision",
    "Sum",
    "OrderStatistic",
    "GeometricMean",
    "Minimum",
    "StatKind",
    "DetectorSpec",
    "resolve_threshold",
    "clutter_statistic",
    "decide",
    "slide",
]


class Decision(IntEnum):
    """Outcome of the threshold test for one range cell."""

    UNTESTED = -1  # cell too close to a profile edge for a full window
    H0 = 0         # clutter only
    H1 = 1         # target declared


@dataclass(frozen=True)
class Sum:
    """Sum of the CRP (cell-averaging detector, up to the constant 1/N)."""

    key = (1, 0)
    threshold = staticmethod(analytic.ca_threshold)
    pd = staticmethod(analytic.ca_pd)
    check_window = staticmethod(analytic._check_window)

    def rows(self, crp: np.ndarray) -> np.ndarray:
        # two half-bank partial sums, combined: the window hardware's two-stage compression
        half = crp.shape[1] // 2
        return crp[:, :half].sum(axis=1) + crp[:, half:].sum(axis=1)


@dataclass(frozen=True)
class OrderStatistic:
    """k-th smallest CRP value, 1-based (order-statistic detector)."""

    k: int

    def __post_init__(self) -> None:
        analytic._check_count("order-statistic index", self.k, 1)

    @property
    def key(self) -> tuple[int, int]:
        return (2, self.k)

    def threshold(self, pfa: float, n: int) -> float:
        return analytic.os_threshold(pfa, n, self.k)

    def pd(self, tau: float, scr: float, n: int) -> float:
        return analytic.os_pd(tau, scr, n, self.k)

    def check_window(self, n: int) -> None:
        analytic._check_os_index(self.k, n)

    def rows(self, crp: np.ndarray) -> np.ndarray:
        crp.partition(self.k - 1, axis=1)
        return crp[:, self.k - 1].copy()


@dataclass(frozen=True)
class GeometricMean:
    """Geometric mean of the CRP."""

    key = (3, 0)
    threshold = staticmethod(analytic.gm_threshold)
    pd = staticmethod(analytic.gm_pd)
    check_window = staticmethod(analytic._check_window)

    def rows(self, crp: np.ndarray) -> np.ndarray:
        # a zero cell pushes the mean log to -inf, which maps to the limit value g = 0
        with np.errstate(divide="ignore"):
            return np.exp(np.log(crp, out=crp).mean(axis=1))


def Minimum() -> OrderStatistic:
    """Smallest CRP value: the order statistic ``k = 1``."""
    return OrderStatistic(1)


StatKind = Sum | OrderStatistic | GeometricMean


def resolve_threshold(stat: StatKind, window: int, design_pfa: float) -> float:
    """Threshold multiplier achieving ``design_pfa`` for any statistic kind.

    Every statistic has an exact Pfa: a closed form for the sum, Rohling's
    product of k factors for order statistics (the minimum, ``k = 1``, is
    no special case) and a Mellin-Barnes quadrature for the geometric mean.
    """
    return stat.threshold(design_pfa, window)


@dataclass(frozen=True)
class DetectorSpec:
    """Complete description of one sliding-window detector.

    Attributes
    ----------
    stat : StatKind
        Clutter-statistic used to compress the CRP.
    window_length : int
        Number of CRP cells ``N``; even, >= 2, split evenly per side.
    threshold_multiplier : float
        Scale factor ``tau`` applied to the clutter statistic.
    guard_cells : int
        Total guard cells (split evenly per side); even, >= 0.
    """

    stat: StatKind
    window_length: int
    threshold_multiplier: float
    guard_cells: int = 8

    def __post_init__(self) -> None:
        n, guard = self.window_length, self.guard_cells
        analytic._check_count("window length", n, 2)
        analytic._check_count("guard cell count", guard, 0)
        if n % 2 or guard % 2:
            raise ValueError(f"window length {n} and guard cell count {guard} must be even")
        tau = self.threshold_multiplier
        if not (math.isfinite(tau) and tau >= 0):
            raise ValueError(f"threshold multiplier must be finite and >= 0, got {tau!r}")
        self.stat.check_window(n)

    @property
    def half_window(self) -> int:
        return self.window_length // 2

    @property
    def guard_per_side(self) -> int:
        return self.guard_cells // 2

    @property
    def reach(self) -> int:
        """Cells consumed on each side of the CUT (half bank + guards)."""
        return self.half_window + self.guard_per_side

    def stream_key(self) -> tuple[int, ...]:
        """The design's integers for substream derivation: kind, ``k``, N, guards.

        The threshold is left out, so specs that differ only in it share
        their draws, and a threshold's last bit never moves a stream.
        """
        return (*self.stat.key, self.window_length, self.guard_cells)


_CHUNK_CELLS = 1 << 15  # cells per row chunk (256 kB, 1,024 rows at N = 32); changes no result


def _row_chunks(rows: int, n: int):
    """``(first row, chunk)`` for ``rows`` rows of ``n`` cells, each chunk a view of one buffer."""
    buf = np.empty((min(max(1, _CHUNK_CELLS // n), rows), n))
    for start in range(0, rows, len(buf)):
        yield start, buf[: rows - start]


def _check_values(values: np.ndarray, what: str) -> None:
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError(f"{what} values must be finite and nonnegative")


def clutter_statistic(stat: StatKind, crp: np.ndarray) -> float:
    """Compress a CRP to one clutter-level measurement ``g``.

    A CRP containing a zero sends the geometric mean to its limit value 0.
    """
    values = np.asarray(crp, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("CRP must be a nonempty 1-D array")
    _check_values(values, "CRP")
    stat.check_window(values.size)
    # np.asarray may alias the caller's array, and the kernel overwrites its input
    return float(stat.rows(values[None, :].copy())[0])


def decide(z0: float, g: float, tau: float) -> Decision:
    """Threshold test: declare a target iff ``z0 > tau * g``.

    Ties resolve to H0; under continuous clutter models they occur with
    probability zero, so the convention only pins down degenerate inputs.
    """
    for name, value in (("z0", z0), ("g", g), ("tau", tau)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return Decision.H1 if z0 > tau * g else Decision.H0


def slide(profile: np.ndarray, spec: DetectorSpec) -> np.ndarray:
    """Run the detector over a whole range profile.

    Returns an int8 array of :class:`Decision` values, one per cell.
    Cells too close to either edge for a complete window are marked
    ``Decision.UNTESTED``; partial windows would change the false-alarm
    rate, so they are never evaluated.  Windows are copied and reduced one
    chunk of rows at a time, so memory stays bounded in the profile length.
    """
    profile = np.asarray(profile, dtype=float)
    min_len = spec.window_length + spec.guard_cells + 1
    if profile.ndim != 1 or profile.size < min_len:
        raise ValueError(
            f"profile must be 1-D with at least {min_len} cells, got shape {profile.shape}"
        )
    _check_values(profile, "profile")
    reach = spec.reach
    # row r is the window centred on cell r + reach: lagging bank, guards,
    # CUT, guards, leading bank
    windows = sliding_window_view(profile, 2 * reach + 1)
    out = np.full(profile.size, Decision.UNTESTED, dtype=np.int8)
    for start, crp in _row_chunks(len(windows), spec.window_length):
        rows = windows[start : start + len(crp)]
        banks = [rows[:, : spec.half_window], rows[:, reach + spec.guard_per_side + 1 :]]
        g = spec.stat.rows(np.concatenate(banks, axis=1, out=crp))
        if not np.all(np.isfinite(g)):
            raise ValueError("clutter statistic overflows double precision")
        g *= spec.threshold_multiplier
        out[reach + start : reach + start + len(rows)] = rows[:, reach] > g
    return out
