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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Decision",
    "Sum",
    "OrderStatistic",
    "GeometricMean",
    "Minimum",
    "StatKind",
    "DetectorSpec",
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


@dataclass(frozen=True)
class OrderStatistic:
    """k-th smallest CRP value, 1-based (order-statistic detector)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"order-statistic index must be >= 1, got {self.k}")


@dataclass(frozen=True)
class GeometricMean:
    """Geometric mean of the CRP."""


def Minimum() -> OrderStatistic:
    """Smallest CRP value: the order statistic ``k = 1``."""
    return OrderStatistic(1)


StatKind = Sum | OrderStatistic | GeometricMean

_STAT_CODES: dict[type, int] = {Sum: 1, OrderStatistic: 2, GeometricMean: 3}


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
        n = self.window_length
        if n < 2 or n % 2 != 0:
            raise ValueError(f"window length must be an even integer >= 2, got {n}")
        if self.guard_cells < 0 or self.guard_cells % 2 != 0:
            raise ValueError(f"guard cell count must be even and >= 0, got {self.guard_cells}")
        tau = self.threshold_multiplier
        if not (math.isfinite(tau) and tau >= 0):
            raise ValueError(f"threshold multiplier must be finite and >= 0, got {tau!r}")
        if isinstance(self.stat, OrderStatistic) and self.stat.k > n:
            raise ValueError(
                f"order-statistic index {self.stat.k} exceeds window length {n}"
            )

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
        """Stable integer fingerprint for substream derivation."""
        k = self.stat.k if isinstance(self.stat, OrderStatistic) else 0
        (tau_bits,) = struct.unpack("<Q", struct.pack("<d", self.threshold_multiplier))
        return (
            _STAT_CODES[type(self.stat)],
            k,
            self.window_length,
            self.guard_cells,
            tau_bits,
        )


_CHUNK_CELLS = 1 << 15  # cells per row chunk (256 kB, 1,024 rows at N = 32); changes no result


def _row_chunks(rows: int, n: int):
    """``(first row, chunk)`` for ``rows`` rows of ``n`` cells, each chunk a view of one buffer."""
    buf = np.empty((min(max(1, _CHUNK_CELLS // n), rows), n))
    for start in range(0, rows, len(buf)):
        yield start, buf[: rows - start]


def _stat_rows(stat: StatKind, crp: np.ndarray) -> np.ndarray:
    """Clutter statistic of every row of a (rows, N) CRP matrix.

    The only code that computes a statistic on cells: detection blocks,
    the clutter edge's screen and every affected count, and
    :func:`slide`.  Inputs are not checked.
    ``crp`` may be overwritten (the order statistic partitions it and the
    geometric mean takes its log in place), so callers pass a matrix they
    own; the returned vector is a new array.  The sum is accumulated as
    two half-bank partial sums and combined, mirroring the two-stage
    compression of the window hardware.
    """
    n = crp.shape[1]
    if isinstance(stat, Sum):
        half = n // 2
        return crp[:, :half].sum(axis=1) + crp[:, half:].sum(axis=1)
    if isinstance(stat, OrderStatistic):
        crp.partition(stat.k - 1, axis=1)
        return crp[:, stat.k - 1].copy()
    if isinstance(stat, GeometricMean):
        # a zero cell pushes the mean log to -inf, which maps to the limit
        # value g = 0
        with np.errstate(divide="ignore"):
            return np.exp(np.log(crp, out=crp).mean(axis=1))
    raise TypeError(f"unknown statistic kind: {stat!r}")


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
    if isinstance(stat, OrderStatistic) and stat.k > values.size:
        raise ValueError(
            f"order-statistic index {stat.k} exceeds CRP length {values.size}"
        )
    # np.asarray may alias the caller's array, and the kernel overwrites its input
    return float(_stat_rows(stat, values[None, :].copy())[0])


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
        g = _stat_rows(spec.stat, np.concatenate(banks, axis=1, out=crp))
        if not np.all(np.isfinite(g)):
            raise ValueError("clutter statistic overflows double precision")
        g *= spec.threshold_multiplier
        out[reach + start : reach + start + len(rows)] = rows[:, reach] > g
    return out
