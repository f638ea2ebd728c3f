"""Clutter and target statistics: the exponential intensity model, dB
conversions, and reproducible random sampling.

Clutter intensity follows an exponential law with rate ``lambda``; a
Swerling I (Gaussian-in-amplitude) target embedded in that clutter turns
the cell-under-test intensity into an exponential with rate
``lambda / (1 + S)``, where ``S`` is the signal-to-clutter ratio on a
linear scale.  All power ratios use the 10*log10 dB convention.

Randomness is organised around :class:`RandomStream`, a value type naming
one substream of numpy's SFC64 generator, seeded through
``SeedSequence(seed, spawn_key=(stream_id,))``.  Identical
``(seed, stream_id)`` pairs reproduce identical samples on every platform;
distinct stream ids are statistically independent, so simulation code can
hand substreams to parallel workers without coordinating.  The simulation
engine gives each curve (a detector's SCR grid, or a clutter-edge sweep)
one stream and each block of trials one substream of it: the block draws
its CRP from that substream and its CUTs from the substream's child ``0``,
every value through the one transform :func:`_cells`, and every point of
the curve reuses that block's samples.

A curve's stream id hashes its detector's threshold bits
(:meth:`cfarkit.detector.DetectorSpec.stream_key`).  An order-statistic
threshold is solved through numpy's float64 ``log1p``, whose kernel numpy
picks for the CPU at run time (AVX-512 or the baseline), and the two can
differ in the last bit.  So OS Monte Carlo rows, and printed OS
thresholds, can differ between CPUs; on one machine they are identical
for any ``workers`` value.  The cells and the geometric mean go through
such kernels as well, so a GM row can differ between CPUs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClutterModel",
    "TargetContext",
    "RandomStream",
    "unit_exponential",
    "sample_exponential",
    "db_to_linear",
    "linear_to_db",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One SplitMix64 avalanche round (Steele, Lea & Flood mixing constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_key(*parts: int) -> int:
    """Hash an integer tuple into a 64-bit substream id (order sensitive)."""
    h = 0xCBF29CE484222325
    for p in parts:
        h = _splitmix64(h ^ (p & _MASK64))
    return h


@dataclass(frozen=True)
class ClutterModel:
    """Exponentially distributed clutter intensity.

    Attributes
    ----------
    rate : float
        Exponential rate parameter (inverse intensity), finite and at least
        ``MIN_RATE``.  Mean intensity is ``1/rate``; clutter power, measured
        as the mean square of the intensity, is ``2/rate**2``.
    """

    # The engine divides unit draws (< 2**6) by the rate; from 2**-960 up every
    # such cell, and any sum of fewer than 2**58 of them, stays finite.
    MIN_RATE = 2.0**-960

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate >= self.MIN_RATE):
            raise ValueError(
                f"clutter rate must be finite and >= 2**-960 (about 1.03e-289), got {self.rate!r}"
            )


@dataclass(frozen=True)
class TargetContext:
    """A Swerling I target described by its linear signal-to-clutter ratio."""

    scr_linear: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scr_linear) and self.scr_linear >= 0):
            raise ValueError(f"SCR must be finite and >= 0, got {self.scr_linear!r}")

    @classmethod
    def from_db(cls, scr_db: float) -> "TargetContext":
        return cls(db_to_linear(scr_db))


@dataclass(frozen=True)
class RandomStream:
    """Named substream of the SFC64 generator.

    ``(seed, stream_id)`` fully determines the sample sequence.  Use
    :meth:`substream` to derive statistically independent child streams
    from integer keys; derivation is pure 64-bit arithmetic, so it does
    not depend on platform word size or hash randomisation.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < (1 << 64)):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")

    def substream(self, *key: int) -> "RandomStream":
        """Child stream keyed by one or more integers (order matters)."""
        return RandomStream(self.seed, _mix_key(self.stream_id, *key))

    def generator(self) -> np.random.Generator:
        """Fresh SFC64 generator, seeded from this stream's ``SeedSequence``."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(ss))


def unit_exponential(gen: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """Unit-rate exponentials by the inverse-CDF transform ``-log1p(-U)``.

    One uniform variate is consumed per sample, in order, so the mapping
    from stream position to sample is branch-free and reproducible.
    """
    return _cells(gen.random(shape), 1.0)


def _cells(u: np.ndarray, rate: float) -> np.ndarray:
    """Exponentials ``-log1p(-u) / rate`` of the C-contiguous uniforms ``u``, in place.

    The one transform from uniforms to intensities, the engine's included.
    It is elementwise, so rows transformed on their own equal the same rows
    of a transformed chunk bit for bit.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u /= rate
    return u


def sample_exponential(model: ClutterModel, n: int, stream: RandomStream) -> np.ndarray:
    """Draw ``n`` iid exponential intensities with parameter ``model.rate``."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n!r}")
    return _cells(stream.generator().random(n), model.rate)


def db_to_linear(x: float) -> float:
    """Power ratio for ``x`` decibels: ``10**(x/10)``; ValueError above about 3,083 dB."""
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"{x!r} dB overflows a floating-point power ratio") from None


def linear_to_db(x: float) -> float:
    """Decibel value of a positive linear power ratio: ``10*log10(x)``."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"linear ratio must be finite and > 0, got {x!r}")
    return 10.0 * math.log10(x)

