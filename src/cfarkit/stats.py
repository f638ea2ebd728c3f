"""Clutter and target statistics: the exponential intensity model, dB
conversions, and reproducible random sampling.

Clutter intensity follows an exponential law with rate ``lambda``; a
Swerling I (Gaussian-in-amplitude) target embedded in that clutter turns
the cell-under-test intensity into an exponential with rate
``lambda / (1 + S)``, where ``S`` is the signal-to-clutter ratio on a
linear scale.  All power ratios use the 10*log10 dB convention.

Randomness is organised around :class:`RandomStream`, a value type naming
one stream of numpy's SFC64 generator by a seed and a key path, seeded
through ``SeedSequence(seed, spawn_key=key)``.  Identical ``(seed, key)``
pairs reproduce identical samples on every platform; distinct keys are
statistically independent, so simulation code can hand streams to
parallel workers without coordinating.  The simulation engine gives each
curve (a detector's SCR grid, or a clutter-edge sweep) one key and each
block of trials that key followed by its index: the block draws its CRP
from that stream and its CUTs from the stream's child ``0``, every value
through the one transform :func:`_cells`, and every point of the curve
reuses that block's samples.

A curve's key comes from its detector's design, never its
threshold (:meth:`cfarkit.detector.DetectorSpec.stream_key`), so rows
agree across CPUs unless a comparison lies within one ulp of a cell: the
cells go through numpy's float64 ``log1p`` (and the geometric mean
through ``log`` and ``exp``), whose kernels numpy picks for the CPU at
run time (AVX-512 or the baseline), and the two can differ in the last
bit.  A GM threshold may differ in its last bits too, which moves no
stream.  On one machine rows are identical for any ``workers`` value.
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
    """One SFC64 stream, named by a seed and a key path: ``SeedSequence(seed, spawn_key=key)``.

    :meth:`substream` appends to the key.  The seed is an integer in ``[0, 2**64)``, each key
    word one in ``[0, 2**32)``: ``SeedSequence`` splits a larger word, so ``(2**32,)`` would
    name ``(0, 1)``.  A bool or a float is refused.  ``RandomStream(seed)`` has the key ``(0,)``.
    """

    seed: int
    key: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name, value, bits in (("seed", self.seed, 64), *(("key", k, 32) for k in self.key)):
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer and 0 <= value < 1 << bits):
                raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")

    def substream(self, *key: int) -> "RandomStream":
        """The child stream whose key is this one's followed by ``key``."""
        return RandomStream(self.seed, self.key + key)

    def generator(self) -> np.random.Generator:
        """Fresh SFC64 generator, seeded from this stream's ``SeedSequence``."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
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

