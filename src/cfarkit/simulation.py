"""Reproducible Monte Carlo engine for detection and false-alarm estimation.

Trials are organised into fixed-size blocks of at most ``BLOCK_TRIALS``
trials.  Block ``b`` of an estimate draws every sample from the substream
``stream.substream(b)``, and the per-block success counts are combined by
exact integer addition, so results are identical for any worker count and
any scheduling order.  Within a block the draw order is: CRP matrix, then
CUT vector; nothing else is drawn.

Interferer placement is not random within the engine: every statistic is
permutation invariant, so ``RandomUniform`` placement is realised on CRP
cells ``0..count-1``, which gives the same distribution.

Interfering targets and boosted clutter are both realised by scaling:
an exponential of rate ``lambda`` multiplied by ``c > 0`` is exponential
of rate ``lambda/c``, so an interferer of linear INR ``I`` scales its cell
by ``1 + I`` and a clutter-power step of ``x`` dB scales affected cells by
``10**(x/10)``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import SolverSettings, ca_threshold, gm_threshold, os_threshold
from .detector import (
    DetectorSpec,
    GeometricMean,
    Minimum,
    OrderStatistic,
    StatKind,
    Sum,
    _stat_rows,
)
from .stats import ClutterModel, RandomStream, TargetContext, db_to_linear, unit_exponential

__all__ = [
    "BLOCK_TRIALS",
    "FixedCells",
    "RandomUniform",
    "Placement",
    "InterferenceSpec",
    "PdEstimate",
    "RegulationSpec",
    "ExperimentSpec",
    "DetectorCurve",
    "run_trial",
    "estimate_pd",
    "pfa_regulation_curve",
    "scr_sweep",
    "resolve_threshold",
]

BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True)
class FixedCells:
    """Interferers occupy the given 0-based CRP cells."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("fixed interference cells must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("fixed interference cells must be nonnegative indices")


@dataclass(frozen=True)
class RandomUniform:
    """Interferers occupy cells drawn uniformly (without replacement) per trial.

    Every implemented statistic is permutation invariant, so the engine
    realises this placement exactly by putting the interferers on CRP
    cells ``0..count-1``.
    """


Placement = FixedCells | RandomUniform


@dataclass(frozen=True)
class InterferenceSpec:
    """Independent Swerling I interferers injected into the CRP.

    Each interfering cell is exponential with rate ``lambda/(1+I)`` where
    ``I`` is the linear interference-to-clutter ratio.
    """

    count: int
    inr_db: float
    placement: Placement = RandomUniform()

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"interferer count must be >= 0, got {self.count}")
        if not math.isfinite(self.inr_db):
            raise ValueError(f"INR must be finite, got {self.inr_db!r}")
        if isinstance(self.placement, FixedCells) and len(self.placement.indices) != self.count:
            raise ValueError(
                f"{self.count} interferers but {len(self.placement.indices)} fixed cells"
            )


@dataclass(frozen=True)
class PdEstimate:
    """Binomial proportion estimate from a batch of Monte Carlo trials."""

    successes: int
    runs: int

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.successes <= self.runs:
            raise ValueError(f"successes {self.successes} outside [0, {self.runs}]")

    @property
    def p_hat(self) -> float:
        return self.successes / self.runs

    @property
    def standard_error(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.runs)

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval, clipped to [0, 1]."""
        p, se = self.p_hat, self.standard_error
        return (max(0.0, p - z * se), min(1.0, p + z * se))


@dataclass(frozen=True)
class RegulationSpec:
    """Clutter-edge sweep configuration for false-alarm regulation."""

    design_pfa: float
    runs: int
    boost_db: float = 10.0
    affected_counts: tuple[int, ...] | None = None  # default: 0..N inclusive

    def __post_init__(self) -> None:
        if not (0.0 < self.design_pfa <= 1.0):
            raise ValueError(f"design Pfa must lie in (0, 1], got {self.design_pfa!r}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not (math.isfinite(self.boost_db) and self.boost_db >= 0):
            raise ValueError(f"boost must be finite and >= 0 dB, got {self.boost_db!r}")
        if self.affected_counts is not None and any(j < 0 for j in self.affected_counts):
            raise ValueError("affected cell counts must be >= 0")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one detection-probability sweep."""

    detectors: tuple[DetectorSpec, ...]
    clutter: ClutterModel
    scr_grid_db: tuple[float, ...]
    runs: int
    seed: int
    interference: InterferenceSpec | None = None

    def __post_init__(self) -> None:
        if len(self.scr_grid_db) == 0:
            raise ValueError("SCR grid must be nonempty")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True)
class DetectorCurve:
    """One detector's estimated Pd over an SCR grid."""

    detector: DetectorSpec
    scr_db: tuple[float, ...]
    estimates: tuple[PdEstimate, ...]

    def points(self) -> tuple[tuple[float, PdEstimate], ...]:
        return tuple(zip(self.scr_db, self.estimates))


# ---------------------------------------------------------------------------
# Vectorised trial blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TrialBatch:
    """Picklable unit of work: identically configured trials from one stream.

    ``cell_scales`` holds one scale per CRP column, or is empty when no
    cell is scaled.
    """

    stream: RandomStream
    trials: int
    window: int
    rate: float
    stat: StatKind
    tau: float
    cut_scale: float
    cell_scales: tuple[float, ...]


def _sample_block(batch: _TrialBatch) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (CRP matrix, CUT vector) for one block, scalings applied."""
    gen = batch.stream.generator()
    crp = unit_exponential(gen, (batch.trials, batch.window))
    crp /= batch.rate
    cut = unit_exponential(gen, batch.trials)
    cut /= batch.rate
    if batch.cut_scale != 1.0:
        cut *= batch.cut_scale
    if batch.cell_scales:
        crp *= np.asarray(batch.cell_scales)
    return crp, cut


def _batch_successes(batch: _TrialBatch) -> int:
    crp, cut = _sample_block(batch)
    g = _stat_rows(batch.stat, crp)
    return int(np.count_nonzero(cut > batch.tau * g))


def _point_successes(point: _TrialBatch, workers: int) -> int:
    """Successes of one point, summed over its blocks.

    Block ``b`` holds at most ``BLOCK_TRIALS`` of the point's trials and
    draws them from ``point.stream.substream(b)``; integer addition makes
    the sum independent of the order in which workers finish.
    """
    batches = [
        replace(
            point,
            stream=point.stream.substream(b),
            trials=min(BLOCK_TRIALS, point.trials - b * BLOCK_TRIALS),
        )
        for b in range((point.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]
    if workers <= 1 or len(batches) <= 1:
        return sum(map(_batch_successes, batches))
    chunk = max(1, len(batches) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_batch_successes, batches, chunksize=chunk))


def _prefix_scales(count: int, scale: float, window: int) -> tuple[float, ...]:
    """Per-column scales that scale CRP cells ``0..count-1`` by ``scale``."""
    return (scale,) * count + (1.0,) * (window - count) if count else ()


def _interference_scales(interference: InterferenceSpec | None, window: int) -> tuple[float, ...]:
    """Translate an interference spec into per-column CRP scales."""
    if interference is None or interference.count == 0:
        return ()
    if interference.count > window:
        raise ValueError(
            f"{interference.count} interferers exceed the {window}-cell CRP"
        )
    factor = 1.0 + db_to_linear(interference.inr_db)
    if isinstance(interference.placement, FixedCells):
        cells = interference.placement.indices
        if any(i >= window for i in cells):
            raise ValueError(f"fixed interference cells {cells} outside 0..{window - 1}")
        return tuple(factor if i in cells else 1.0 for i in range(window))
    return _prefix_scales(interference.count, factor, window)


def _detection_point(
    spec: DetectorSpec,
    clutter: ClutterModel,
    target: TargetContext | None,
    interference: InterferenceSpec | None,
    trials: int,
    stream: RandomStream,
) -> _TrialBatch:
    """``trials`` detection trials of ``spec``; H0 when ``target`` is None."""
    return _TrialBatch(
        stream=stream,
        trials=trials,
        window=spec.window_length,
        rate=clutter.rate,
        stat=spec.stat,
        tau=spec.threshold_multiplier,
        cut_scale=1.0 + target.scr_linear if target is not None else 1.0,
        cell_scales=_interference_scales(interference, spec.window_length),
    )


def _scr_estimates(
    spec: DetectorSpec,
    clutter: ClutterModel,
    interference: InterferenceSpec | None,
    scr_grid_db: tuple[float, ...],
    runs: int,
    base: RandomStream,
    key: tuple[int, ...],
    workers: int,
) -> tuple[PdEstimate, ...]:
    """One detector's Pd over an SCR grid; point ``g`` draws from ``base.substream(*key, g)``."""
    return tuple(
        estimate_pd(
            spec,
            clutter,
            TargetContext.from_db(scr_db),
            interference,
            runs,
            base.substream(*key, g_index),
            workers=workers,
        )
        for g_index, scr_db in enumerate(scr_grid_db)
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run_trial(
    spec: DetectorSpec,
    clutter: ClutterModel,
    target: TargetContext | None,
    interference: InterferenceSpec | None,
    stream: RandomStream,
) -> bool:
    """Execute a single detection trial; True means a target was declared.

    The CUT is drawn at the target rate under H1 (``target`` given) and at
    the clutter rate under H0 (``target`` is None).  Deterministic in
    ``stream``: the trial is drawn as the one trial of a block, so
    ``run_trial(..., s.substream(0))`` is the outcome of
    ``estimate_pd(..., runs=1, seed=s)``.
    """
    point = _detection_point(spec, clutter, target, interference, 1, stream)
    return _batch_successes(point) == 1


def estimate_pd(
    spec: DetectorSpec,
    clutter: ClutterModel,
    target: TargetContext | None,
    interference: InterferenceSpec | None,
    runs: int,
    seed: int | RandomStream,
    *,
    workers: int = 1,
) -> PdEstimate:
    """Estimate Pd (or Pfa, when ``target`` is None) over independent trials.

    Trials are partitioned into fixed blocks with one substream per block;
    the estimate is identical for any ``workers`` value and any execution
    order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    point = _detection_point(spec, clutter, target, interference, runs, stream)
    return PdEstimate(successes=_point_successes(point, workers), runs=runs)


def pfa_regulation_curve(
    spec: DetectorSpec,
    clutter: ClutterModel,
    reg: RegulationSpec,
    seed: int | RandomStream,
    *,
    workers: int = 1,
) -> tuple[tuple[int, PdEstimate], ...]:
    """Empirical Pfa as a clutter edge sweeps across the window.

    For each affected count ``j`` the first ``j`` CRP cells (leading bank
    first, far cell inward) draw clutter boosted by ``reg.boost_db``; once
    the edge passes the window midpoint (``j > N/2``) the CUT is boosted
    as well.  ``spec.threshold_multiplier`` is expected to be resolved
    from ``reg.design_pfa`` under homogeneous clutter.
    """
    n = spec.window_length
    counts = reg.affected_counts if reg.affected_counts is not None else tuple(range(n + 1))
    if any(j > n for j in counts):
        raise ValueError(f"affected cell counts must be <= {n}")
    boost = db_to_linear(reg.boost_db)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    curve = []
    for j in counts:
        point = _TrialBatch(
            stream=stream.substream(*spec.stream_key(), j),
            trials=reg.runs,
            window=n,
            rate=clutter.rate,
            stat=spec.stat,
            tau=spec.threshold_multiplier,
            cut_scale=boost if j > n // 2 else 1.0,
            cell_scales=_prefix_scales(j, boost, n),
        )
        curve.append((j, PdEstimate(successes=_point_successes(point, workers), runs=reg.runs)))
    return tuple(curve)


def scr_sweep(experiment: ExperimentSpec, *, workers: int = 1) -> tuple[DetectorCurve, ...]:
    """Estimate Pd curves for every detector over the experiment's SCR grid.

    Substreams are keyed by detector position, detector identity, and grid
    index, so rearranging or duplicating detectors never silently reuses
    samples: duplicated specs produce statistically equal (not bitwise
    equal) curves.
    """
    base = RandomStream(experiment.seed)
    return tuple(
        DetectorCurve(
            detector=det,
            scr_db=tuple(experiment.scr_grid_db),
            estimates=_scr_estimates(
                det,
                experiment.clutter,
                experiment.interference,
                experiment.scr_grid_db,
                experiment.runs,
                base,
                (d_index, *det.stream_key()),
                workers,
            ),
        )
        for d_index, det in enumerate(experiment.detectors)
    )


def resolve_threshold(
    stat: StatKind,
    window: int,
    design_pfa: float,
    *,
    settings: SolverSettings = SolverSettings(),
) -> float:
    """Threshold multiplier achieving ``design_pfa`` for any statistic kind.

    Every statistic has an exact Pfa: closed forms for the sum and the
    minimum (the k=1 order statistic), a log-gamma expression for order
    statistics and a Mellin-Barnes quadrature for the geometric mean.
    """
    if isinstance(stat, Sum):
        return ca_threshold(design_pfa, window)
    if isinstance(stat, OrderStatistic):
        return os_threshold(design_pfa, window, stat.k, settings)
    if isinstance(stat, Minimum):
        return os_threshold(design_pfa, window, 1, settings)
    if isinstance(stat, GeometricMean):
        return gm_threshold(design_pfa, window, settings)
    raise TypeError(f"unknown statistic kind: {stat!r}")
