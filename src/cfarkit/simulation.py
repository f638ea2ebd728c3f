"""Reproducible Monte Carlo engine for detection and false-alarm estimation.

The unit of work is a curve: a batch of points that share a detector,
an interference level and a trial count, such as one SCR grid or every
affected count of a clutter-edge sweep.  A batch's trials are organised
into fixed-size blocks of at most ``BLOCK_TRIALS`` trials.  Block ``b``
draws every sample once from the substream ``stream.substream(b)``, and
every point of the batch is counted on those samples (common random
numbers), so the rows of one curve are positively correlated, each row
is still binomial, and Pd never decreases along an SCR grid.  Within a
block the draw order is: CRP matrix, then CUT vector, each divided by
the clutter rate; nothing else is drawn.  A batch of one point is a
single estimate.  A batch with one cell scaling (an SCR grid, an
estimate) computes the clutter statistic once per block; a clutter-edge
batch screens each block once per CUT scale and evaluates every affected
count, from running sums and counts along the cells, on the trials the
screen keeps.  Per-block success counts are
combined by exact integer addition, so results are identical for any
worker count and any scheduling order.

A run plans first: the public operations (and the CLI) build every batch
of the run, split each batch into its blocks, and map all blocks through
one process pool of at most one process per block.  With one worker, or
a single block, the blocks run in the calling process.

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
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .analytic import SolverSettings, ca_threshold, gm_threshold, os_threshold
from .detector import (
    DetectorSpec,
    GeometricMean,
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
    "estimate_pd",
    "pfa_regulation_curve",
    "scr_sweep",
    "resolve_threshold",
]


def __getattr__(name: str):
    """``ProcessPoolExecutor`` on first use: a run without a pool skips ``multiprocessing``."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


BLOCK_TRIALS = 1 << 16
_CHUNK_ROWS = 1 << 10  # rows per step of the edge pass: 256 kB of cells at N = 32
_SCREEN_SLACK = 2.0**-30  # relative margin of the sum and GM edge screens


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
class _Edge:
    """A clutter edge: at point ``p`` CRP cells ``0..counts[p]-1`` are scaled by ``boost``."""

    boost: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class _TrialBatch:
    """Picklable unit of work: trials from one stream, evaluated at several points.

    Point ``p`` multiplies every trial's CUT by ``cut_scales[p]``.  The CRP
    is scaled either alike at every point, column ``i`` by ``cells[i]`` (no
    cell when ``cells`` is empty), or by an edge that scales a different
    number of leading cells at each point.  All points share the same draws.
    """

    stream: RandomStream
    trials: int
    spec: DetectorSpec
    rate: float
    cut_scales: tuple[float, ...]
    cells: tuple[float, ...] | _Edge = ()


def _batch_successes(batch: _TrialBatch) -> list[int]:
    """Successes of every point of ``batch`` on one draw of its trials.

    With one cell scaling the clutter statistic is computed once, in place
    on the draw; an edge batch goes through :func:`_edge_successes`.
    """
    gen = batch.stream.generator()
    crp = unit_exponential(gen, (batch.trials, batch.spec.window_length))
    crp /= batch.rate
    cut = unit_exponential(gen, batch.trials)
    cut /= batch.rate
    if isinstance(batch.cells, _Edge):
        return _edge_successes(batch, crp, cut)
    if batch.cells:
        crp *= batch.cells
    limit = _stat_rows(batch.spec.stat, crp)
    limit *= batch.spec.threshold_multiplier
    return [int(np.count_nonzero(cut * c > limit)) for c in batch.cut_scales]


def _edge_successes(batch: _TrialBatch, crp: np.ndarray, cut: np.ndarray) -> list[int]:
    """Successes at every point of a clutter edge, in one pass over the draw.

    Point ``p`` boosts the first ``j = counts[p]`` cells by ``B``.  Points
    that share a CUT scale form a group.  ``B >= 1`` and every statistic is
    nondecreasing in every cell, so a trial that fires at any count of a
    group fires at the group's smallest count ``j_min``.  A screen
    (:func:`_edge_screen`) decides every trial at ``j_min``, ``_CHUNK_ROWS``
    rows at a time, and only the trials it keeps (under 1% at design Pfa
    1e-3) go through the per-count evaluation (:func:`_edge_hits`), in
    chunks of the same size.  A kept trial gets the same verdicts as in a
    pass over every trial, so the screen changes no count.  The geometric
    mean takes the logs of the draw in place.
    """
    stat, boost = batch.spec.stat, batch.cells.boost
    counts = np.asarray(batch.cells.counts, dtype=np.intp)
    scales = np.asarray(batch.cut_scales)
    hits = np.zeros(len(counts), dtype=np.int64)
    if isinstance(stat, GeometricMean):  # a zero cell sends the log sum to -inf and g to 0
        with np.errstate(divide="ignore"):
            crp = np.log(crp, out=crp).sum(axis=1)
    for scale in np.unique(scales):
        members = np.flatnonzero(scales == scale)
        zc = cut * scale
        j_min = counts[members].min()
        kept = np.flatnonzero(np.concatenate([
            _edge_screen(batch.spec, boost, crp[r : r + _CHUNK_ROWS], zc[r : r + _CHUNK_ROWS],
                         j_min)
            for r in range(0, len(cut), _CHUNK_ROWS)
        ]))
        for r in range(0, len(kept), _CHUNK_ROWS):
            rows = kept[r : r + _CHUNK_ROWS]
            hits[members] += _edge_hits(batch.spec, boost, crp[rows], zc[rows], counts[members])
    return hits.tolist()


def _edge_screen(
    spec: DetectorSpec, boost: float, x: np.ndarray, zc: np.ndarray, j: int
) -> np.ndarray:
    """Trials that may fire with the first ``j`` cells boosted: a superset of those that do.

    ``x`` holds the trials' cells (their log sums for the geometric mean)
    and ``zc`` their scaled CUT.  An order statistic ``k`` (``min`` is
    ``k = 1``) counts the cells with ``fl(tau * y) < zc``, from the same
    rounded products as :func:`_edge_hits`, so it keeps exactly the trials
    that fire at ``j``.  The sum and the geometric mean lower the threshold
    by the relative ``_SCREEN_SLACK``, far above the few ulps by which the
    rounding of their sums (about ``N`` ulps) and of ``exp`` can break the
    order of the counts.
    """
    stat, tau = spec.stat, spec.threshold_multiplier
    if isinstance(stat, OrderStatistic):
        zc = zc[:, None]
        with np.errstate(over="ignore"):  # a cell lifted to inf is never below zc
            lifted = x[:, :j] * boost
            lifted *= tau
        below = np.count_nonzero(lifted < zc, axis=1)
        below += np.count_nonzero(x[:, j:] * tau < zc, axis=1)
        return below >= stat.k
    if isinstance(stat, Sum):
        limit = x[:, :j].sum(axis=1)
        limit *= boost
        limit += x[:, j:].sum(axis=1)
    else:
        limit = np.exp((x + j * math.log(boost)) / spec.window_length)
    limit *= tau * (1.0 - _SCREEN_SLACK)
    return zc > limit


def _edge_hits(
    spec: DetectorSpec, boost: float, x: np.ndarray, zc: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Successes at each affected count among trials ``x`` (overwritten), ``zc`` as screened.

    - Sum: ``B`` times the prefix sum of the first ``j`` cells plus the
      suffix sum of the rest.
    - Geometric mean: ``exp((sum(log x) + j log B) / N)``.
    - Order statistic ``k``: rounding ``tau * y`` is monotone in ``y``, so
      ``tau * y_(k) < zc`` exactly when at least ``k`` cells have
      ``tau * y_i < zc``; that count is the cells below ``zc`` unboosted,
      less those among the first ``j`` that the boost lifts to ``zc`` or
      above.

    Order-statistic rows equal a per-point evaluation bit for bit.  Sum and
    geometric-mean rows are the per-point statistics up to rounding, so
    they can differ from it only by a trial whose scaled CUT lies within a
    few ulps of the threshold.
    """
    stat, tau = spec.stat, spec.threshold_multiplier
    zc = zc[:, None]
    if isinstance(stat, OrderStatistic):
        reach = counts.max()
        with np.errstate(over="ignore"):
            lifted = x[:, :reach] * boost
            lifted *= tau
        x *= tau
        below = x < zc
        spare = np.count_nonzero(below, axis=1) - stat.k
        lost = np.zeros((len(x), reach + 1), dtype=np.int32)
        np.cumsum(below[:, :reach] & ~(lifted < zc), axis=1, out=lost[:, 1:])
        return np.count_nonzero(lost[:, counts] <= spare[:, None], axis=0)
    if isinstance(stat, Sum):
        prefix = np.zeros((len(x), x.shape[1] + 1))
        np.cumsum(x, axis=1, out=prefix[:, 1:])
        head = prefix[:, counts]
        limit = prefix[:, -1:] - head
        head *= boost
        limit += head
    else:
        limit = np.exp((x[:, None] + counts * math.log(boost)) / spec.window_length)
    limit *= tau
    return np.count_nonzero(zc > limit, axis=0)


def _point_estimates(batches: Sequence[_TrialBatch], workers: int) -> list[PdEstimate]:
    """Estimate every point of every batch of a run, in order.

    Block ``b`` of a batch holds at most ``BLOCK_TRIALS`` of its trials and
    draws them once from ``batch.stream.substream(b)``; every point of the
    batch is evaluated on that draw, so the points of one batch (one curve)
    share their random numbers.  The blocks of all batches are mapped
    through one pool of at most one process per block; integer addition
    makes each point's sum independent of the order in which workers finish.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    owners, blocks = [], []
    for index, batch in enumerate(batches):
        n_blocks = (batch.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS if batch.cut_scales else 0
        for b in range(n_blocks):
            owners.append(index)
            blocks.append(replace(
                batch,
                stream=batch.stream.substream(b),
                trials=min(BLOCK_TRIALS, batch.trials - b * BLOCK_TRIALS),
            ))
    processes = min(workers, len(blocks))
    if processes <= 1:
        counts = list(map(_batch_successes, blocks))
    else:
        # a class assigned to the module attribute (a test's stand-in) comes first
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=processes) as pool:
            counts = list(pool.map(_batch_successes, blocks))
    totals = [[0] * len(batch.cut_scales) for batch in batches]
    for index, block_counts in zip(owners, counts):
        totals[index] = [t + c for t, c in zip(totals[index], block_counts)]
    return [
        PdEstimate(hits, batch.trials)
        for batch, point_hits in zip(batches, totals)
        for hits in point_hits
    ]


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
    return (factor,) * interference.count + (1.0,) * (window - interference.count)


def _detection_batch(
    spec: DetectorSpec,
    clutter: ClutterModel,
    targets: Sequence[TargetContext | None],
    interference: InterferenceSpec | None,
    trials: int,
    stream: RandomStream,
) -> _TrialBatch:
    """``trials`` detection trials of ``spec`` at each target; H0 where it is None."""
    cut_scales = tuple(1.0 if target is None else 1.0 + target.scr_linear for target in targets)
    return _TrialBatch(
        stream, trials, spec, clutter.rate, cut_scales,
        _interference_scales(interference, spec.window_length),
    )


def _scr_points(
    spec: DetectorSpec,
    clutter: ClutterModel,
    interference: InterferenceSpec | None,
    scr_grid_db: tuple[float, ...],
    runs: int,
    base: RandomStream,
    key: tuple[int, ...],
) -> _TrialBatch:
    """One detector's SCR grid as one batch, drawing from ``base.substream(*key)``."""
    targets = [TargetContext.from_db(scr_db) for scr_db in scr_grid_db]
    return _detection_batch(spec, clutter, targets, interference, runs, base.substream(*key))


def _regulation_points(
    spec: DetectorSpec, clutter: ClutterModel, reg: RegulationSpec, stream: RandomStream
) -> tuple[tuple[int, ...], _TrialBatch]:
    """The affected counts ``j`` of a clutter-edge sweep and one edge batch with a point per count.

    The batch draws from ``stream.substream(*spec.stream_key())``; past the
    window midpoint (``j > N/2``) the CUT is boosted as well.
    """
    n = spec.window_length
    counts = reg.affected_counts if reg.affected_counts is not None else tuple(range(n + 1))
    if any(j > n for j in counts):
        raise ValueError(f"affected cell counts must be <= {n}")
    boost = db_to_linear(reg.boost_db)
    cut_scales = tuple(boost if j > n // 2 else 1.0 for j in counts)
    return counts, _TrialBatch(
        stream.substream(*spec.stream_key()), reg.runs, spec, clutter.rate, cut_scales,
        _Edge(boost, counts),
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


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
    batch = _detection_batch(spec, clutter, [target], interference, runs, stream)
    return _point_estimates([batch], workers)[0]


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
    as well.  Every count is evaluated on the same draws, so the rows are
    positively correlated; each keeps its binomial standard error.
    ``spec.threshold_multiplier`` is expected to be resolved from
    ``reg.design_pfa`` under homogeneous clutter.
    """
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    counts, batch = _regulation_points(spec, clutter, reg, stream)
    return tuple(zip(counts, _point_estimates([batch], workers)))


def scr_sweep(experiment: ExperimentSpec, *, workers: int = 1) -> tuple[DetectorCurve, ...]:
    """Estimate Pd curves for every detector over the experiment's SCR grid.

    Each detector's curve is one batch: its substream is keyed by detector
    position and detector identity, and every grid point is counted on the
    same draws, so the points of a curve are correlated and Pd never
    decreases in SCR.  Rearranging or duplicating detectors never silently
    reuses samples: duplicated specs produce statistically equal (not
    bitwise equal) curves.
    """
    base = RandomStream(experiment.seed)
    grid = tuple(experiment.scr_grid_db)
    batches = [
        _scr_points(
            det, experiment.clutter, experiment.interference, grid, experiment.runs, base,
            (d_index, *det.stream_key()),
        )
        for d_index, det in enumerate(experiment.detectors)
    ]
    estimates = iter(_point_estimates(batches, workers))
    return tuple(
        DetectorCurve(det, grid, tuple(next(estimates) for _ in grid))
        for det in experiment.detectors
    )


def resolve_threshold(
    stat: StatKind,
    window: int,
    design_pfa: float,
    *,
    settings: SolverSettings = SolverSettings(),
) -> float:
    """Threshold multiplier achieving ``design_pfa`` for any statistic kind.

    Every statistic has an exact Pfa: a closed form for the sum, a
    log-gamma expression for order statistics (closed form at ``k = 1``,
    the minimum) and a Mellin-Barnes quadrature for the geometric mean.
    """
    if isinstance(stat, Sum):
        return ca_threshold(design_pfa, window)
    if isinstance(stat, OrderStatistic):
        return os_threshold(design_pfa, window, stat.k, settings)
    if isinstance(stat, GeometricMean):
        return gm_threshold(design_pfa, window, settings)
    raise TypeError(f"unknown statistic kind: {stat!r}")
