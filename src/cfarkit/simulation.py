"""Reproducible Monte Carlo engine for detection and false-alarm estimation.

The unit of work is a curve: a batch of points that share a detector, an
interference level and a trial count, such as one SCR grid or every
affected count of a clutter-edge sweep.  A batch's trials are organised
into fixed-size blocks of at most ``BLOCK_TRIALS`` trials.  Block ``b``
draws every sample once, its CRP matrix row by row from the substream
``stream.substream(b)`` and its CUTs in trial order from that
substream's child ``substream(0)``, one uniform ``U`` per value, the
value being ``-log1p(-U)`` over the clutter rate
(:func:`cfarkit.stats._cells`); nothing else is drawn.  Every point of
the batch is counted on those samples (common random numbers), so the
rows of one curve are positively correlated, each row is still binomial,
and Pd never decreases along an SCR grid.  A block reads its CRP and
CUTs one chunk of rows at a time, so it holds neither the matrix nor a
trials-long vector, and its memory does not grow with its trials.  A
batch of one point is a single estimate.  A batch whose points scale the
same number of cells (an SCR grid, an estimate, one edge count) computes
the clutter statistic once per trial; a batch whose counts differ (a
clutter-edge sweep) screens each chunk once per CUT scale on its raw
uniforms, before any cell is computed, and computes the statistic at
every count only on the trials the screens keep.  Every statistic
computed on cells, the edge screen's included, comes from the statistic
kind's ``rows`` in :mod:`cfarkit.detector`.  Per-block success counts are
combined by exact integer addition, so results are identical for any
worker count and any scheduling order.

A run builds every batch first, the public operations and the CLI alike;
one plan then yields the blocks of all batches one at a time, so its
memory does not grow with ``runs``.  The blocks go to one process pool of
at most one process per block, at most two per process in flight, and
each block's counts are added as it finishes.  With one worker, or a
single block, the blocks run in the calling process.  Only a process that
draws loads ``numpy.random``, and no path calls ``np.unique``, which in
numpy 2.x imports ``numpy.ma`` on first use.

Interfering targets and boosted clutter are both realised by scaling:
an exponential of rate ``lambda`` multiplied by ``c > 0`` is exponential
of rate ``lambda/c``, so an interferer of linear INR ``I`` scales its cell
by ``1 + I`` and a clutter-power step of ``x`` dB scales affected cells by
``10**(x/10)``.  Every statistic is symmetric in the CRP cells, so where
the scaled cells sit is immaterial: both scale the leading cells, and a
point is a CUT scale and a count of leading cells.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .analytic import _check_count
from .detector import DetectorSpec, GeometricMean, OrderStatistic, Sum, _row_chunks
from .stats import ClutterModel, RandomStream, TargetContext, _cells, db_to_linear

__all__ = [
    "BLOCK_TRIALS",
    "InterferenceSpec",
    "PdEstimate",
    "RegulationSpec",
    "ExperimentSpec",
    "DetectorCurve",
    "estimate_pd",
    "pfa_regulation_curve",
    "scr_sweep",
]


def __getattr__(name: str):
    """``ProcessPoolExecutor`` on first use: a run without a pool skips ``multiprocessing``."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


BLOCK_TRIALS = 1 << 16
_SUB_BLOCK_ROWS = 1 << 13  # rows whose limits a detection block holds at once; changes no result
_SCREEN_SLACK = 2.0**-30  # relative margin of the edge screens that round
# beyond these a draw over the rate, or tau times it, can be subnormal, where
# rounding is not relative: the uniform screen then keeps every row
_SCREEN_MAX_RATE = 2.0**969
_SCREEN_MIN_TAU = 2.0**-1000


@dataclass(frozen=True)
class InterferenceSpec:
    """Independent Swerling I interferers injected into the CRP.

    Each interfering cell is exponential with rate ``lambda/(1+I)`` where
    ``I`` is the linear interference-to-clutter ratio.  The interferers
    take the first ``count`` CRP cells; every statistic is symmetric in
    the cells, so any other placement has the same distribution.
    """

    count: int
    inr_db: float

    def __post_init__(self) -> None:
        _check_count("interferer count", self.count, 0)
        if not math.isfinite(self.inr_db):
            raise ValueError(f"INR must be finite, got {self.inr_db!r}")


@dataclass(frozen=True)
class PdEstimate:
    """Binomial proportion estimate from a batch of Monte Carlo trials."""

    successes: int
    runs: int

    def __post_init__(self) -> None:
        _check_count("runs", self.runs, 1)
        _check_count("successes", self.successes, 0)
        if self.successes > self.runs:
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


@dataclass(frozen=True, kw_only=True)
class RegulationSpec:
    """Clutter-edge sweep configuration for false-alarm regulation."""

    runs: int
    boost_db: float = 10.0
    affected_counts: tuple[int, ...] | None = None  # default: 0..N inclusive

    def __post_init__(self) -> None:
        _check_count("runs", self.runs, 1)
        if not (math.isfinite(self.boost_db) and self.boost_db >= 0):
            raise ValueError(f"boost must be finite and >= 0 dB, got {self.boost_db!r}")
        for j in self.affected_counts or ():
            _check_count("affected cell count", j, 0)


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
        _check_count("runs", self.runs, 1)


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
    """Picklable unit of work: trials from one stream, evaluated at several points.

    Point ``p`` multiplies every trial's CUT by ``cut_scales[p]`` and the
    first ``counts[p]`` CRP cells by ``scale``, the batch's one cell scale:
    ``1 + I`` for interferers, the boost of a clutter edge.  All points
    share the same draws.
    """

    stream: RandomStream
    trials: int
    spec: DetectorSpec
    rate: float
    cut_scales: tuple[float, ...]
    counts: tuple[int, ...]
    scale: float


def _uniform_chunks(stream: RandomStream, trials: int, n: int, rate: float):
    """``(first row, rows, CUTs)``: the CRP's uniforms chunk by chunk, with the rows' CUT cells.

    The CRP rows come from ``stream``, the CUTs from ``stream.substream(0)``,
    each from its stream's first uniform on, so the chunk size moves no value.
    """
    crp, cut = stream.generator(), stream.substream(0).generator()
    for start, u in _row_chunks(trials, n):
        crp.random(out=u)
        yield start, u, _cells(cut.random(len(u)), rate)


def _batch_successes(batch: _TrialBatch) -> list[int]:
    """Successes of every point of ``batch`` on one draw of its trials.

    The block reads its CUT chunk by chunk beside the CRP rows, from
    :func:`_uniform_chunks`, so it holds a fixed number of chunks whatever
    its trial count.  Points that all scale the same count reduce each
    chunk to its statistics once and are counted on the limits and CUTs of
    whole chunks of at least ``_SUB_BLOCK_ROWS`` rows before the next chunk
    is drawn, so no trials-long limit or CUT is held; points that differ
    in their counts go through :func:`_edge_successes`.  A scale near the
    largest double lifts cells, CUTs and sums to inf, which compare as
    designed: a lifted cell never lets the CUT fire, and a lifted CUT fires
    unless its limit is lifted too.
    """
    chunks = _uniform_chunks(batch.stream, batch.trials, batch.spec.window_length, batch.rate)
    with np.errstate(over="ignore", divide="ignore"):  # a zero uniform or cell: log -inf
        if len(set(batch.counts)) > 1:
            return _edge_successes(batch, chunks)
        j, limits, cuts = batch.counts[0], [], []  # per chunk of the current sub-block
        hits = np.zeros(len(batch.cut_scales), dtype=np.int64)
        for start, u, cut in chunks:
            x = _cells(u, batch.rate)
            x[:, :j] *= batch.scale
            limits.append(batch.spec.stat.rows(x))
            cuts.append(cut)
            if sum(map(len, cuts)) >= _SUB_BLOCK_ROWS or start + len(x) == batch.trials:
                limit, z = _take(limits, cuts)
                limit *= batch.spec.threshold_multiplier
                hits += [np.count_nonzero(z * c > limit) for c in batch.cut_scales]
        return hits.tolist()


def _edge_successes(batch: _TrialBatch, chunks) -> list[int]:
    """Successes at every point of a clutter edge, in one pass over the block's ``chunks``.

    Each CRP chunk of :func:`_uniform_chunks` comes with its rows' CUT
    cells, which every group scales by its CUT scale.
    Point ``p`` boosts the first ``j = counts[p]`` cells by ``B``; points
    that share a CUT scale form a group.  ``B >= 1`` and every statistic is
    nondecreasing in every cell, so a trial that fires at any count of a
    group fires at its smallest count ``j_min``, where the group screens
    each chunk.  ``_UNIFORM_SCREENS`` tests the raw uniforms (the
    geometric mean their row log sums, taken once per chunk); it keeps
    0.2-4% at design Pfa 1e-3 and a 2 dB edge.  Once a quarter chunk of
    kept rows waits they alone are turned into cells, bit for bit as in
    the whole chunk, and :func:`_edge_screen`, the statistic kernel at
    ``j_min`` less a slack, keeps the rows that may fire (under 1%); once
    a chunk's worth waits they go through :func:`_edge_hits`.  The waits
    bound a block's memory and give each call many rows.  Each screen
    keeps every trial that fires at some count, so none changes.
    """
    spec, boost, rate = batch.spec, batch.scale, batch.rate
    counts = np.asarray(batch.counts, dtype=np.intp)
    scales = np.asarray(batch.cut_scales)
    # not np.unique: on first use numpy 2.x imports numpy.ma for it
    groups = [np.flatnonzero(scales == scale) for scale in sorted(set(batch.cut_scales))]
    lows = [int(counts[members].min()) for members in groups]
    weights = [_screen_weights(spec, boost, j, rate) for j in lows]
    raw_kept = [([], []) for _ in groups]  # per group: kept uniform rows and CUTs, waiting
    kept = [([], []) for _ in groups]  # per group: kept cell rows and CUTs, waiting
    hits = np.zeros(len(counts), dtype=np.int64)
    screen_input, uniform_screen = _UNIFORM_SCREENS[type(spec.stat)]
    for start, u, cut in chunks:
        last = start + len(u) == batch.trials
        screened = screen_input(u)
        for members, j, w, (us, uzcs), (xs, zcs) in zip(groups, lows, weights, raw_kept, kept):
            zc = cut * scales[members[0]]
            keep = uniform_screen(spec.stat, screened, zc * rate, w, j)
            us.append(u[keep])
            uzcs.append(zc[keep])
            if not (last or sum(map(len, uzcs)) >= len(u) // 4):
                continue
            x, zc = _take(us, uzcs)
            keep = _edge_screen(spec, boost, _cells(x, rate), zc, j)
            xs.append(x[keep])
            zcs.append(zc[keep])
            if last or sum(map(len, zcs)) >= len(u):
                hits[members] += _edge_hits(spec, boost, *_take(xs, zcs), counts[members])
    return hits.tolist()


def _take(rows: list, cuts: list) -> tuple[np.ndarray, np.ndarray]:
    """The waiting ``rows`` and their ``cuts``, each joined into one array; empties the lists."""
    taken = np.concatenate(rows), np.concatenate(cuts)
    rows.clear()
    cuts.clear()
    return taken


def _screen_weights(spec: DetectorSpec, boost: float, j: int, rate: float) -> np.ndarray:
    """Per-cell weights of the uniform screens with the first ``j`` cells boosted.

    ``tau`` less twice ``_SCREEN_SLACK`` (the cell screen's own slack, then
    rounding), times ``boost`` on the first ``j`` cells, at most the largest
    double over ``N``, so that a row's weighted sum stays finite and a zero
    uniform never meets an infinite weight.  Lower weights keep more rows:
    outside the normal range of ``rate`` and ``tau`` they are all zero, and
    every row with a positive CUT is kept, as at ``tau = 0``.
    """
    n, tau = spec.window_length, spec.threshold_multiplier
    if rate > _SCREEN_MAX_RATE or 0.0 < tau < _SCREEN_MIN_TAU:
        return np.zeros(n)
    w = np.full(n, tau * (1.0 - 2.0 * _SCREEN_SLACK))
    w[:j] *= boost
    return np.minimum(w, np.finfo(float).max / n)


def _order_screen(
    stat: OrderStatistic, u: np.ndarray, zl: np.ndarray, w: np.ndarray, j: int
) -> np.ndarray:
    n = len(w)
    with np.errstate(all="ignore"):  # a zero weight: limit 1, or NaN (none) for a zero CUT
        limits = np.stack([np.expm1(zl / -w[0]), np.expm1(zl / -w[-1])], axis=1)
    limits *= -(1.0 + 2.0 * _SCREEN_SLACK)
    below = u <= np.repeat(limits, [j, n - j], axis=1)
    # einsum sums rows faster than count_nonzero, and fastest in uint8, which holds counts to 255
    count = np.einsum("ij->i", below.view(np.uint8), dtype=np.uint8 if n < 256 else np.intp)
    return count >= stat.k


# The uniform screens, per kind: what a chunk's uniforms ``u`` become once
# per chunk (their row log sums for the geometric mean), and the screen
# ``(stat, that, zl, w, j)`` of the rows that may fire, a superset of those
# :func:`_edge_screen` keeps.  ``zl`` is the rows' scaled CUT times the
# clutter rate, ``w`` comes from :func:`_screen_weights`.  :func:`_edge_screen`
# keeps a row whose ``zc`` exceeds ``tau`` times its statistic less
# ``_SCREEN_SLACK``; ``w`` is lower by a second slack, for the rounding of
# both screens.  A cell ``-log1p(-u) / rate`` enters the test as
# ``w * -log1p(-u) < zl``.  The sum is nondecreasing in every cell and
# ``-log1p(-u) >= u``, so it tests ``sum(w * u) < zl``.  The geometric mean
# fires when ``sum(log(w * -log1p(-u))) < N * log(zl)``, and
# ``log(-log1p(-u)) >= log(u)``, so it tests
# ``sum(log(u)) + sum(log(w)) < N * log(zl)``.  An order statistic ``k``
# counts the cells below the CUT, and a cell is below exactly when
# ``u < -expm1(-zl / w)``: the row's two limits (boosted and not) become
# uniforms instead of its ``N`` uniforms becoming cells.  The limits are
# raised by twice ``_SCREEN_SLACK``, an absolute margin near 1.  In the
# normal range every rounding here is relative and far inside the slack;
# for the geometric mean the slack is ``N * 2 * _SCREEN_SLACK`` in the log,
# and SFC64's nonzero uniforms give ``|log u| <= 36.8``, so the rounding of
# the ``N``-term log sums (a few ulps of at most ``750 * N``) stays far
# inside it.  A zero uniform has log sum ``-inf`` and is kept.
_UNIFORM_SCREENS = {
    Sum: (lambda u: u, lambda stat, u, zl, w, j: np.einsum("ij,j->i", u, w) < zl),
    OrderStatistic: (lambda u: u, _order_screen),
    GeometricMean: (
        lambda u: np.log(u).sum(axis=1),
        lambda stat, log_sums, zl, w, j: log_sums + np.log(w).sum() < len(w) * np.log(zl),
    ),
}


def _edge_limits(spec: DetectorSpec, boost: float, x: np.ndarray, j: int) -> np.ndarray:
    """``tau`` times the statistic of a copy of the cells ``x``, its first ``j`` boosted."""
    y = x.copy()
    y[:, :j] *= boost
    return spec.stat.rows(y) * spec.threshold_multiplier


def _edge_screen(
    spec: DetectorSpec, boost: float, x: np.ndarray, zc: np.ndarray, j: int
) -> np.ndarray:
    """Trials that may fire at some count ``>= j``: a superset of those that do.

    ``x`` holds the cells and ``zc`` the scaled CUTs of the rows the
    uniform screen kept; the limit is :func:`_edge_limits` at ``j`` less
    ``_SCREEN_SLACK``.  ``boost >= 1`` and every statistic is
    nondecreasing in every cell, so no limit falls as the count grows: for
    the sum and the order statistics exactly in floating point (one
    summation order, monotone rounding, an exact partition), for the
    geometric mean up to the few ulps of ``log`` and ``exp``, far inside the
    slack.
    """
    limit = _edge_limits(spec, boost, x, j)
    limit *= 1.0 - _SCREEN_SLACK
    return zc > limit


def _edge_hits(
    spec: DetectorSpec, boost: float, x: np.ndarray, zc: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Successes at each count among the screened trials, bit for bit as per-point evaluations."""
    return np.array([np.count_nonzero(zc > _edge_limits(spec, boost, x, j)) for j in counts])


def _block_count(batch: _TrialBatch) -> int:
    return -(-batch.trials // BLOCK_TRIALS) if batch.cut_scales else 0


def _blocks(batches: Sequence[_TrialBatch]):
    """``(batch index, block)`` for every block of every batch, in order, one at a time."""
    for index, batch in enumerate(batches):
        for b in range(_block_count(batch)):
            trials = min(BLOCK_TRIALS, batch.trials - b * BLOCK_TRIALS)
            yield index, replace(batch, stream=batch.stream.substream(b), trials=trials)


def _point_estimates(batches: Sequence[_TrialBatch], workers: int) -> list[PdEstimate]:
    """Estimate every point of every batch of a run, in order.

    Block ``b`` of a batch holds at most ``BLOCK_TRIALS`` of its trials and
    draws them once from ``batch.stream.substream(b)``; every point of the
    batch is evaluated on that draw, so the points of one batch (one curve)
    share their random numbers.  The plan yields the blocks of all batches
    one at a time.  With several workers they are submitted to one pool of
    at most one process per block, never more than two per process at a
    time, and each block's counts are added as it finishes, so memory does
    not grow with ``runs``; integer addition makes each point's sum
    independent of the order in which workers finish.
    """
    _check_count("workers", workers, 1)
    totals = [[0] * len(batch.cut_scales) for batch in batches]

    def add(index: int, counts: list[int]) -> None:
        totals[index] = [t + c for t, c in zip(totals[index], counts)]

    processes = min(workers, sum(map(_block_count, batches)))
    if processes <= 1:
        for index, block in _blocks(batches):
            add(index, _batch_successes(block))
    else:
        from concurrent.futures import FIRST_COMPLETED, wait

        # a class assigned to the module attribute (a test's stand-in) comes first
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=processes) as pool:
            pending = {}  # future -> batch index
            for index, block in _blocks(batches):
                if len(pending) == 2 * processes:
                    for future in wait(pending, return_when=FIRST_COMPLETED).done:
                        add(pending.pop(future), future.result())
                pending[pool.submit(_batch_successes, block)] = index
            for future, index in pending.items():
                add(index, future.result())
    return [
        PdEstimate(hits, batch.trials)
        for batch, point_hits in zip(batches, totals)
        for hits in point_hits
    ]


def _detection_batch(
    spec: DetectorSpec,
    clutter: ClutterModel,
    targets: Sequence[TargetContext | None],
    interference: InterferenceSpec | None,
    trials: int,
    stream: RandomStream,
) -> _TrialBatch:
    """``trials`` detection trials of ``spec`` at each target; H0 where it is None.

    Every point scales the first ``interference.count`` CRP cells by ``1 + I``.
    """
    count = 0 if interference is None else interference.count
    if count > spec.window_length:
        raise ValueError(f"{count} interferers exceed the {spec.window_length}-cell CRP")
    scale = 1.0 + db_to_linear(interference.inr_db) if count else 1.0
    cut_scales = tuple(1.0 if target is None else 1.0 + target.scr_linear for target in targets)
    return _TrialBatch(
        stream, trials, spec, clutter.rate, cut_scales, (count,) * len(cut_scales), scale
    )


def _regulation_points(
    spec: DetectorSpec, clutter: ClutterModel, reg: RegulationSpec, stream: RandomStream
) -> _TrialBatch:
    """A clutter-edge sweep as one batch, with a point per affected count ``j``.

    The batch draws from ``stream.substream(*spec.stream_key())``; past the
    window midpoint (``j > N/2``) the CUT is boosted as well.
    """
    n = spec.window_length
    counts = reg.affected_counts if reg.affected_counts is not None else tuple(range(n + 1))
    if any(j > n for j in counts):
        raise ValueError(f"affected cell counts must be <= {n}")
    boost = db_to_linear(reg.boost_db)
    cut_scales = tuple(boost if j > n // 2 else 1.0 for j in counts)
    return _TrialBatch(
        stream.substream(*spec.stream_key()), reg.runs, spec, clutter.rate, cut_scales,
        tuple(counts), boost,
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
    _check_count("runs", runs, 1)
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
    ``spec.threshold_multiplier`` is used as given; resolve it for the
    design Pfa with :func:`cfarkit.resolve_threshold` under homogeneous clutter.
    """
    stream = seed if isinstance(seed, RandomStream) else RandomStream(int(seed))
    batch = _regulation_points(spec, clutter, reg, stream)
    return tuple(zip(batch.counts, _point_estimates([batch], workers)))


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
    targets = [TargetContext.from_db(scr_db) for scr_db in grid]
    batches = [
        _detection_batch(
            det, experiment.clutter, targets, experiment.interference, experiment.runs,
            base.substream(d_index, *det.stream_key()),
        )
        for d_index, det in enumerate(experiment.detectors)
    ]
    estimates = iter(_point_estimates(batches, workers))
    return tuple(
        DetectorCurve(det, grid, tuple(next(estimates) for _ in grid))
        for det in experiment.detectors
    )
