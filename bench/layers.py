"""Per-layer costs of single operations, timed on cfarkit's public functions.

    python3 bench/layers.py SEED [--smoke]

Prints one JSON object of per-layer metrics.  Each figure is the median
of several repetitions in this fresh process; the sizes follow the
ROADMAP's per-layer list: one block of 65,536 trials x N=32, one CRP, one
threshold solve, one two-block Monte Carlo point at each worker count.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

import cfarkit
from cfarkit.stats import unit_exponential

BLOCK = (1 << 16, 32)
INTERFERENCE_DB = 15.0  # the stronger level of the interference-sweep workload


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(seed: int, smoke: bool) -> dict:
    reps = 2 if smoke else 7
    stream = cfarkit.RandomStream(seed)
    m: dict[str, float] = {}

    def uniform():
        stream.generator().random(BLOCK)

    def exponential():
        unit_exponential(stream.generator(), BLOCK)

    m["stats.philox_uniform_block_ms"] = 1e3 * _median_time(uniform, reps)
    m["stats.unit_exponential_block_ms"] = 1e3 * _median_time(exponential, reps)

    rng = np.random.default_rng(seed)
    crp = rng.standard_exponential(32)
    calls = 200 if smoke else 2000
    stats = {
        "sum": cfarkit.Sum(),
        "os": cfarkit.OrderStatistic(24),
        "min": cfarkit.Minimum(),
        "gm": cfarkit.GeometricMean(),
    }
    for name, stat in stats.items():
        per_batch = _median_time(
            lambda stat=stat: [cfarkit.clutter_statistic(stat, crp) for _ in range(calls)], reps
        )
        m[f"detector.clutter_statistic.{name}_us"] = 1e6 * per_batch / calls

    profile = rng.standard_exponential(512 if smoke else 4096)
    slide_taus = {"sum": 0.5, "os": 0.5, "min": 30.0, "gm": 2.0}
    for name, stat in stats.items():
        spec = cfarkit.DetectorSpec(stat, 32, slide_taus[name], 8)
        elapsed = _median_time(lambda spec=spec: cfarkit.slide(profile, spec), 3)
        label = "ca" if name == "sum" else name
        m[f"detector.slide.{label}_cells_per_s"] = profile.size / elapsed

    for n, k in ((32, 24), (1024, 768)):
        solves = 20 if smoke else 200
        elapsed = _median_time(
            lambda n=n, k=k: [cfarkit.os_threshold(1e-5, n, k) for _ in range(solves)], reps
        )
        m[f"analytic.os_threshold.n{n}_us"] = 1e6 * elapsed / solves

    clutter = cfarkit.ClutterModel(1.0)
    target = cfarkit.TargetContext.from_db(10.0)
    specs = {
        "sum": cfarkit.DetectorSpec(cfarkit.Sum(), 32, cfarkit.ca_threshold(1e-4, 32)),
        "os31": cfarkit.DetectorSpec(
            cfarkit.OrderStatistic(31), 32, cfarkit.os_threshold(1e-4, 32, 31)
        ),
        "min": cfarkit.DetectorSpec(cfarkit.Minimum(), 32, cfarkit.os_threshold(1e-4, 32, 1)),
        "gm": cfarkit.DetectorSpec(cfarkit.GeometricMean(), 32, 20.0),
    }
    block = BLOCK[0]
    for name, spec in specs.items():
        elapsed = _median_time(
            lambda spec=spec: cfarkit.estimate_pd(spec, clutter, target, None, block, seed), reps
        )
        m[f"simulation.estimate_pd.{name}_block_ms"] = 1e3 * elapsed
    interference = cfarkit.InterferenceSpec(2, INTERFERENCE_DB)
    for name in ("sum", "os31"):
        elapsed = _median_time(
            lambda spec=specs[name]: cfarkit.estimate_pd(
                spec, clutter, target, interference, block, seed
            ),
            reps,
        )
        m[f"simulation.estimate_pd.{name}_random2_block_ms"] = 1e3 * elapsed
    for workers in (1, 2):
        elapsed = _median_time(
            lambda workers=workers: cfarkit.estimate_pd(
                specs["os31"], clutter, target, interference, 2 * block, seed, workers=workers
            ),
            3 if not smoke else 1,
        )
        m[f"simulation.estimate_pd.point_w{workers}_s"] = elapsed

    pfa = 1e-3 if smoke else 1e-5
    tracemalloc.start()
    start = time.perf_counter()
    cfarkit.resolve_threshold(cfarkit.GeometricMean(), 32, pfa)
    m["simulation.calibration_s"] = time.perf_counter() - start
    m["simulation.calibration_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return m


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]), "--smoke" in sys.argv[2:])))
