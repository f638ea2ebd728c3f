"""Workload processes the benchmark launches; each imports cfarkit afresh.

    job.py setup CONFIG MODE
        Import cfarkit, parse CONFIG and resolve every detector's threshold,
        then print the monotonic time at which that finished.
    job.py profile PROFILES OUT PFA
        The range-profile workload: resolve the detector bank's thresholds
        for design PFA, slide every detector over every profile in
        PROFILES (.npy), save the decisions to OUT (.npy).
    job.py traced WORKLOAD SPANS ARGS...
        The same work with spans around every call into cfarkit's modules;
        ARGS are the cfarkit CLI arguments, or for range-profile
        ``PROFILES OUT PFA -- CLI_ARGS``.  The spans go to SPANS at the end.

Each mode prints one JSON line of timings on stdout.  Times use
``time.monotonic``, one clock for every process on the machine, so the
launcher can subtract its own launch time.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

WINDOW = 32
GUARD = 8
# the range-profile detector bank: (name, statistic, order index)
BANK = (("ca", "sum", None), ("os24", "os", 24), ("min", "min", None), ("gm", "gm", None))


def _stat(cfarkit, kind: str, k):
    if kind == "os":
        return cfarkit.OrderStatistic(k)
    return {"sum": cfarkit.Sum, "min": cfarkit.Minimum, "gm": cfarkit.GeometricMean}[kind]()


def setup(config: str, mode: str) -> dict:
    import cfarkit
    import cfarkit.cli  # noqa: F401  (the CLI's own import cost)
    from cfarkit.config import RunConfig

    cfg = RunConfig.from_file(config, mode)
    taus = [
        cfarkit.resolve_threshold(req.to_stat(), cfg.window, cfg.design_pfa)
        for req in cfg.detectors
        if req.kind != "ideal"
    ]
    return {"setup_done": time.monotonic(), "taus": taus}


def profile(profiles_path: str, out_path: str, pfa: str) -> dict:
    """Resolve the bank's thresholds, then slide each detector over each profile.

    Looks functions up on the package at call time so that span wrappers
    installed by ``traced`` see the calls.
    """
    import cfarkit

    stats = {name: _stat(cfarkit, kind, k) for name, kind, k in BANK}
    taus = {name: cfarkit.resolve_threshold(stat, WINDOW, float(pfa)) for name, stat in stats.items()}
    setup_done = time.monotonic()
    profiles = np.load(profiles_path)
    decisions = np.empty((len(BANK),) + profiles.shape, dtype=np.int8)
    slide_s: dict[str, list[float]] = {}
    for d, (name, stat) in enumerate(stats.items()):
        spec = cfarkit.DetectorSpec(stat, WINDOW, taus[name], GUARD)
        slide_s[name] = []
        for p, row in enumerate(profiles):
            start = time.perf_counter()
            decisions[d, p] = cfarkit.slide(row, spec)
            slide_s[name].append(time.perf_counter() - start)
    np.save(out_path, decisions)
    return {
        "setup_done": setup_done,
        "taus": taus,
        "slide_s": slide_s,
        "cells_per_call": int(profiles.shape[1]),
    }


def traced(workload: str, spans_path: str, args: list[str]) -> dict:
    import cfarkit.cli
    import tracing

    recorder = tracing.Recorder(workload)
    tracing.instrument(recorder)
    main = recorder.wrap("cli.main", cfarkit.cli.main)
    info: dict = {}
    if workload == "range-profile":
        split = args.index("--")
        info = profile(*args[:split])
        code = main(args[split + 1:])
    else:
        code = main(args)
    recorder.dump(spans_path)
    info["exit"] = code
    return info


def _main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        info = setup(*rest)
    elif mode == "profile":
        info = profile(*rest)
    elif mode == "traced":
        info = traced(rest[0], rest[1], rest[2:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    return int(info.get("exit", 0))


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
