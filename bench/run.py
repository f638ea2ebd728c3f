"""Run one cfarkit benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout: the program is imported from its
``src/`` directory, never from an installed copy, and the run stops with
exit code 2 when that directory is missing.  Workloads are closed loops,
one command or call at a time:

  interference-sweep  ``cfarkit pd-curve`` with two random interferers, workers=2
  regulation-edge     ``cfarkit regulation`` over a clutter edge, workers=1
  range-profile       library: resolve a detector bank, ``slide()`` over profiles

``--trace 0`` repeats the workload while one more repetition fits in
``--seconds`` (at least once) and prints the end-to-end metrics; ``--trace 1`` runs it once
untraced and once traced, times single operations of every layer, and
prints the per-layer metrics.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs everything at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("interference-sweep", "regulation-edge", "range-profile")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A workload process failed, so the run has no result."""


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        facts["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return facts


class Spawner:
    """The small process that launches every child (see ``spawn.py``)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, cmd: list[str], work: Path, tag: str) -> "Proc":
        out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
        request = {
            "cmd": cmd,
            "cwd": str(ROOT),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        if reply["code"] != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{' '.join(cmd)} exited with {reply['code']}:\n{tail}")
        return Proc(reply, out_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


class Proc:
    """One finished child process: its timing, resource use and output."""

    def __init__(self, reply: dict, stdout: str):
        self.launched = reply["launched"]
        self.wall_s = reply["ended"] - reply["launched"]
        self.cpu_s = reply["cpu_s"]
        self.rss_mb = reply["maxrss_kb"] / 1024.0
        self.stdout = stdout

    def info(self) -> dict:
        """The JSON line a ``job.py`` process prints last."""
        return json.loads(self.stdout.strip().splitlines()[-1])


def python(*args) -> list[str]:
    return [sys.executable, *(str(a) for a in args)]


class Workload:
    """Inputs, commands and checks of one workload, in a scratch directory."""

    def __init__(self, name: str, seed: int, size: str, work: Path, spawner: Spawner):
        self.name, self.seed, self.size, self.work, self.spawner = name, seed, size, work, spawner
        self.library = name == "range-profile"
        self.suffix = ".npy" if self.library else ".csv"
        self.digest = None
        if self.library:
            s = wl.RANGE[size]
            self.pfa = s["pfa"]
            self.profiles = wl.make_profiles(seed, s["profiles"], s["cells"])
            self.profiles_path = work / "profiles.npy"
            np.save(self.profiles_path, self.profiles)
            self.threshold_checks: dict[str, wl.Outcome] = {}
            text, self.mode = wl.probe_config(size), "pd-curve"
        elif name == "interference-sweep":
            text, self.mode = wl.interference_config(seed, size), "pd-curve"
            self.expected, self.runs = wl.expected_interference(size), wl.INTERFERENCE[size]["runs"]
        else:
            text, self.mode = wl.regulation_config(seed, size), "regulation"
            self.expected, self.runs = wl.expected_regulation(size), wl.REGULATION[size]["runs"]
        self.config = work / "workload.cfg"
        self.config.write_text(text, encoding="utf-8")

    def launch(self, cmd: list[str], tag: str) -> Proc:
        return self.spawner.run(cmd, self.work, tag)

    # -- one repetition ---------------------------------------------------

    def cli_args(self, out: Path) -> list[str]:
        return [self.mode, "--config", str(self.config), "--out", str(out)]

    def command(self, out: Path) -> list[str]:
        if self.library:
            return python(BENCH / "job.py", "profile", self.profiles_path, out, repr(self.pfa))
        return python("-m", "cfarkit.cli", *self.cli_args(out))

    def traced_command(self, out: Path, spans: Path, cli_out: Path) -> list[str]:
        """The traced repetition; range-profile adds an analytic CLI run to ``cli_out``."""
        if self.library:
            args = [self.profiles_path, out, repr(self.pfa), "--", *self.cli_args(cli_out)]
        else:
            args = self.cli_args(out)
        return python(BENCH / "job.py", "traced", self.name, spans, *args)

    def check(self, out: Path, proc: Proc) -> wl.Outcome:
        """Check one repetition's output; the first sets the expected digest."""
        if self.library:
            taus = proc.info()["taus"]
            result = self.check_thresholds(taus)
            result.merge(wl.check_decisions(np.load(out), self.profiles, taus))
        elif self.mode == "pd-curve":
            result = wl.check_pd_curve(out, self.expected, self.runs)
        else:
            result = wl.check_regulation(out, self.expected, self.runs)
        digest = wl.sha256(out)
        if self.digest is None:
            self.digest = digest
        else:
            result.add(digest == self.digest, f"output digest {digest} differs from {self.digest}")
        return result

    def check_thresholds(self, taus: dict) -> wl.Outcome:
        """Threshold checks, computed once per distinct set of thresholds."""
        key = json.dumps(taus, sort_keys=True)
        if key not in self.threshold_checks:
            cmc = wl.RANGE[self.size]["cmc"]
            self.threshold_checks[key] = wl.check_thresholds(taus, self.pfa, cmc, self.seed)
        cached = self.threshold_checks[key]
        return wl.Outcome(cached.attempted, cached.failed, list(cached.problems))

    # -- measurements beside the repetitions -------------------------------

    def setup_times(self, reps: list[Proc]) -> list[float]:
        """Process start to thresholds resolved, several times."""
        if self.library:
            return [p.info()["setup_done"] - p.launched for p in reps]
        times = []
        for i in range(SETUP_PROBES):
            probe = self.launch(python(BENCH / "job.py", "setup", self.config, self.mode), f"setup{i}")
            times.append(probe.info()["setup_done"] - probe.launched)
        return times


def bank_slide_rate(info: dict) -> float:
    """Cells through ``slide()`` per second for the range-profile bank.

    Each detector's time is the median of its calls times their number,
    which keeps a burst of load on the machine out of the figure.
    """
    calls = info["slide_s"].values()
    cells = sum(len(t) for t in calls) * info["cells_per_call"]
    return cells / sum(len(t) * statistics.median(t) for t in calls)


def run_timed(w: Workload, seconds: float) -> tuple[wl.Outcome, dict]:
    """Repeat the workload until ``seconds`` would be exceeded; end-to-end metrics."""
    reps, outcome = [], wl.Outcome()
    start = time.monotonic()
    while True:
        out = w.work / f"out{len(reps)}{w.suffix}"
        proc = w.launch(w.command(out), f"rep{len(reps)}")
        outcome.merge(w.check(out, proc))
        reps.append(proc)
        if time.monotonic() - start + proc.wall_s > seconds:
            break
    setups = w.setup_times(reps)
    print(f"repetitions: {len(reps)}, walls {[round(p.wall_s, 3) for p in reps]}, "
          f"setups {[round(s, 3) for s in setups]}")
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in reps), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in reps), "MB"),
    }
    return outcome, metrics


def run_traced(w: Workload, seed: int, smoke: bool) -> tuple[wl.Outcome, dict]:
    """One untraced and one traced repetition plus single-operation timings."""
    plain_out, traced_out = w.work / f"plain{w.suffix}", w.work / f"traced{w.suffix}"
    spans_path, cli_out = w.work / "spans.json", w.work / "probe.csv"
    plain = w.launch(w.command(plain_out), "plain")
    outcome = w.check(plain_out, plain)
    traced = w.launch(w.traced_command(traced_out, spans_path, cli_out), "traced")
    outcome.merge(w.check(traced_out, traced))
    if w.library:
        expected = wl.expected_probe(w.size)
        outcome.merge(wl.check_pd_curve(cli_out, expected, 0, wl.probe_tolerances(w.size)))
    else:
        cli_out = traced_out

    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    layers = tracing.summarise(spans)
    sim = layers["simulation"]
    metrics = {f"{layer}.self_s": (v["self_s"], "s") for layer, v in layers.items()}
    metrics.update({
        "simulation.calls": (sim["calls"], "count"),
        "simulation.trials": (sim["trials"], "count"),
        "simulation.trials_per_s": (sim["trials"] / sim["inclusive_s"] if sim["inclusive_s"] else 0.0, "trials/s"),
        "simulation.pools_started": (tracing.count(spans, "simulation.pool_start"), "count"),
        "config.load_ms": (1e3 * tracing.total(spans, "config.RunConfig.from_file"), "ms"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
    })
    rows = wl.read_rows(cli_out)
    analytic = sum(1 for r in rows if r.get("source") == "analytic")
    metrics["cli.rows_montecarlo"] = (len(rows) - analytic, "count")
    metrics["cli.rows_analytic"] = (analytic, "count")

    micro = w.launch(python(BENCH / "layers.py", seed, *(["--smoke"] if smoke else [])), "layers")
    for name, value in micro.info().items():
        metrics[name] = (value, _unit(name))
    if w.library:
        bank = bank_slide_rate(plain.info())
    else:  # the same bank from the single-detector rates, for a workload that does not slide
        rates = [metrics[f"detector.slide.{d}_cells_per_s"][0] for d in ("ca", "os", "min", "gm")]
        bank = len(rates) / sum(1.0 / r for r in rates)
    metrics["detector.slide.bank_cells_per_s"] = (bank, "cells/s")
    print(f"spans: {len(spans)}, untraced wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s")
    return outcome, metrics


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_cells_per_s", "cells/s"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 53:
        parser.error("--seed must lie in [0, 2**53), so the config stores it exactly")
    if not (SRC / "cfarkit" / "__init__.py").is_file():
        print(f"bench: no cfarkit source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine_facts()))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spawner = Spawner()
    try:
        w = Workload(args.workload, args.seed, "smoke" if args.smoke else "full", work, spawner)
        if args.trace:
            outcome, metrics = run_traced(w, args.seed, args.smoke)
        else:
            outcome, metrics = run_timed(w, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"z = {wl.Z}; output sha256 {w.digest}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
