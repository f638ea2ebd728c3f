"""Tests of the benchmark itself: smoke runs, oracles, and checks that catch errors.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cfarkit  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _cli(config_text: str, tmp_path: Path, tag: str) -> Path:
    cfg, out = tmp_path / f"{tag}.cfg", tmp_path / f"{tag}.csv"
    cfg.write_text(config_text, encoding="utf-8")
    mode = "regulation" if "experiment = regulation" in config_text else "pd-curve"
    subprocess.run(
        [sys.executable, "-m", "cfarkit.cli", mode, "--config", str(cfg), "--out", str(out)],
        cwd=ROOT, env=ENV, check=True, timeout=120,
    )
    return out


# ---------------------------------------------------------------------------
# smoke: every workload end to end at a tiny size, all checks on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    wanted = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "regulation-edge", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------------------
# byte-identical output
# ---------------------------------------------------------------------------


def test_interference_bytes_equal_for_one_and_two_workers(tmp_path):
    one = _cli(wl.interference_config(9, "smoke", workers=1), tmp_path, "w1")
    two = _cli(wl.interference_config(9, "smoke", workers=2), tmp_path, "w2")
    assert one.read_bytes() == two.read_bytes()


# ---------------------------------------------------------------------------
# the checks catch wrong answers
# ---------------------------------------------------------------------------


def test_correct_rows_pass_and_perturbed_threshold_fails(tmp_path):
    out = _cli(wl.regulation_config(4, "smoke"), tmp_path, "reg")
    runs = wl.REGULATION["smoke"]["runs"]
    assert wl.check_regulation(out, wl.expected_regulation("smoke"), runs).failed == 0
    wrong = wl.check_regulation(out, wl.expected_regulation("smoke", tau_scale=1.25), runs)
    assert wrong.failed > 0


def test_flipped_row_fails_and_missing_row_fails(tmp_path):
    out = _cli(wl.interference_config(4, "smoke"), tmp_path, "int")
    expected, runs = wl.expected_interference("smoke"), wl.INTERFERENCE["smoke"]["runs"]
    assert wl.check_pd_curve(out, expected, runs).failed == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    mc = next(i for i, r in enumerate(rows) if r["source"] == "montecarlo")
    rows[mc]["pd_hat"] = repr(1.0 - float(rows[mc]["pd_hat"]))
    flipped = tmp_path / "flipped.csv"
    with open(flipped, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert wl.check_pd_curve(flipped, expected, runs).failed == 1
    with open(flipped, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows[1:])
    assert wl.check_pd_curve(flipped, expected, runs).failed >= 1


def test_flipped_decision_fails():
    profiles = wl.make_profiles(2, 1, 1024)
    taus = {"ca": wl.ca_tau(1e-3), "os24": wl.os_tau(1e-3, 24), "min": wl.min_tau(1e-3), "gm": 14.0}
    stats = {"ca": cfarkit.Sum(), "os24": cfarkit.OrderStatistic(24),
             "min": cfarkit.Minimum(), "gm": cfarkit.GeometricMean()}
    decisions = np.stack([
        np.stack([cfarkit.slide(p, cfarkit.DetectorSpec(stats[name], 32, taus[name], 8)) for p in profiles])
        for name, _, _ in wl.BANK
    ])
    assert wl.check_decisions(decisions, profiles, taus).failed == 0
    decisions[0, 0, 500] = 1 - decisions[0, 0, 500]
    assert wl.check_decisions(decisions, profiles, taus).failed == 1


def test_perturbed_gm_threshold_fails():
    pfa = 1e-3
    taus = {"ca": wl.ca_tau(pfa), "os24": wl.os_tau(pfa, 24), "min": wl.min_tau(pfa),
            "gm": cfarkit.resolve_threshold(cfarkit.GeometricMean(), 32, pfa)}
    assert wl.check_thresholds(taus, pfa, 1 << 16, 3).failed == 0
    taus["gm"] *= 1.2
    assert wl.check_thresholds(taus, pfa, 1 << 16, 3).failed == 1


# ---------------------------------------------------------------------------
# oracles against independent closed forms
# ---------------------------------------------------------------------------


def _os_closed(u: float, n: int, k: int) -> float:
    return math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1)
                    + math.lgamma(u + n - k + 1) - math.lgamma(u + n + 1))


@pytest.mark.parametrize("k", [1, 16, 24, 31, 32])
def test_os_oracle_matches_homogeneous_closed_form(k):
    for u in (0.01, 0.3, 2.0, 40.0):
        assert oracles.os_exceed(u, k, [(32, 1.0)]) == pytest.approx(_os_closed(u, 32, k), rel=1e-8)


def test_two_population_oracles_agree_with_simulation():
    rng = np.random.default_rng(0)
    scales = np.array([1.0] * 28 + [5.0] * 4)
    x = rng.standard_exponential((400_000, 32)) * scales
    u = 0.2
    ca_mc = np.exp(-u * x.sum(axis=1)).mean()
    os_mc = np.exp(-u * np.sort(x, axis=1)[:, 29]).mean()
    assert oracles.ca_exceed(u, scales) == pytest.approx(ca_mc, rel=0.02)
    assert oracles.os_exceed(u, 30, [(28, 1.0), (4, 5.0)]) == pytest.approx(os_mc, rel=0.01)


def test_slide_reference_matches_window_by_window():
    profile = np.random.default_rng(1).standard_exponential(200)
    ref, _ = oracles.slide_reference(profile, "os", 3, 8, 2, 2.0)
    reach = 5
    assert (ref[:reach] == oracles.UNTESTED).all() and (ref[-reach:] == oracles.UNTESTED).all()
    for i in range(reach, profile.size - reach):
        crp = np.concatenate([profile[i - 5:i - 1], profile[i + 2:i + 6]])
        assert ref[i] == int(profile[i] > 2.0 * np.sort(crp)[2])


def test_workload_rows_rarely_fail_by_chance():
    """At Z, sampling alone fails a row of a full run with chance below 1e-7."""
    interference = wl.expected_interference("full")
    mc = [p for key, p in interference.items() if key[1] is not None]
    assert wl.false_failure_rate(mc, wl.INTERFERENCE["full"]["runs"]) < 1e-7
    regulation = wl.expected_regulation("full").values()
    assert wl.false_failure_rate(regulation, wl.REGULATION["full"]["runs"]) < 1e-7
