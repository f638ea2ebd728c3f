"""Command-line interface: subcommands, exit codes, and output contracts."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import pytest

import cfarkit
from cfarkit.analytic import (
    ca_pd,
    ca_threshold,
    gm_pd,
    gm_threshold,
    ideal_pd,
    os_pd,
    os_threshold,
)
from cfarkit import analytic, cli
from cfarkit.cli import main
from cfarkit.config import DetectorRequest, RunConfig
from cfarkit.detector import OrderStatistic
from cfarkit.stats import db_to_linear


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestThresholdCommand:
    def test_ca_design_threshold(self, capsys):
        code, out, _ = run_cli("threshold", "--stat", "ca", "--window", "32",
                               "--pfa", "1e-4", capsys=capsys)
        assert code == 0
        assert out.strip() == "0.333521432"

    def test_unit_pfa_prints_zero(self, capsys):
        code, out, _ = run_cli("threshold", "--stat", "os", "--window", "32", "--k", "31",
                               "--pfa", "1", capsys=capsys)
        assert code == 0
        assert out.strip() == "0.000000000"

    def test_k_out_of_range_fails(self, capsys):
        code, out, err = run_cli("threshold", "--stat", "os", "--window", "32", "--k", "40",
                                 "--pfa", "1e-4", capsys=capsys)
        assert code == 1 and out == "" and "32" in err

    def test_os_without_k_fails(self, capsys):
        code, _, err = run_cli("threshold", "--stat", "os", "--window", "32",
                               "--pfa", "1e-4", capsys=capsys)
        assert code == 1 and "--k" in err

    def test_pfa_out_of_domain_fails(self, capsys):
        code, _, err = run_cli("threshold", "--stat", "ca", "--window", "32",
                               "--pfa", "1.5", capsys=capsys)
        assert code == 1 and err

    @pytest.mark.parametrize("stat", ["ca", "gm", "min"])
    def test_k_rejected_unless_os(self, stat, capsys):
        code, out, err = run_cli("threshold", "--stat", stat, "--window", "32", "--k", "3",
                                 "--pfa", "1e-4", capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"cfarkit: --k applies only to --stat os, not --stat {stat}\n"

    @pytest.mark.parametrize("window, pfa", [(2, "1e-1"), (32, "1e-4"), (1024, "1e-12")])
    def test_min_prints_os_with_k_1(self, window, pfa, capsys):
        common = ("--window", str(window), "--pfa", pfa)
        code, out, _ = run_cli("threshold", "--stat", "min", *common, capsys=capsys)
        assert code == 0
        assert out == run_cli("threshold", "--stat", "os", "--k", "1", *common, capsys=capsys)[1]

    @pytest.mark.parametrize("pfa", ["1e-307", "1e-320"])
    def test_min_overflowing_multiplier_fails(self, pfa, capsys):
        # N (1 - p) / p exceeds the largest double: no finite multiplier to print
        code, out, err = run_cli("threshold", "--stat", "min", "--window", "32",
                                 "--pfa", pfa, capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"cfarkit: minimum-detector multiplier at Pfa {float(pfa)!r}, N=32 overflows\n"

    def test_ca_overflowing_multiplier_fails(self, capsys):
        # 1e-320 ** -1 - 1 exceeds the largest double
        code, out, err = run_cli("threshold", "--stat", "ca", "--window", "1",
                                 "--pfa", "1e-320", capsys=capsys)
        assert code == 1 and out == ""
        assert err == "cfarkit: cell-averaging multiplier at Pfa 1e-320, N=1 overflows\n"

    def test_unknown_stat_fails_with_usage(self, capsys):
        code, _, err = run_cli("threshold", "--stat", "bogus", "--pfa", "0.1", capsys=capsys)
        assert code == 1 and "usage" in err.lower()

    def test_gm_zero_pfa_fails_without_traceback(self, capsys):
        code, out, err = run_cli("threshold", "--stat", "gm", "--window", "4",
                                 "--pfa", "0", capsys=capsys)
        assert code == 1 and out == ""
        assert "design Pfa must lie in (0, 1]" in err and "Traceback" not in err

    def test_solver_failure_exits_2_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr(analytic, "_MAX_EVALUATIONS", 1)
        code, out, err = run_cli("threshold", "--stat", "os", "--window", "32", "--k", "16",
                                 "--pfa", "1e-6", capsys=capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("cfarkit: solver failure: ")

    def test_gm_threshold_is_deterministic(self, capsys):
        code, out, _ = run_cli("threshold", "--stat", "gm", "--window", "32",
                               "--pfa", "1e-3", capsys=capsys)
        assert code == 0 and out.strip() == "14.3163956"
        code, _, err = run_cli("threshold", "--stat", "gm", "--window", "32",
                               "--pfa", "1e-3", "--seed", "1", capsys=capsys)
        assert code == 1 and "usage" in err.lower()


@pytest.fixture
def analytic_config(tmp_path):
    path = tmp_path / "curves.cfg"
    path.write_text(
        "experiment = pd-curve\n"
        "detectors  = ca, os:15, min, ideal\n"
        "window     = 16\n"
        "design_pfa = 1e-3\n"
        "scr_db     = 0:20:10\n"
        "runs       = 1000\n"
        "seed       = 9\n"
    )
    return str(path)


@pytest.fixture
def montecarlo_config(tmp_path):
    path = tmp_path / "mc.cfg"
    path.write_text(
        "experiment      = pd-curve\n"
        "detectors       = ca\n"
        "window          = 16\n"
        "design_pfa      = 1e-2\n"
        "scr_db          = 5, 15\n"
        "interference_db = none, 20\n"
        "runs            = 20000\n"
        "seed            = 9\n"
    )
    return str(path)


class TestPdCurveCommand:
    def test_analytic_rows_match_closed_forms(self, analytic_config, capsys):
        code, out, _ = run_cli("pd-curve", "--config", analytic_config, capsys=capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(
            ("detector", "stat", "k", "scr_db", "pd_hat", "se", "ci_lo", "ci_hi", "runs", "source")
        )
        assert len(rows) == 4 * 3 and all(r[-1] == "analytic" for r in rows)
        tau_ca = ca_threshold(1e-3, 16)
        tau_os = os_threshold(1e-3, 16, 15)
        tau_min = os_threshold(1e-3, 16, 1)
        by_key = {(r[0], float(r[3])): float(r[4]) for r in rows}
        for scr_db in (0.0, 10.0, 20.0):
            s = db_to_linear(scr_db)
            assert by_key[("ca", scr_db)] == ca_pd(tau_ca, s, 16)
            assert by_key[("os15", scr_db)] == os_pd(tau_os, s, 16, 15)
            assert by_key[("ideal", scr_db)] == ideal_pd(1e-3, s)
            assert by_key[("min", scr_db)] == os_pd(tau_min, s, 16, 1)
        assert {tuple(r[:3]) for r in rows if r[0] == "min"} == {("min", "min", "")}

    def test_gm_rows_without_interference_are_analytic(self, tmp_path, capsys):
        path = tmp_path / "gm.cfg"
        path.write_text("detectors = gm\nwindow = 16\ndesign_pfa = 1e-3\nscr_db = 0:20:10\n"
                        "interference_db = none, 20\nruns = 1000\nseed = 9\n")
        code, out, _ = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 0
        _, rows = parse_csv(out)
        tau = gm_threshold(1e-3, 16)
        for r in rows:
            if r[0] == "gm":
                assert r[-1] == "analytic"
                assert float(r[4]) == gm_pd(tau, db_to_linear(float(r[3])), 16)
            else:
                assert r[0] == "gm+int20dB" and r[-1] == "montecarlo"
        assert len(rows) == 2 * 3

    def test_os_k_above_window_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("detectors = os:31\nwindow = 16\nscr_db = 0:10:5\n")
        code, _, err = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 1 and "os31" in err

    def test_missing_scr_grid_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("detectors = ca\nwindow = 16\n")
        code, _, err = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 1 and "scr_db" in err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("detectors = ca\nscr_db = 0:10:5\nbogus_key = 1\n")
        code, _, err = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 1 and "bogus_key" in err

    def test_missing_config_flag(self, capsys):
        code, _, err = run_cli("pd-curve", capsys=capsys)
        assert code == 1 and "--config" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli("pd-curve", "--config", "/nonexistent.cfg", capsys=capsys)
        assert code == 1 and err

    def test_montecarlo_rows_respect_probability_contracts(self, montecarlo_config, capsys):
        code, out, _ = run_cli("pd-curve", "--config", montecarlo_config, capsys=capsys)
        assert code == 0
        _, rows = parse_csv(out)
        sources = {r[0]: r[-1] for r in rows}
        assert sources["ca"] == "analytic"  # closed form, no interference
        assert sources["ca+int20dB"] == "montecarlo"
        for r in rows:
            pd_hat, se, lo, hi = (float(v) for v in r[4:8])
            assert 0.0 <= lo <= pd_hat <= hi <= 1.0
            assert se >= 0.0

    def test_json_format_round_trips(self, montecarlo_config, capsys):
        code, out, _ = run_cli("pd-curve", "--config", montecarlo_config,
                               "--format", "json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "detector"
        assert len(payload["rows"]) == 2 * 2

    def test_seed_override_changes_montecarlo_rows(self, montecarlo_config, capsys):
        _, out_a, _ = run_cli("pd-curve", "--config", montecarlo_config, capsys=capsys)
        _, out_b, _ = run_cli("pd-curve", "--config", montecarlo_config,
                              "--seed", "123", capsys=capsys)
        rows_a = {tuple(r[:4]): r for _, r in enumerate(parse_csv(out_a)[1])}
        rows_b = {tuple(r[:4]): r for _, r in enumerate(parse_csv(out_b)[1])}
        mc_keys = [k for k in rows_a if rows_a[k][-1] == "montecarlo"]
        assert any(rows_a[k] != rows_b[k] for k in mc_keys)
        analytic_keys = [k for k in rows_a if rows_a[k][-1] == "analytic"]
        assert all(rows_a[k] == rows_b[k] for k in analytic_keys)

    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
    def test_config_seed_equals_seed_flag(self, seed, montecarlo_config, tmp_path, capsys):
        # a seed past 2**53 is read exactly from the config, as argparse reads --seed
        path = tmp_path / "seeded.cfg"
        path.write_text(re.sub(r"(?m)^seed\s*=.*$", f"seed = {seed}",
                               Path(montecarlo_config).read_text()))
        code_a, out_a, _ = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        code_b, out_b, _ = run_cli("pd-curve", "--config", montecarlo_config,
                                   "--seed", str(seed), capsys=capsys)
        assert code_a == code_b == 0 and out_a == out_b

    def test_out_flag_writes_file(self, analytic_config, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        code, out, _ = run_cli("pd-curve", "--config", analytic_config,
                               "--out", str(out_path), capsys=capsys)
        assert code == 0 and out == ""
        header, rows = parse_csv(out_path.read_text())
        assert header[0] == "detector" and rows


@pytest.fixture
def regulation_config(tmp_path):
    path = tmp_path / "reg.cfg"
    path.write_text(
        "experiment = regulation\n"
        "detectors  = ca, os:15\n"
        "window     = 16\n"
        "design_pfa = 1e-2\n"
        "boost_db   = 10\n"
        "affected   = 0, 8, 9, 16\n"
        "runs       = 100000\n"
        "seed       = 9\n"
    )
    return str(path)


class TestRegulationCommand:
    def test_columns_and_design_endpoints(self, regulation_config, capsys):
        code, out, _ = run_cli("regulation", "--config", regulation_config, capsys=capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(
            ("detector", "affected_cells", "pfa_hat", "se", "design_pfa", "boost_db", "runs")
        )
        assert len(rows) == 2 * 4
        for r in rows:
            if r[1] in ("0", "16"):  # homogeneous endpoints sit at design Pfa
                pfa_hat, se = float(r[2]), float(r[3])
                assert abs(pfa_hat - 1e-2) <= 4.0 * max(se, 1e-4)

    def test_ideal_detector_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("detectors = ideal\nwindow = 16\nruns = 100\n")
        code, _, err = run_cli("regulation", "--config", str(path), capsys=capsys)
        assert code == 1 and "ideal" in err

    def test_mode_mismatch_detected(self, regulation_config, capsys):
        code, _, err = run_cli("pd-curve", "--config", regulation_config, capsys=capsys)
        assert code == 1 and "regulation" in err

    @pytest.mark.parametrize("affected", ["1.7", "0:2:0.5", "0, 2.5, 4"])
    def test_non_integer_affected_counts_fail(self, affected, tmp_path, capsys):
        path = tmp_path / "frac.cfg"
        path.write_text(f"detectors = ca\nwindow = 16\nruns = 100\naffected = {affected}\n")
        code, out, err = run_cli("regulation", "--config", str(path), capsys=capsys)
        assert code == 1 and out == "" and "affected" in err


class TestJsonOutput:
    @pytest.mark.parametrize("command,config", [("pd-curve", "montecarlo_config"),
                                                ("regulation", "regulation_config")])
    def test_json_rows_equal_csv_rows(self, command, config, request, capsys):
        path = request.getfixturevalue(config)
        _, text, _ = run_cli(command, "--config", path, capsys=capsys)
        code, out, _ = run_cli(command, "--config", path, "--format", "json", capsys=capsys)
        assert code == 0
        header, rows = parse_csv(text)
        payload = json.loads(out)
        assert payload["columns"] == header and len(payload["rows"]) == len(rows)
        for obj, row in zip(payload["rows"], rows):  # same order
            assert list(obj) == header
            for value, cell in zip(obj.values(), row):
                if isinstance(value, float):
                    assert value == float(cell)  # exactly: both are round-trip text
                else:
                    assert str(value) == cell


class TestDecibelOverflow:
    """A dB value whose power ratio overflows a float is a config error, not a traceback."""

    @pytest.mark.parametrize("command, lines", [
        ("regulation", "boost_db = 5000\n"),
        ("pd-curve", "scr_db = 0, 5000\n"),
        ("pd-curve", "scr_db = 0\ninterference_db = 5000\n"),
    ], ids=["boost_db", "scr_db", "interference_db"])
    def test_overflowing_db_fails_with_one_line(self, command, lines, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        path.write_text(f"detectors = ca\nwindow = 16\nruns = 100\n{lines}")
        code, out, err = run_cli(command, "--config", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "5000" in err and "dB" in err


class TestExtremeScales:
    """Scales near the largest double lift cells and CUTs to inf without a warning."""

    @pytest.mark.parametrize("command, lines, rows", [
        ("regulation", "boost_db = 3080\naffected = 0:32:4\n", 3 * 9),
        ("pd-curve", "interference_db = 3080\ninterference_count = 2\nscr_db = 0, 3080\n",
         3 * 2),
    ], ids=["boost_db", "interference_db"])
    def test_no_overflow_warning(self, command, lines, rows, tmp_path, capsys):
        path = tmp_path / "extreme.cfg"
        path.write_text(f"detectors = ca, os:31, gm\nwindow = 32\nruns = 5000\n{lines}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(command, "--config", str(path), capsys=capsys)
        assert code == 0 and err == "" and len(parse_csv(out)[1]) == rows


class TestOutOfMemory:
    """A run too large to hold in memory exits 1 with one line, not a traceback."""

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"],
                             ids=["bare", "numpy"])
    @pytest.mark.parametrize("command, make_rows, lines", [
        ("pd-curve", "_pd_curve_rows", "scr_db = 0\ninterference_db = 5\n"),
        ("regulation", "_regulation_rows", ""),
    ], ids=["pd-curve", "regulation"])
    def test_memory_error_fails_with_one_line(
        self, command, make_rows, lines, message, monkeypatch, tmp_path, capsys
    ):
        def exhausted(cfg):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, make_rows, exhausted)
        path = tmp_path / "big.cfg"
        path.write_text(f"detectors = ca\nwindow = 16\nruns = 100\n{lines}")
        code, out, err = run_cli(command, "--config", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("cfarkit: out of memory")
        assert message in err

    def test_memory_error_releases_what_its_frames_hold(self, monkeypatch, tmp_path, capsys):
        # a run plan that fills memory can fail twice, the second error raised
        # while the first is handled; both tracebacks hold the frame with the plan
        class Plan:
            pass

        plans = []

        def exhausted(cfg):
            plan = Plan()
            plans.append(weakref.ref(plan))
            try:
                raise MemoryError
            except MemoryError:
                raise MemoryError

        def printed(*args, **kwargs):  # the message needs memory: the plan must be gone by then
            freed.append(plans[0]() is None)
            print(*args, **kwargs)

        freed = []
        monkeypatch.setattr(cli, "_regulation_rows", exhausted)
        monkeypatch.setattr(cli, "print", printed, raising=False)
        path = tmp_path / "big.cfg"
        path.write_text("detectors = ca\nwindow = 16\nruns = 100\n")
        code, out, err = run_cli("regulation", "--config", str(path), capsys=capsys)
        assert code == 1 and out == "" and err == "cfarkit: out of memory\n"
        assert freed == [True]


class TestClutterRate:
    """The CFAR rows do not depend on lambda; a lambda whose draws overflow is refused."""

    CONFIG = ("detectors = ca, os:31, gm\nscr_db = 20\ninterference_db = 5\n"
              "runs = 65536\nseed = 3\n")

    def _pd_curve(self, tmp_path, capsys, rate):
        path = tmp_path / "rate.cfg"
        path.write_text(f"{self.CONFIG}lambda = {rate!r}\n")
        return run_cli("pd-curve", "--config", str(path), capsys=capsys)

    @pytest.mark.parametrize("command, lines", [
        ("pd-curve", "scr_db = 20\ninterference_db = 5\n"),
        ("regulation", ""),
    ], ids=["pd-curve", "regulation"])
    @pytest.mark.parametrize("rate", [1e-300, 1e-310])
    def test_tiny_rate_fails_with_one_line(self, command, lines, rate, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(f"detectors = ca\nwindow = 16\nruns = 100\n{lines}lambda = {rate!r}\n")
        code, out, err = run_cli(command, "--config", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "2**-960" in err

    @pytest.mark.parametrize("rate", [2.0**-960, 1.7e308])
    def test_extreme_accepted_rates_print_the_unit_rate_rows(self, rate, tmp_path, capsys):
        code, expected, _ = self._pd_curve(tmp_path, capsys, 1.0)
        assert code == 0
        _, rows = parse_csv(expected)
        assert [r[4] for r in rows] == ["0.8907318115234375", "0.875335693359375",
                                        "0.886993408203125"]
        code, out, _ = self._pd_curve(tmp_path, capsys, rate)
        assert code == 0 and out == expected


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli("verify", capsys=capsys)
        assert code == 0
        assert "properties passed" in out and "FAIL" not in out

    def test_filter_selects_subset(self, capsys):
        code, out, _ = run_cli("verify", "--filter", "scale-invariance", capsys=capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
        assert 1 <= len(lines) <= 2  # scale-invariance and decision-scale-invariance

    def test_unmatched_filter_is_error(self, capsys):
        code, _, err = run_cli("verify", "--filter", "no-such-property", capsys=capsys)
        assert code == 1 and "no-such-property" in err

    def test_every_result_line_carries_its_wall_time(self, monkeypatch, capsys):
        from cfarkit import verify

        def slow():
            time.sleep(0.05)
            return True, "slept"

        registry = dict(verify._REGISTRY)
        monkeypatch.setattr(verify, "_REGISTRY", (
            ("exchangeability", registry["exchangeability"]),
            ("slow", slow),
            ("fails", lambda: (False, "by design")),
            ("raises", lambda: 1 / 0),
        ))
        code, out, _ = run_cli("verify", capsys=capsys)
        *lines, summary = out.splitlines()
        assert code == 3 and summary == "2/4 properties passed"
        times = {}
        for line in lines:
            match = re.fullmatch(r"(\S+) +(PASS|FAIL) +(\d+\.\d{3}) s  .+", line)
            assert match, line
            times[match[1]] = float(match[3])
        assert list(times) == ["exchangeability", "slow", "fails", "raises"]
        assert times["slow"] >= 0.05


class TestConfigParsing:
    def test_grid_expansion_inclusive(self):
        cfg = RunConfig.from_text(
            "detectors = ca\nscr_db = 0:30:10\n", "pd-curve"
        )
        assert cfg.scr_db == (0.0, 10.0, 20.0, 30.0)

    def test_scientific_counts(self):
        cfg = RunConfig.from_text(
            "detectors = ca\nscr_db = 0\nruns = 1e6\n", "pd-curve"
        )
        assert cfg.runs == 1_000_000

    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
    def test_integer_seed_parses_exactly(self, seed):
        cfg = RunConfig.from_text(f"detectors = ca\nscr_db = 0\nseed = {seed}\n", "pd-curve")
        assert cfg.seed == seed

    @pytest.mark.parametrize("runs", ["1.5", "-1"])
    def test_fractional_and_negative_counts_fail(self, runs):
        with pytest.raises(ValueError, match="runs: expected a nonnegative integer"):
            RunConfig.from_text(f"detectors = ca\nscr_db = 0\nruns = {runs}\n", "pd-curve")

    def test_byte_order_mark_before_the_first_key(self, regulation_config, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + Path(regulation_config).read_bytes())
        assert RunConfig.from_file(path, "regulation") == RunConfig.from_file(
            regulation_config, "regulation")

    def test_detector_tokens(self):
        cfg = RunConfig.from_text(
            "detectors = ca, os:24, gm, min, ideal\nscr_db = 0\n", "pd-curve"
        )
        assert [d.label() for d in cfg.detectors] == ["ca", "os24", "gm", "min", "ideal"]

    def test_min_token_is_first_order_statistic(self):
        cfg = RunConfig.from_text("detectors = min\nscr_db = 0\n", "pd-curve")
        (req,) = cfg.detectors
        assert req.to_stat() == OrderStatistic(1) and req.label() == "min"

    @pytest.mark.parametrize("kind, message", [
        ("os", "^detector token 'os' needs an order-statistic index"),
        ("ideal", "^detector 'ideal' has no clutter statistic$"),
    ])
    def test_request_without_a_statistic_is_refused(self, kind, message):
        with pytest.raises(ValueError, match=message):
            DetectorRequest(kind).to_stat()

    def test_interference_none_token(self):
        cfg = RunConfig.from_text(
            "detectors = ca\nscr_db = 0\ninterference_db = none, 1, 10\n", "pd-curve"
        )
        assert cfg.interference_db == (None, 1.0, 10.0)

    def test_zero_interferers_at_a_level_fail_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text("detectors = ca\nscr_db = 0\ninterference_db = 5\ninterference_count = 0\n")
        code, out, err = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "interference_count" in err
        assert "interference_db = none" in err

    def test_zero_interferers_on_a_clean_curve_accepted(self):
        cfg = RunConfig.from_text(
            "detectors = ca\nscr_db = 0\ninterference_db = none\ninterference_count = 0\n",
            "pd-curve",
        )
        assert cfg.interference_count == 0

    def test_random_placement_accepted(self):
        cfg = RunConfig.from_text(
            "detectors = ca\nscr_db = 0\ninterference_placement = random\n", "pd-curve"
        )
        assert cfg == RunConfig.from_text("detectors = ca\nscr_db = 0\n", "pd-curve")

    def test_listed_placement_fails_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "cells.cfg"
        path.write_text("detectors = ca\nscr_db = 0\ninterference_placement = 1, 5\n")
        code, out, err = run_cli("pd-curve", "--config", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "interference_placement" in err and "immaterial" in err

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            RunConfig.from_text("detectors = ca\nnot a pair\n", "pd-curve")


class TestImportCost:
    """Import side effects, each seen in a fresh interpreter: pytest's own
    process may already hold numpy, the pool, or the BLAS variable."""

    # prints the BLAS variable as numpy is first looked up, i.e. before it loads
    PROBE = (
        "import os, sys\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Probe())\n"
    )

    @staticmethod
    def _env(blas=None):
        src = str(Path(cfarkit.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        return env

    def _fresh(self, *args, blas=None):
        return subprocess.run([sys.executable, *args], env=self._env(blas), capture_output=True,
                              text=True, check=True).stdout

    def test_pool_and_verify_load_only_when_used(self):
        code = ("import sys, cfarkit, cfarkit.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
                "'cfarkit.verify') if m in sys.modules])")
        assert self._fresh("-c", code).strip() == "[]"

    def test_one_worker_monte_carlo_loads_no_pool(self, tmp_path):
        cfg, out = tmp_path / "mc.cfg", tmp_path / "mc.csv"
        cfg.write_text("detectors = ca\nscr_db = 0, 10\ninterference_db = 5\nruns = 70000\n"
                       "workers = 1\n")
        code = ("import sys, cfarkit.cli; cfg, out = sys.argv[1:]; "
                "code = cfarkit.cli.main(['pd-curve', '--config', cfg, '--out', out]); "
                "print(code, [m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules])")
        assert self._fresh("-c", code, str(cfg), str(out)).strip() == "0 []"
        assert out.read_text().count(",montecarlo") == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_edge_sweep_loads_no_masked_arrays(self, workers, tmp_path):
        cfg, out = tmp_path / "edge.cfg", tmp_path / "edge.csv"
        # both CUT-scale groups (a count above N/2 boosts the CUT), every statistic kind
        cfg.write_text("detectors = ca, os:15, min, gm\nwindow = 16\ndesign_pfa = 1e-2\n"
                       f"boost_db = 10\naffected = 9, 0, 16\nruns = 20000\nworkers = {workers}\n")
        # -X importtime reports each first import, a forked pool worker's too; numpy 1.x
        # loads numpy.ma with numpy itself, so only imports after the marker count
        code = ("import sys, numpy; print('numpy loaded', file=sys.stderr, flush=True); "
                "import cfarkit.cli; sys.exit(cfarkit.cli.main(sys.argv[1:]))")
        run = subprocess.run([sys.executable, "-X", "importtime", "-c", code, "regulation",
                              "--config", str(cfg), "--out", str(out)], env=self._env(),
                             capture_output=True, text=True, check=True)
        after = run.stderr.split("numpy loaded\n", 1)[1]
        assert "cfarkit.simulation" in after and not re.search(r"\bnumpy\.ma\b", after)
        assert len(out.read_text().splitlines()) == 1 + 4 * 3

    @pytest.mark.parametrize("argv", [
        ["threshold", "--stat", "gm", "--pfa", "1e-4"],
        ["pd-curve", "--config", str(Path(__file__).resolve().parents[1] / "configs"
                                     / "detection_curves.cfg")],
    ], ids=["threshold", "analytic-pd-curve"])
    def test_analytic_runs_load_no_engine(self, argv):
        code = ("import io, sys, contextlib, cfarkit.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "    code = cfarkit.cli.main(sys.argv[1:])\n"
                "print(code, out.getvalue().count('montecarlo'),\n"
                "      'cfarkit.simulation' in sys.modules)\n")
        assert self._fresh("-c", code, *argv).split() == ["0", "0", "False"]

    def test_resolving_a_threshold_loads_no_engine(self):
        code = ("import sys, cfarkit; cfarkit.resolve_threshold(cfarkit.Minimum(), 32, 1e-4); "
                "print([m for m in ('cfarkit.simulation', 'cfarkit.stats') if m in sys.modules])")
        assert self._fresh("-c", code).strip() == "[]"

    def test_package_import_loads_no_numpy(self):
        code = "import sys, cfarkit; print('numpy' in sys.modules, cfarkit.__version__)"
        assert self._fresh("-c", code).split() == ["False", cfarkit.__version__]

    def test_cli_pins_blas_to_one_thread_before_numpy_loads(self):
        code = self.PROBE + (
            "import cfarkit.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "tasks = '/proc/self/task'\n"
            "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n"
        )
        # set before numpy loads, still set after, and the process has one thread
        assert self._fresh("-c", code).split() == ["1", "1", "1"]

    def test_user_blas_setting_wins(self):
        code = self.PROBE + "import cfarkit.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert self._fresh("-c", code, blas="3").split() == ["3", "3"]

    def test_library_import_leaves_blas_alone(self):
        code = self.PROBE + "import cfarkit\ncfarkit.ca_pd\n"
        assert self._fresh("-c", code).split() == ["None"]

    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from cfarkit import *", namespace)
        for name in cfarkit.__all__:
            assert namespace[name] is getattr(cfarkit, name)
        assert set(cfarkit.__all__) <= set(dir(cfarkit))
        with pytest.raises(AttributeError, match="no_such_name"):
            cfarkit.no_such_name

    @pytest.mark.parametrize("command, config", [
        ("pd-curve", "montecarlo_config"),
        ("regulation", "regulation_config"),
    ])
    def test_csv_is_independent_of_blas_threads(self, command, config, request):
        args = ("-m", "cfarkit.cli", command, "--config", request.getfixturevalue(config),
                "--workers", "2")
        unset = self._fresh(*args)
        assert unset and self._fresh(*args, blas="2") == unset


class TestRunPlan:
    CONFIGS = {
        "pd-curve": "detectors = ca, os:15\nscr_db = 0, 10\ninterference_db = 5, 15\n",
        "regulation": "detectors = ca, os:15\naffected = 0, 9, 16\n",
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_one_pool_per_run_and_identical_bytes(self, command, tmp_path, pools_started):
        cfg = tmp_path / "run.cfg"
        # 65,536 + 4,464 trials: every point has two unequal blocks
        cfg.write_text(f"experiment = {command}\nwindow = 16\ndesign_pfa = 1e-2\n"
                       f"runs = 70000\nseed = 9\n{self.CONFIGS[command]}")
        outputs = []
        for workers, pools in ((1, 0), (2, 1), (3, 1)):
            pools_started.clear()
            out = tmp_path / f"w{workers}.csv"
            assert main([command, "--config", str(cfg), "--workers", str(workers),
                         "--out", str(out)]) == 0
            assert len(pools_started) == pools, workers
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
