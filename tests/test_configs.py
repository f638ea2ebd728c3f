"""The shipped experiment configs parse and run end-to-end.

Each study config in configs/ is executed through the CLI with its run
count reduced, checking row structure rather than estimates: full-scale
runs are exercised by the acceptance suite.
"""

import csv
import io
import re
from pathlib import Path

import pytest

from cfarkit.cli import main
from cfarkit.config import RunConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def reduced_copy(name: str, tmp_path, runs: int = 2000) -> str:
    text = (CONFIG_DIR / name).read_text()
    text = re.sub(r"(?m)^runs\s*=.*$", f"runs = {runs}", text)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_to_rows(command: str, config: str, tmp_path) -> list[dict]:
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--workers", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows
    return rows


def test_detection_curves_config(tmp_path):
    cfg = reduced_copy("detection_curves.cfg", tmp_path)
    rows = run_to_rows("pd-curve", cfg, tmp_path)
    # five detectors, 31 grid points, all closed form
    assert len(rows) == 5 * 31
    assert {r["source"] for r in rows} == {"analytic"}
    assert {r["detector"] for r in rows} == {"ca", "os24", "os28", "os30", "os31"}


def test_ca_interference_config(tmp_path):
    cfg = reduced_copy("ca_interference.cfg", tmp_path)
    rows = run_to_rows("pd-curve", cfg, tmp_path)
    labels = {r["detector"] for r in rows}
    # five Monte Carlo curves (one per interference level) plus the ideal bound
    assert labels == {
        "ca+int0dB",
        "ca+int1dB",
        "ca+int10dB",
        "ca+int20dB",
        "ca+int30dB",
        "ideal",
    }
    by_label_source = {(r["detector"], r["source"]) for r in rows}
    assert all(src == "analytic" for lbl, src in by_label_source if lbl == "ideal")
    assert all(src == "montecarlo" for lbl, src in by_label_source if lbl != "ideal")
    assert len(rows) == 6 * 31


def test_os_interference_config(tmp_path):
    cfg = reduced_copy("os_interference.cfg", tmp_path)
    rows = run_to_rows("pd-curve", cfg, tmp_path)
    labels = {r["detector"] for r in rows}
    assert "os31+int30dB" in labels and "ideal" in labels
    assert len(rows) == 6 * 31


def test_false_alarm_regulation_config(tmp_path):
    cfg = reduced_copy("false_alarm_regulation.cfg", tmp_path)
    rows = run_to_rows("regulation", cfg, tmp_path)
    # two detectors over j = 0..32
    assert len(rows) == 2 * 33
    assert {r["detector"] for r in rows} == {"ca", "os31"}
    assert [int(r["affected_cells"]) for r in rows if r["detector"] == "ca"] == list(range(33))


SHIPPED = [
    ("detection_curves.cfg", "pd-curve"),
    ("ca_interference.cfg", "pd-curve"),
    ("os_interference.cfg", "pd-curve"),
    ("false_alarm_regulation.cfg", "regulation"),
]


@pytest.mark.parametrize("name,mode", SHIPPED)
def test_shipped_configs_parse_at_full_scale(name, mode):
    cfg = RunConfig.from_file(CONFIG_DIR / name, mode)
    assert cfg.window == 32 and cfg.design_pfa == 1e-4


@pytest.mark.parametrize("name,mode", SHIPPED)
def test_byte_order_mark_is_ignored(name, mode, tmp_path):
    # an editor may save UTF-8 with a leading BOM; it must not join the first line
    copy = tmp_path / name
    copy.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / name).read_bytes())
    assert RunConfig.from_file(copy, mode) == RunConfig.from_file(CONFIG_DIR / name, mode)
