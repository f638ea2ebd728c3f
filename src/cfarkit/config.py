"""Flat key=value experiment configuration for the command-line runner.

A config file is plain text, one ``key = value`` per line, with ``#``
comments.  Lists are comma separated; numeric grids may be written
``start:stop:step`` (stop included when it lands on the grid).  Detector
tokens are ``ca``, ``os:<k>``, ``gm``, ``min`` (the minimum, ``os:1``) and
``ideal``.

Example::

    # CA against a family of order-statistic detectors
    detectors  = ca, os:24, os:28, os:30, os:31
    window     = 32
    design_pfa = 1e-4
    scr_db     = 0:30:1
    runs       = 1e6
    seed       = 20260810
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .detector import GeometricMean, OrderStatistic, StatKind, Sum
from .simulation import FixedCells, Placement, RandomUniform

__all__ = ["DetectorRequest", "RunConfig", "parse_key_values"]

_MODES = ("pd-curve", "regulation")

_KEYS_COMMON = {
    "experiment",
    "lambda",
    "window",
    "guard",
    "design_pfa",
    "runs",
    "seed",
    "workers",
    "detectors",
}
_KEYS_BY_MODE = {
    "pd-curve": _KEYS_COMMON
    | {"scr_db", "interference_db", "interference_count", "interference_placement"},
    "regulation": _KEYS_COMMON | {"boost_db", "affected"},
}


@dataclass(frozen=True)
class DetectorRequest:
    """One detector token from the config: kind plus order-statistic index."""

    kind: str  # "ca" | "os" | "gm" | "min" | "ideal"
    k: int | None = None

    def label(self) -> str:
        return f"os{self.k}" if self.kind == "os" else self.kind

    def to_stat(self) -> StatKind:
        if self.kind == "ca":
            return Sum()
        if self.kind == "os":
            assert self.k is not None
            return OrderStatistic(self.k)
        if self.kind == "min":
            return OrderStatistic(1)
        if self.kind == "gm":
            return GeometricMean()
        raise ValueError(f"detector {self.label()!r} has no clutter statistic")


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later duplicates win; comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _parse_count(value: str, key: str) -> int:
    try:
        n = float(value)
    except ValueError as exc:
        raise ValueError(f"{key}: expected an integer, got {value!r}") from exc
    if not (n.is_integer() and n >= 0):
        raise ValueError(f"{key}: expected a nonnegative integer, got {value!r}")
    return int(n)


def _parse_float(value: str, key: str) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise ValueError(f"{key}: expected a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ValueError(f"{key}: expected a finite number, got {value!r}")
    return x


def _parse_grid(value: str, key: str) -> tuple[float, ...]:
    """Comma list of numbers, or an inclusive start:stop:step range."""
    if ":" in value:
        parts = value.split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise ValueError(f"{key}: ranges are start:stop or start:stop:step, got {value!r}")
        start, stop, step = (_parse_float(p, key) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"{key}: range must ascend with positive step, got {value!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError(f"{key}: empty list")
    return tuple(_parse_float(v, key) for v in items)


def _parse_detectors(value: str) -> tuple[DetectorRequest, ...]:
    requests = []
    for token in (t.strip().lower() for t in value.split(",")):
        if not token:
            continue
        if token in ("ca", "gm", "min", "ideal"):
            requests.append(DetectorRequest(token))
        elif token.startswith("os:"):
            k = _parse_count(token[3:], "detectors")
            if k < 1:
                raise ValueError(f"detectors: order-statistic index must be >= 1, got {token!r}")
            requests.append(DetectorRequest("os", k))
        else:
            raise ValueError(
                f"detectors: unknown token {token!r} (expected ca, os:<k>, gm, min, ideal)"
            )
    if not requests:
        raise ValueError("detectors: at least one detector is required")
    return tuple(requests)


def _parse_interference_db(value: str) -> tuple[float | None, ...]:
    entries: list[float | None] = []
    for token in (t.strip().lower() for t in value.split(",")):
        if not token:
            continue
        entries.append(None if token == "none" else _parse_float(token, "interference_db"))
    if not entries:
        raise ValueError("interference_db: empty list")
    return tuple(entries)


def _parse_placement(value: str) -> Placement:
    if value.strip().lower() == "random":
        return RandomUniform()
    cells = tuple(_parse_count(v.strip(), "interference_placement") for v in value.split(","))
    return FixedCells(cells)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration (defaults match the shipped studies)."""

    mode: str
    detectors: tuple[DetectorRequest, ...]
    clutter_rate: float = 1.0
    window: int = 32
    guard: int = 8
    design_pfa: float = 1e-4
    runs: int = 1_000_000
    seed: int = 1
    workers: int = 1
    # pd-curve
    scr_db: tuple[float, ...] = ()
    interference_db: tuple[float | None, ...] = (None,)
    interference_count: int = 1
    interference_placement: Placement = field(default_factory=RandomUniform)
    # regulation
    boost_db: float = 10.0
    affected: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"experiment mode must be one of {_MODES}, got {self.mode!r}")
        if self.clutter_rate <= 0:
            raise ValueError(f"lambda: clutter rate must be > 0, got {self.clutter_rate}")
        if not (0.0 < self.design_pfa <= 1.0):
            raise ValueError(f"design_pfa: must lie in (0, 1], got {self.design_pfa}")
        if self.runs < 1:
            raise ValueError(f"runs: must be >= 1, got {self.runs}")
        if self.workers < 1:
            raise ValueError(f"workers: must be >= 1, got {self.workers}")
        if self.mode == "pd-curve" and not self.scr_db:
            raise ValueError("scr_db: pd-curve requires a nonempty SCR grid")
        if self.interference_count < 0:
            raise ValueError(f"interference_count: must be >= 0, got {self.interference_count}")

    @classmethod
    def from_file(cls, path: str | Path, mode: str) -> "RunConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), mode)

    @classmethod
    def from_text(cls, text: str, mode: str) -> "RunConfig":
        if mode not in _MODES:
            raise ValueError(f"experiment mode must be one of {_MODES}, got {mode!r}")
        raw = parse_key_values(text)
        declared = raw.get("experiment")
        if declared is not None and declared != mode:
            raise ValueError(f"config declares experiment={declared!r} but {mode!r} was requested")
        allowed = _KEYS_BY_MODE[mode]
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ValueError(f"unknown config keys for {mode}: {', '.join(unknown)}")

        kwargs: dict = {"mode": mode}
        if "detectors" in raw:
            kwargs["detectors"] = _parse_detectors(raw["detectors"])
        else:
            raise ValueError("detectors: key is required")
        if "lambda" in raw:
            kwargs["clutter_rate"] = _parse_float(raw["lambda"], "lambda")
        if "window" in raw:
            kwargs["window"] = _parse_count(raw["window"], "window")
        if "guard" in raw:
            kwargs["guard"] = _parse_count(raw["guard"], "guard")
        if "design_pfa" in raw:
            kwargs["design_pfa"] = _parse_float(raw["design_pfa"], "design_pfa")
        if "runs" in raw:
            kwargs["runs"] = _parse_count(raw["runs"], "runs")
        if "seed" in raw:
            kwargs["seed"] = _parse_count(raw["seed"], "seed")
        if "workers" in raw:
            kwargs["workers"] = _parse_count(raw["workers"], "workers")
        if mode == "pd-curve":
            if "scr_db" in raw:
                kwargs["scr_db"] = _parse_grid(raw["scr_db"], "scr_db")
            if "interference_db" in raw:
                kwargs["interference_db"] = _parse_interference_db(raw["interference_db"])
            if "interference_count" in raw:
                kwargs["interference_count"] = _parse_count(
                    raw["interference_count"], "interference_count"
                )
            if "interference_placement" in raw:
                kwargs["interference_placement"] = _parse_placement(
                    raw["interference_placement"]
                )
        else:
            if "boost_db" in raw:
                kwargs["boost_db"] = _parse_float(raw["boost_db"], "boost_db")
            if "affected" in raw:
                counts = _parse_grid(raw["affected"], "affected")
                if not all(j.is_integer() for j in counts):
                    raise ValueError(
                        f"affected: expected integer cell counts, got {raw['affected']!r}"
                    )
                kwargs["affected"] = tuple(int(j) for j in counts)
        return cls(**kwargs)
