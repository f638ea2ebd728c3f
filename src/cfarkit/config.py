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
from dataclasses import dataclass
from pathlib import Path

from .detector import GeometricMean, Minimum, OrderStatistic, StatKind, Sum

__all__ = ["DetectorRequest", "RunConfig", "parse_key_values"]

# detector token -> its ``stat`` output column and its statistic kind (none for ideal);
# ``min`` is ``os:1`` but keeps its own column, ``min,""`` where ``os:1`` gives ``os,1``
_TOKENS = {
    "ca": ("sum", Sum),
    "os": ("os", OrderStatistic),
    "min": ("min", Minimum),
    "gm": ("gm", GeometricMean),
    "ideal": ("ideal", None),
}


@dataclass(frozen=True)
class DetectorRequest:
    """One detector token from the config: kind plus order-statistic index."""

    kind: str  # "ca" | "os" | "gm" | "min" | "ideal"
    k: int | None = None

    def label(self) -> str:
        return f"os{self.k}" if self.kind == "os" else self.kind

    def stat_columns(self) -> tuple[str, str]:
        """The ``stat`` and ``k`` columns of this detector's output rows."""
        return _TOKENS[self.kind][0], "" if self.k is None else str(self.k)

    def to_stat(self) -> StatKind:
        if self.kind == "os" and self.k is None:
            raise ValueError("detector token 'os' needs an order-statistic index, as in os:<k>")
        kind = _TOKENS.get(self.kind, (None, None))[1]
        if kind is None:
            raise ValueError(f"detector {self.label()!r} has no clutter statistic")
        return kind(self.k) if self.kind == "os" else kind()


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
    try:  # int() keeps an integer literal exact past 2**53; float() reads the 1e6 style
        n = int(value)
    except ValueError:
        try:
            n = float(value)
        except ValueError as exc:
            raise ValueError(f"{key}: expected an integer, got {value!r}") from exc
    if not (n >= 0 and (isinstance(n, int) or n.is_integer())):
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


def _parse_detectors(value: str, key: str) -> tuple[DetectorRequest, ...]:
    requests = []
    for token in (t.strip().lower() for t in value.split(",")):
        if not token:
            continue
        if token in ("ca", "gm", "min", "ideal"):
            requests.append(DetectorRequest(token))
        elif token.startswith("os:"):
            k = _parse_count(token[3:], key)
            if k < 1:
                raise ValueError(f"{key}: order-statistic index must be >= 1, got {token!r}")
            requests.append(DetectorRequest("os", k))
        else:
            raise ValueError(
                f"{key}: unknown token {token!r} (expected ca, os:<k>, gm, min, ideal)"
            )
    if not requests:
        raise ValueError(f"{key}: at least one detector is required")
    return tuple(requests)


def _parse_interference_db(value: str, key: str) -> tuple[float | None, ...]:
    entries: list[float | None] = []
    for token in (t.strip().lower() for t in value.split(",")):
        if not token:
            continue
        entries.append(None if token == "none" else _parse_float(token, key))
    if not entries:
        raise ValueError(f"{key}: empty list")
    return tuple(entries)


def _check_placement(value: str, key: str) -> None:
    if value.strip().lower() != "random":
        raise ValueError(
            f"{key}: only 'random' is accepted, got {value!r}; every statistic is symmetric"
            " in the CRP cells, so placement is immaterial"
        )


def _parse_affected(value: str, key: str) -> tuple[int, ...]:
    counts = _parse_grid(value, key)
    if not all(j.is_integer() for j in counts):
        raise ValueError(f"{key}: expected integer cell counts, got {value!r}")
    return tuple(int(j) for j in counts)


# config key -> (RunConfig field, parser), in parsing order; ``experiment``
# is accepted in every mode and only checked against the requested mode, and
# a key with no field is only checked
_COMMON_FIELDS = {
    "detectors": ("detectors", _parse_detectors),
    "lambda": ("clutter_rate", _parse_float),
    "window": ("window", _parse_count),
    "guard": ("guard", _parse_count),
    "design_pfa": ("design_pfa", _parse_float),
    "runs": ("runs", _parse_count),
    "seed": ("seed", _parse_count),
    "workers": ("workers", _parse_count),
}
_FIELDS_BY_MODE = {
    "pd-curve": {
        **_COMMON_FIELDS,
        "scr_db": ("scr_db", _parse_grid),
        "interference_db": ("interference_db", _parse_interference_db),
        "interference_count": ("interference_count", _parse_count),
        "interference_placement": (None, _check_placement),
    },
    "regulation": {
        **_COMMON_FIELDS,
        "boost_db": ("boost_db", _parse_float),
        "affected": ("affected", _parse_affected),
    },
}
_MODES = tuple(_FIELDS_BY_MODE)


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
        return cls.from_text(Path(path).read_text(encoding="utf-8-sig"), mode)

    @classmethod
    def from_text(cls, text: str, mode: str) -> "RunConfig":
        if mode not in _MODES:
            raise ValueError(f"experiment mode must be one of {_MODES}, got {mode!r}")
        raw = parse_key_values(text)
        declared = raw.get("experiment")
        if declared is not None and declared != mode:
            raise ValueError(f"config declares experiment={declared!r} but {mode!r} was requested")
        fields = _FIELDS_BY_MODE[mode]
        unknown = sorted(set(raw) - set(fields) - {"experiment"})
        if unknown:
            raise ValueError(f"unknown config keys for {mode}: {', '.join(unknown)}")
        if "detectors" not in raw:
            raise ValueError("detectors: key is required")
        kwargs = {
            name: parse(raw[key], key) for key, (name, parse) in fields.items() if key in raw
        }
        kwargs.pop(None, None)
        return cls(mode=mode, **kwargs)
