"""Command-line experiment runner.

Subcommands::

    threshold    solve the multiplier for a detector and design Pfa
    pd-curve     detection-probability curves over an SCR grid (CSV/JSON)
    regulation   false-alarm regulation under a clutter-power edge (CSV/JSON)
    verify       run the invariant self-checks and report a table

Exit codes: 0 success, 1 validation error (or out of memory), 2 solver
failure, 3 verification failure.  Output is deterministic: a config
rerun with the same seed is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

# The CLI makes no BLAS call, so OpenBLAS's helper threads, started when numpy
# loads (and inherited by forked pool workers), would only spin.  A value the
# user has set wins.  This must run before the first import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .analytic import ThresholdSolverError, ideal_pd
from .config import DetectorRequest, RunConfig
from .detector import DetectorSpec, resolve_threshold
from .simulation import (
    InterferenceSpec,
    RegulationSpec,
    _detection_batch,
    _point_estimates,
    _regulation_points,
)
from .stats import ClutterModel, RandomStream, TargetContext, db_to_linear

__all__ = ["main", "console_main"]

PD_CURVE_COLUMNS = (
    "detector",
    "stat",
    "k",
    "scr_db",
    "pd_hat",
    "se",
    "ci_lo",
    "ci_hi",
    "runs",
    "source",
)
REGULATION_COLUMNS = (
    "detector",
    "affected_cells",
    "pfa_hat",
    "se",
    "design_pfa",
    "boost_db",
    "runs",
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _format_sig9(value: float) -> str:
    if value == 0.0:
        return "0.000000000"
    return np.format_float_positional(value, precision=9, unique=False, fractional=False)


def _cell(value) -> str:
    """Shortest round-trip text for a cell value."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_rows(columns: tuple[str, ...], rows: list[list], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {"columns": list(columns), "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _resolve(req: DetectorRequest, cfg: RunConfig) -> DetectorSpec:
    stat = req.to_stat()
    try:
        tau = resolve_threshold(stat, cfg.window, cfg.design_pfa)
    except ValueError as exc:
        raise ValueError(f"detector {req.label()!r}: {exc}") from exc
    return DetectorSpec(stat, cfg.window, tau, cfg.guard)


def _cmd_threshold(args) -> int:
    if args.stat == "os" and args.k is None:
        raise ValueError("--k is required for --stat os")
    if args.stat != "os" and args.k is not None:
        raise ValueError(f"--k applies only to --stat os, not --stat {args.stat}")
    req = DetectorRequest(args.stat, args.k)
    print(_format_sig9(resolve_threshold(req.to_stat(), args.window, args.pfa)))
    return 0


def _pd_curve_rows(cfg: RunConfig) -> list[list]:
    clutter = ClutterModel(cfg.clutter_rate)
    base = RandomStream(cfg.seed)
    targets = [TargetContext.from_db(scr_db) for scr_db in cfg.scr_db]
    rows: list[list] = []
    pending, batches = [], []  # Monte Carlo rows, completed from one call below
    for d_index, req in enumerate(cfg.detectors):
        stat_name, k_text = req.stat_columns()
        if req.kind == "ideal":
            # fixed-threshold bound: analytic, unaffected by CRP interference
            exact, levels = (lambda s: ideal_pd(cfg.design_pfa, s)), (None,)
        else:
            # exact Pd in a clean CRP
            spec = _resolve(req, cfg)
            exact = lambda s: spec.stat.pd(spec.threshold_multiplier, s, spec.window_length)
            levels = cfg.interference_db
        for i_index, inr_db in enumerate(levels):
            label = req.label() if inr_db is None else f"{req.label()}+int{inr_db:g}dB"
            if inr_db is None:
                for scr_db in cfg.scr_db:
                    pd = exact(db_to_linear(scr_db))
                    rows.append(
                        [label, stat_name, k_text, scr_db, pd, 0.0, pd, pd, 0, "analytic"]
                    )
                continue
            batches.append(_detection_batch(
                spec, clutter, targets, InterferenceSpec(cfg.interference_count, inr_db),
                cfg.runs, base.substream(d_index, *spec.stream_key(), i_index),
            ))
            curve = [[label, stat_name, k_text, scr_db] for scr_db in cfg.scr_db]
            rows += curve
            pending += curve
    for row, est in zip(pending, _point_estimates(batches, cfg.workers)):
        row += [est.p_hat, est.standard_error, *est.ci(), est.runs, "montecarlo"]
    return rows


def _cmd_pd_curve(args) -> int:
    cfg = _load_config(args, "pd-curve")
    _emit_rows(PD_CURVE_COLUMNS, _pd_curve_rows(cfg), args.format, args.out)
    return 0


def _regulation_rows(cfg: RunConfig) -> list[list]:
    clutter = ClutterModel(cfg.clutter_rate)
    base = RandomStream(cfg.seed)
    reg = RegulationSpec(runs=cfg.runs, boost_db=cfg.boost_db, affected_counts=cfg.affected)
    rows: list[list] = []
    batches = []
    for d_index, req in enumerate(cfg.detectors):
        if req.kind == "ideal":
            raise ValueError("detector 'ideal': regulation applies to adaptive detectors only")
        spec = _resolve(req, cfg)
        batch = _regulation_points(spec, clutter, reg, base.substream(d_index))
        rows += [[req.label(), j] for j in batch.counts]
        batches.append(batch)
    for row, est in zip(rows, _point_estimates(batches, cfg.workers)):
        row += [est.p_hat, est.standard_error, cfg.design_pfa, cfg.boost_db, est.runs]
    return rows


def _cmd_regulation(args) -> int:
    cfg = _load_config(args, "regulation")
    _emit_rows(REGULATION_COLUMNS, _regulation_rows(cfg), args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_properties  # imported here: no other subcommand needs it

    results = run_properties(args.filter)
    if not results:
        print(f"no properties match filter {args.filter!r}", file=sys.stderr)
        return 1
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.name:<{width}}  {status}  {r.seconds:7.3f} s  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 3


def _load_config(args, mode: str) -> RunConfig:
    if args.config is None:
        raise ValueError(f"{mode} requires --config PATH")
    cfg = RunConfig.from_file(args.config, mode)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfarkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="solve the threshold multiplier")
    p_thr.add_argument("--stat", choices=("ca", "os", "gm", "min"), required=True)
    p_thr.add_argument("--window", type=int, default=32)
    p_thr.add_argument("--k", type=int, default=None)
    p_thr.add_argument("--pfa", type=float, required=True)
    p_thr.set_defaults(func=_cmd_threshold)

    for name, func in (("pd-curve", _cmd_pd_curve), ("regulation", _cmd_regulation)):
        p = sub.add_parser(name, help=f"run a {name} experiment from a config file")
        p.add_argument("--config", required=False, default=None)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override config workers")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)

    p_ver = sub.add_parser("verify", help="run invariant self-checks")
    p_ver.add_argument("--filter", default=None, help="substring filter on property names")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # remapped usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ThresholdSolverError as exc:
        print(f"cfarkit: solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"cfarkit: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or a run plan too large to hold
        # drop the frames of this error and of those it arose from: they hold what filled memory
        exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        print(f"cfarkit: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
