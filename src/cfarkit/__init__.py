"""Sliding-window CFAR detection toolkit for exponentially distributed clutter.

Building blocks:

- :mod:`cfarkit.stats`: clutter/target models, dB conversions, seeded streams
- :mod:`cfarkit.detector`: window geometry, clutter statistics, threshold test
- :mod:`cfarkit.analytic`: exact Pd/Pfa and threshold inversion
- :mod:`cfarkit.simulation`: reproducible Monte Carlo engine
- :mod:`cfarkit.cli`: experiment runner emitting CSV/JSON

Each public name below loads its submodule on first use, so ``import
cfarkit`` loads no numpy; ``cfarkit.cli`` relies on this to configure
numpy's BLAS before numpy is imported.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE_OF = {
    **dict.fromkeys(
        ("ClutterModel", "TargetContext", "RandomStream", "sample_exponential",
         "db_to_linear", "linear_to_db"),
        "stats"),
    **dict.fromkeys(
        ("Decision", "Sum", "OrderStatistic", "GeometricMean", "Minimum", "StatKind",
         "DetectorSpec", "clutter_statistic", "decide", "slide"),
        "detector"),
    **dict.fromkeys(
        ("ThresholdSolverError", "ca_pd", "ca_pfa", "ca_threshold", "os_pd", "os_pfa",
         "os_threshold", "gm_pd", "gm_pfa", "gm_threshold", "ideal_threshold", "ideal_pd"),
        "analytic"),
    **dict.fromkeys(
        ("InterferenceSpec", "PdEstimate", "RegulationSpec", "ExperimentSpec", "DetectorCurve",
         "estimate_pd", "pfa_regulation_curve", "scr_sweep", "resolve_threshold"),
        "simulation"),
}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first use."""
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
