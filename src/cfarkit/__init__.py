"""Sliding-window CFAR detection toolkit for exponentially distributed clutter.

Building blocks:

- :mod:`cfarkit.stats`: clutter/target models, dB conversions, seeded streams
- :mod:`cfarkit.detector`: window geometry, clutter statistics, threshold test
- :mod:`cfarkit.analytic`: exact Pd/Pfa and threshold inversion
- :mod:`cfarkit.simulation`: reproducible Monte Carlo engine
- :mod:`cfarkit.cli`: experiment runner emitting CSV/JSON
"""

from .analytic import (
    SolverSettings,
    ThresholdSolverError,
    ca_pd,
    ca_pfa,
    ca_threshold,
    gm_pd,
    gm_pfa,
    gm_threshold,
    ideal_pd,
    ideal_threshold,
    os_pd,
    os_pfa,
    os_threshold,
)
from .detector import (
    Decision,
    DetectorSpec,
    GeometricMean,
    Minimum,
    OrderStatistic,
    StatKind,
    Sum,
    clutter_statistic,
    decide,
    slide,
)
from .simulation import (
    DetectorCurve,
    ExperimentSpec,
    FixedCells,
    InterferenceSpec,
    PdEstimate,
    RandomUniform,
    RegulationSpec,
    estimate_pd,
    pfa_regulation_curve,
    resolve_threshold,
    scr_sweep,
)
from .stats import (
    ClutterModel,
    RandomStream,
    TargetContext,
    db_to_linear,
    exp_cdf,
    linear_to_db,
    sample_exponential,
)

__version__ = "0.1.0"

__all__ = [
    "ClutterModel",
    "TargetContext",
    "RandomStream",
    "exp_cdf",
    "sample_exponential",
    "db_to_linear",
    "linear_to_db",
    "Decision",
    "Sum",
    "OrderStatistic",
    "GeometricMean",
    "Minimum",
    "StatKind",
    "DetectorSpec",
    "clutter_statistic",
    "decide",
    "slide",
    "SolverSettings",
    "ThresholdSolverError",
    "ca_pd",
    "ca_pfa",
    "ca_threshold",
    "os_pd",
    "os_pfa",
    "os_threshold",
    "gm_pd",
    "gm_pfa",
    "gm_threshold",
    "ideal_threshold",
    "ideal_pd",
    "FixedCells",
    "RandomUniform",
    "InterferenceSpec",
    "PdEstimate",
    "RegulationSpec",
    "ExperimentSpec",
    "DetectorCurve",
    "estimate_pd",
    "pfa_regulation_curve",
    "scr_sweep",
    "resolve_threshold",
    "__version__",
]
