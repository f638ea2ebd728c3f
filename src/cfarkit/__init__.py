"""Sliding-window CFAR detection toolkit for exponentially distributed clutter.

Building blocks:

- :mod:`cfarkit.stats`: clutter/target models, dB conversions, seeded streams
- :mod:`cfarkit.detector`: window geometry, clutter statistics, threshold test
- :mod:`cfarkit.analytic`: closed-form Pd/Pfa and threshold inversion
- :mod:`cfarkit.simulation`: reproducible Monte Carlo engine
- :mod:`cfarkit.cli`: experiment runner emitting CSV/JSON
"""

from .analytic import (
    SolverSettings,
    ThresholdSolverError,
    ca_pd,
    ca_pfa,
    ca_threshold,
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
    calibrate_threshold_mc,
    estimate_pd,
    pfa_regulation_curve,
    resolve_threshold,
    run_trial,
    scr_sweep,
)
from .stats import (
    ClutterModel,
    RandomStream,
    TargetContext,
    boosted_rate,
    db_to_linear,
    exp_cdf,
    linear_to_db,
    sample_exponential,
    target_rate,
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
    "target_rate",
    "boosted_rate",
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
    "ideal_threshold",
    "ideal_pd",
    "FixedCells",
    "RandomUniform",
    "InterferenceSpec",
    "PdEstimate",
    "RegulationSpec",
    "ExperimentSpec",
    "DetectorCurve",
    "run_trial",
    "estimate_pd",
    "calibrate_threshold_mc",
    "pfa_regulation_curve",
    "scr_sweep",
    "resolve_threshold",
    "__version__",
]
