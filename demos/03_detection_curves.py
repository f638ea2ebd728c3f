"""Detection curves: Monte Carlo against the closed forms.

Estimates Pd over an SCR grid for cell-averaging and order-statistic
detectors and overlays the closed-form curves, demonstrating agreement
within the binomial error bars.  About a second at these run counts.
"""

import numpy as np

from cfarkit import (
    ClutterModel,
    DetectorSpec,
    ExperimentSpec,
    OrderStatistic,
    Sum,
    ca_pd,
    ca_threshold,
    db_to_linear,
    os_pd,
    os_threshold,
    scr_sweep,
)

N = 32
DESIGN_PFA = 1e-4
RUNS = 200_000

tau_ca = ca_threshold(DESIGN_PFA, N)
tau_os = os_threshold(DESIGN_PFA, N, 31)

experiment = ExperimentSpec(
    detectors=(
        DetectorSpec(Sum(), N, tau_ca),
        DetectorSpec(OrderStatistic(31), N, tau_os),
    ),
    clutter=ClutterModel(1.0),
    scr_grid_db=tuple(np.arange(4.0, 25.0, 4.0)),
    runs=RUNS,
    seed=20260810,
)

ca_curve, os_curve = scr_sweep(experiment, workers=2)

print(f"N = {N}, design Pfa = {DESIGN_PFA:g}, {RUNS} runs per point")
print("scr_db   ca_mc    ca_exact   z     os_mc    os_exact   z")
for (scr_db, ca_est), (_, os_est) in zip(ca_curve.points(), os_curve.points()):
    s = db_to_linear(scr_db)
    ca_exact = ca_pd(tau_ca, s, N)
    os_exact = os_pd(tau_os, s, N, 31)
    z_ca = (ca_est.p_hat - ca_exact) / ca_est.standard_error
    z_os = (os_est.p_hat - os_exact) / os_est.standard_error
    print(
        f"{scr_db:5.1f}  {ca_est.p_hat:.5f}  {ca_exact:.5f}  {z_ca:+5.2f}  "
        f"{os_est.p_hat:.5f}  {os_exact:.5f}  {z_os:+5.2f}"
    )

print("\nEvery |z| should sit well inside 4 (binomial standard errors).")
