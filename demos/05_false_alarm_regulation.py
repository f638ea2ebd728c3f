"""False-alarm regulation across a clutter-power edge.

Sweeps a 10 dB clutter-power transition across the window cell by cell and
tracks the resultant false-alarm rate of both detectors.  While only
reference cells are affected the threshold inflates and the Pfa dips; once
the edge passes the window midpoint the cell under test itself sits in hot
clutter and the Pfa jumps above design, returning to design at full
saturation (the CFAR property is power-invariant).  A few seconds at
these run counts.
"""

from cfarkit import (
    ClutterModel,
    DetectorSpec,
    OrderStatistic,
    RegulationSpec,
    Sum,
    ca_threshold,
    os_threshold,
    pfa_regulation_curve,
)

N = 32
DESIGN_PFA = 1e-3
RUNS = 400_000

clutter = ClutterModel(1.0)
reg = RegulationSpec(runs=RUNS, boost_db=10.0)

curves = {}
for name, spec in (
    ("ca", DetectorSpec(Sum(), N, ca_threshold(DESIGN_PFA, N))),
    ("os31", DetectorSpec(OrderStatistic(31), N, os_threshold(DESIGN_PFA, N, 31))),
):
    curves[name] = dict(pfa_regulation_curve(spec, clutter, reg, 61, workers=2))

print(f"design Pfa = {DESIGN_PFA:g}, boost = 10 dB, {RUNS} runs per point")
print("affected   ca_pfa      os_pfa")
for j in (0, 1, 2, 4, 8, 12, 16, 17, 20, 24, 28, 32):
    ca_p = curves["ca"][j].p_hat
    os_p = curves["os31"][j].p_hat
    marker = "  <- CUT now in hot clutter" if j == N // 2 + 1 else ""
    print(f"{j:8d}  {ca_p:.2e}  {os_p:.2e}{marker}")
