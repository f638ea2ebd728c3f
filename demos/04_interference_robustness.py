"""Interference robustness: cell averaging vs the order statistic.

Injects a single strong Swerling I interferer into the reference window
and measures the detection loss of each detector at its clean Pd = 0.9
operating point.  The order statistic discards the interferer's cell and
loses almost nothing; the cell average absorbs it and collapses.
About one second at these run counts on a 2-core host.
"""

import math

from cfarkit import (
    ClutterModel,
    DetectorSpec,
    InterferenceSpec,
    OrderStatistic,
    Sum,
    TargetContext,
    ca_pd,
    ca_threshold,
    estimate_pd,
    os_pd,
    os_threshold,
)

N = 32
DESIGN_PFA = 1e-4
RUNS = 300_000

clutter = ClutterModel(1.0)
tau_ca = ca_threshold(DESIGN_PFA, N)
tau_os = os_threshold(DESIGN_PFA, N, 31)
ca = DetectorSpec(Sum(), N, tau_ca)
os31 = DetectorSpec(OrderStatistic(31), N, tau_os)


def scr_for_pd(closed_form, target=0.9):
    lo, hi = 0.0, 1.0
    while closed_form(hi) < target:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if closed_form(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


s_ca = scr_for_pd(lambda s: ca_pd(tau_ca, s, N))
s_os = scr_for_pd(lambda s: os_pd(tau_os, s, N, 31))
print(f"clean Pd = 0.9 at SCR {10*math.log10(s_ca):.2f} dB (ca), "
      f"{10*math.log10(s_os):.2f} dB (os31)")

print("\ninr_db   ca_pd    os_pd    (one interferer in the CRP)")
for inr_db in (0.0, 10.0, 20.0, 30.0):
    interferer = InterferenceSpec(count=1, inr_db=inr_db)
    est_ca = estimate_pd(ca, clutter, TargetContext(s_ca), interferer, RUNS, 51, workers=2)
    est_os = estimate_pd(os31, clutter, TargetContext(s_os), interferer, RUNS, 52, workers=2)
    print(f"{inr_db:5.1f}  {est_ca.p_hat:.5f}  {est_os.p_hat:.5f}")

print("\nThe ca detector's threshold inflates with the interferer power; the")
print("k=31 order statistic ignores the strongest reference cell entirely.")
