"""Acceptance gate: one test per shipped performance claim.

Every test prints one ``ACCEPTANCE nn PASS|FAIL`` line (run with ``-s`` to
see the table) and then asserts.  Statistical checks use 4 binomial
standard errors; analytic checks are exact.  The heavy criteria (04, 06,
07) run millions to hundreds of millions of trials and together take a
few minutes.

Criterion 05's second clause (detection probability nondecreasing in the
order-statistic index over {24, 28, 30, 31}) is asserted exactly as
claimed and is expected to FAIL: at matched false-alarm rate the OS
detection probability provably peaks at k = 27 (N = 32, design Pfa 1e-4)
and declines toward k = N.  The assertion is kept rather than weakened;
see the failure message for the verified numbers.
"""

import itertools
import math

from cfarkit.analytic import (
    ca_pd,
    ca_pfa,
    ca_threshold,
    ideal_pd,
    os_pd,
    os_pfa,
    os_threshold,
)
from cfarkit.cli import main
from cfarkit.detector import DetectorSpec, OrderStatistic, Sum
from cfarkit.simulation import (
    InterferenceSpec,
    RegulationSpec,
    estimate_pd,
    pfa_regulation_curve,
)
from cfarkit.stats import ClutterModel, TargetContext, db_to_linear

WORKERS = 2
CLUTTER = ClutterModel(1.0)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")


def binomial_se(p: float, runs: int) -> float:
    return math.sqrt(p * (1.0 - p) / runs)


def test_criterion_01_threshold_reproduction():
    tau = ca_threshold(1e-4, 32)
    ok = abs(tau - 0.3335214322) / 0.3335214322 <= 1e-9
    report(1, ok, "CA threshold at Pfa 1e-4, N=32 reproduces 10**0.125 - 1")
    assert ok, f"ca_threshold(1e-4, 32) = {tau!r}"


def test_criterion_02_inversion_round_trips():
    worst_ca = 0.0
    worst_os = 0.0
    for p, n in itertools.product((1e-2, 1e-4, 1e-6), (8, 16, 32, 64)):
        worst_ca = max(worst_ca, abs(ca_pfa(ca_threshold(p, n), n) - p) / p)
        for k in (n // 2, n - 1, n):
            worst_os = max(worst_os, abs(os_pfa(os_threshold(p, n, k), n, k) - p) / p)
    ok = worst_ca <= 1e-12 and worst_os <= 1e-8
    report(2, ok, f"inversion round trips (CA worst {worst_ca:.1e}, OS worst {worst_os:.1e})")
    assert worst_ca <= 1e-12
    assert worst_os <= 1e-8


def test_criterion_03_exchangeability_oracles():
    err_max = abs(os_pfa(1.0, 4, 4) - 0.2)
    err_min = abs(os_pfa(1.0, 2, 1) - 2.0 / 3.0)
    ok = err_max <= 1e-12 and err_min <= 1e-12
    report(3, ok, "exchangeability identities for extreme order statistics")
    assert ok, (err_max, err_min)


def test_criterion_04_montecarlo_matches_closed_form():
    tau_ca = ca_threshold(1e-4, 32)
    ca = DetectorSpec(Sum(), 32, tau_ca)
    expect_pd = ca_pd(tau_ca, 10.0, 32)  # 0.38449...
    est_pd = estimate_pd(ca, CLUTTER, TargetContext(10.0), None, 10**6, 101, workers=WORKERS)
    pd_ok = abs(est_pd.p_hat - expect_pd) <= 4.0 * binomial_se(expect_pd, est_pd.runs)

    est_ca_fa = estimate_pd(ca, CLUTTER, None, None, 10**7, 102, workers=WORKERS)
    ca_fa_ok = abs(est_ca_fa.p_hat - 1e-4) <= 4.0 * binomial_se(1e-4, est_ca_fa.runs)

    tau_os = os_threshold(1e-4, 32, 31)
    os31 = DetectorSpec(OrderStatistic(31), 32, tau_os)
    est_os_fa = estimate_pd(os31, CLUTTER, None, None, 10**7, 103, workers=WORKERS)
    os_fa_ok = abs(est_os_fa.p_hat - 1e-4) <= 4.0 * binomial_se(1e-4, est_os_fa.runs)

    ok = pd_ok and ca_fa_ok and os_fa_ok
    report(
        4,
        ok,
        f"Monte Carlo vs closed form (Pd {est_pd.p_hat:.5f}~{expect_pd:.5f}, "
        f"Pfa CA {est_ca_fa.p_hat:.2e}, OS {est_os_fa.p_hat:.2e} ~ 1e-4)",
    )
    assert pd_ok, (est_pd.p_hat, expect_pd)
    assert ca_fa_ok, est_ca_fa.p_hat
    assert os_fa_ok, est_os_fa.p_hat


def test_criterion_05_detection_ordering_across_family():
    n, pfa = 32, 1e-4
    ks = (24, 28, 30, 31)
    tau_ca = ca_threshold(pfa, n)
    tau_os = {k: os_threshold(pfa, n, k) for k in ks}
    dominance_ok = True
    monotone_ok = True
    for scr_db in range(0, 31):
        s = db_to_linear(scr_db)
        pd_ca = ca_pd(tau_ca, s, n)
        pd_os = [os_pd(tau_os[k], s, n, k) for k in ks]
        dominance_ok &= all(pd_ca >= p for p in pd_os)
        monotone_ok &= all(b >= a for a, b in zip(pd_os, pd_os[1:]))
    ok = dominance_ok and monotone_ok
    report(5, ok, "CA dominates the OS family; OS Pd nondecreasing over k in {24,28,30,31}")
    assert dominance_ok, "CA fell below an OS detector somewhere on the 0..30 dB grid"
    assert monotone_ok, (
        "matched-Pfa OS detection probability is NOT monotone over k in {24, 28, 30, 31}: "
        "at N=32, Pfa=1e-4 it peaks at k=27 and declines toward k=N "
        "(e.g. at 10 dB SCR: Pd(24)=0.36049, Pd(28)=0.36260, Pd(30)=0.35721, "
        "Pd(31)=0.34923; confirmed by 40-digit arithmetic and 1e7-run Monte Carlo). "
        "The claim is kept as stated and fails honestly; the dominance half above holds."
    )


def _scr_where_pd(closed_form, target_pd: float) -> float:
    """Linear-SCR operating point where a closed-form Pd curve hits target_pd."""
    lo, hi = 0.0, 1.0
    while closed_form(hi) < target_pd:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if closed_form(mid) < target_pd:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_os_more_robust_to_interference():
    n, pfa, runs = 32, 1e-4, 10**6
    tau_ca = ca_threshold(pfa, n)
    tau_os = os_threshold(pfa, n, 31)
    ca = DetectorSpec(Sum(), n, tau_ca)
    os31 = DetectorSpec(OrderStatistic(31), n, tau_os)
    interference = InterferenceSpec(1, 30.0)

    s_ca = _scr_where_pd(lambda s: ca_pd(tau_ca, s, n), 0.9)
    s_os = _scr_where_pd(lambda s: os_pd(tau_os, s, n, 31), 0.9)
    est_ca = estimate_pd(ca, CLUTTER, TargetContext(s_ca), interference, runs, 104,
                         workers=WORKERS)
    est_os = estimate_pd(os31, CLUTTER, TargetContext(s_os), interference, runs, 105,
                         workers=WORKERS)
    loss_ca = 0.9 - est_ca.p_hat
    loss_os = 0.9 - est_os.p_hat
    joint = math.hypot(est_ca.standard_error, est_os.standard_error)
    ok = loss_os < loss_ca - 4.0 * joint
    report(
        6,
        ok,
        f"one 30 dB interferer at the Pd=0.9 point: loss CA {loss_ca:.4f} vs OS {loss_os:.4f}",
    )
    assert ok, (loss_ca, loss_os, joint)


def test_criterion_07_false_alarm_regulation_shape():
    n, pfa, runs, boost = 32, 1e-4, 10**7, 10.0
    reg = RegulationSpec(runs=runs, boost_db=boost)
    se_design = binomial_se(pfa, runs)
    summaries = []
    ok_all = True
    for spec in (
        DetectorSpec(Sum(), n, ca_threshold(pfa, n)),
        DetectorSpec(OrderStatistic(31), n, os_threshold(pfa, n, 31)),
    ):
        curve = dict(pfa_regulation_curve(spec, CLUTTER, reg, 106, workers=WORKERS))
        start_ok = abs(curve[0].p_hat - pfa) <= 4.0 * se_design
        dip_ok = all(curve[j].p_hat <= pfa for j in range(1, n // 2 + 1))
        jump_ok = curve[n // 2 + 1].p_hat > pfa
        return_ok = abs(curve[n].p_hat - pfa) <= 4.0 * se_design
        ok_all &= start_ok and dip_ok and jump_ok and return_ok
        summaries.append(
            f"{type(spec.stat).__name__}: j17={curve[17].p_hat:.2e}, j32={curve[32].p_hat:.2e}"
        )
        assert start_ok, curve[0].p_hat
        assert dip_ok, {j: curve[j].p_hat for j in range(1, 17)}
        assert jump_ok, curve[17].p_hat
        assert return_ok, curve[32].p_hat
    report(7, ok_all, "regulation dips, jumps past midpoint, returns to design: " +
           "; ".join(summaries))


def test_criterion_08_lambda_invariance():
    # the rate cancels from every comparison: one seed gives one estimate at every rate,
    # and that estimate holds the design Pfa
    n, pfa, runs = 32, 1e-2, 10**6
    se_design = binomial_se(pfa, runs)
    ok = True
    details = []
    for seed, spec in (
        (301, DetectorSpec(Sum(), n, ca_threshold(pfa, n))),
        (311, DetectorSpec(OrderStatistic(31), n, os_threshold(pfa, n, 31))),
    ):
        one, *others = [
            estimate_pd(spec, ClutterModel(rate), None, None, runs, seed, workers=WORKERS)
            for rate in (1.0, 0.1, 10.0)
        ]
        ok &= others == [one] * 2 and abs(one.p_hat - pfa) <= 4.0 * se_design
        details.append(",".join(f"{e.p_hat:.5f}" for e in (one, *others)))
    report(8, ok, "empirical Pfa equal over clutter rates 1/0.1/10 and within 4 SE of the"
           f" design ({'; '.join(details)})")
    assert ok, details


def test_criterion_09_ideal_bound_and_convergence():
    pfa = 1e-4
    bound_ok = True
    for scr_db in range(0, 31):
        s = db_to_linear(scr_db)
        bound_ok &= ideal_pd(pfa, s) >= ca_pd(ca_threshold(pfa, 32), s, 32)
    gap_ok = True
    for s in (db_to_linear(0.0), db_to_linear(10.0), db_to_linear(20.0)):
        gaps = [
            ideal_pd(pfa, s) - ca_pd(ca_threshold(pfa, n), s, n)
            for n in (8, 16, 32, 64, 128, 256)
        ]
        gap_ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = bound_ok and gap_ok
    report(9, ok, "ideal detector dominates CA; the gap shrinks strictly with N")
    assert bound_ok
    assert gap_ok


def test_criterion_10_byte_identical_csv_across_workers(tmp_path, capsys):
    curve_cfg = tmp_path / "curve.cfg"
    curve_cfg.write_text(
        "experiment      = pd-curve\n"
        "detectors       = ca, os:31\n"
        "window          = 32\n"
        "design_pfa      = 1e-2\n"
        "scr_db          = 0, 10, 20\n"
        "interference_db = 30\n"
        "runs            = 20000\n"
        "seed            = 20260810\n"
    )
    reg_cfg = tmp_path / "reg.cfg"
    reg_cfg.write_text(
        "experiment = regulation\n"
        "detectors  = ca, os:31\n"
        "window     = 32\n"
        "design_pfa = 1e-2\n"
        "boost_db   = 10\n"
        "affected   = 0, 8, 17, 32\n"
        "runs       = 20000\n"
        "seed       = 20260810\n"
    )
    outputs = {}
    for name, cfg in (("curve", curve_cfg), ("reg", reg_cfg)):
        command = "pd-curve" if name == "curve" else "regulation"
        for workers in (1, 2, 3):
            out_path = tmp_path / f"{name}_{workers}.csv"
            code = main(
                [command, "--config", str(cfg), "--workers", str(workers),
                 "--out", str(out_path)]
            )
            assert code == 0
            outputs[(name, workers)] = out_path.read_bytes()
    ok = (
        outputs[("curve", 1)] == outputs[("curve", 2)] == outputs[("curve", 3)]
        and outputs[("reg", 1)] == outputs[("reg", 2)] == outputs[("reg", 3)]
    )
    report(10, ok, "experiment CSV byte-identical for worker counts 1, 2, 3")
    assert ok
