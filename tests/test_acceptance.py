"""End-to-end acceptance battery.

One test per release criterion, run at the stated parameters and
tolerances. Each test prints a single ``criterion NN ...: PASS/FAIL``
verdict line with the measured numbers before asserting, so a failing
run still reports every measured quantity in the captured output.

The statistical criteria (07-11) are Monte Carlo runs pinned to master
seed 7; they are deterministic, so a failure here is a property of the
protocol at these parameters, not run-to-run noise.
"""

import math

import numpy as np
import pytest

from su11sim import (
    DEFAULT_MASTER_SEED,
    CampaignConfig,
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    PhaseGrid,
    ProtocolConfig,
    benchmarks,
    make_model,
    run_campaign,
    run_trial,
    scheme_for_mode,
    threshold_scan,
)
from su11sim.analysis import error_propagation_variance, fisher_information
from su11sim.ensemble import derive_seed
from su11sim.measurement import Outcome, Scheme, likelihood, pmf
from su11sim.cli import main as cli_main

MEAN_PHOTON_LADDER = (2.0, 4.0, 6.0, 8.0)


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_benchmark_qcrb():
    got = benchmarks(1000, 4.0).qcrb
    ok = abs(got - 4.1667e-5) <= 1e-9
    line = _verdict(1, "benchmark qcrb arithmetic", ok, f"qcrb={got:.10e}")
    assert ok, line


def test_criterion_02_likelihood_normalization():
    worst = 0.0
    for scheme in (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL):
        for nbar in MEAN_PHOTON_LADDER:
            model = make_model(scheme, nbar)
            for u in np.linspace(-math.pi, math.pi, 101):
                _, probs = pmf(model, float(u))
                worst = max(worst, abs(probs.sum() - 1.0))
    ok = worst < 1e-9
    line = _verdict(2, "likelihood normalization", ok, f"worst |sum-1|={worst:.3e}")
    assert ok, line


def test_criterion_03_schmidt_orthonormality():
    worst = 0.0
    for nbar in MEAN_PHOTON_LADDER:
        table = make_model(Scheme.PHOTON_NUMBER, nbar).table
        block = table.coeffs[:, :11]
        gram = block.T @ block
        worst = max(worst, float(np.abs(gram - np.eye(11)).max()))
    ok = worst < 1e-8
    line = _verdict(3, "schmidt orthonormality", ok, f"worst gram defect={worst:.3e}")
    assert ok, line


def test_criterion_04_brute_force_separability():
    model = make_model(Scheme.PHOTON_NUMBER, 4.0)
    table = model.table
    p = np.arange(table.p_max + 1)
    worst = 0.0
    for u in np.linspace(-math.pi, math.pi, 101):
        cos_mat = np.cos(np.subtract.outer(p, p) * float(u))
        for n in range(11):
            g = table.coeffs[:, 0] * table.coeffs[:, n]
            want = float(g @ cos_mat @ g)
            got = likelihood(model, Outcome.pair(n), float(u))
            worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    line = _verdict(4, "brute force separability", ok, f"worst |diff|={worst:.3e}")
    assert ok, line


def test_criterion_05_fisher_saturation():
    details = []
    ok = True
    for nbar in MEAN_PHOTON_LADDER:
        model = make_model(Scheme.OPTIMAL, nbar)
        target = nbar * (nbar + 2.0)
        at_zero = fisher_information(model, 0.0)
        rel = abs(at_zero - target) / target
        excess = max(
            fisher_information(model, float(u)) / target
            for u in np.linspace(-0.5, 0.5, 101)
        )
        ok = ok and rel <= 1e-3 and excess <= 1.001
        details.append(f"nbar={nbar:.0f}: F(0)/H-1={at_zero / target - 1.0:+.1e} max F/H={excess:.4f}")
    line = _verdict(5, "fisher saturation", ok, "; ".join(details))
    assert ok, line


def test_criterion_06_quadratic_excess_coefficient():
    model = make_model(Scheme.OPTIMAL, 4.0)
    scale = 4.0 * 6.0
    offsets = np.array([s * u for u in (0.005, 0.008, 0.011, 0.014, 0.017, 0.02) for s in (-1, 1)])
    excess = np.array(
        [error_propagation_variance(model, float(u), 1) * scale - 1.0 for u in offsets]
    )
    # least-squares fit of excess = c * u^2 through the origin
    u2 = offsets**2
    coeff = float(u2 @ excess / (u2 @ u2))
    target = 2.0 * 16.0 + 4.0 * 4.0 + 1.0
    ok = abs(coeff - target) / target <= 0.05
    line = _verdict(6, "quadratic excess coefficient", ok, f"fit={coeff:.2f} target={target:.0f}")
    assert ok, line


def test_criterion_07_optimal_ensemble_mse_band():
    config = CampaignConfig(
        protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=1000),
        mean_photons=(4.0,),
        phi_true=(0.25, 0.50, 0.75, 1.00),
        trials=200,
    )
    result = run_campaign(config, workers=2)
    ratios = {c.phi_true: c.mse / c.qcrb for c in result.cells}
    rivals = sum(1 for t in result.trials if t.rival_ratio > 0.0)
    ok = all(0.8 <= r <= 1.6 for r in ratios.values()) and rivals == 0
    detail = (
        "mse/qcrb " + " ".join(f"{phi:.2f}:{r:.3f}" for phi, r in sorted(ratios.items()))
        + f"; trials with rival peak {rivals}/{len(result.trials)}"
    )
    line = _verdict(7, "optimal ensemble mse band", ok, detail)
    assert ok, line


def test_criterion_08_heisenberg_scaling_slope():
    config = CampaignConfig(
        protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=1000),
        mean_photons=MEAN_PHOTON_LADDER,
        phi_true=(0.75,),
        trials=200,
    )
    result = run_campaign(config, workers=2)
    nbars = np.array([c.mean_photons for c in result.cells])
    mses = np.array([c.mse for c in result.cells])
    slope = float(np.polyfit(np.log(nbars), np.log(mses), 1)[0])
    ok = -2.3 <= slope <= -1.7
    line = _verdict(8, "heisenberg scaling slope", ok, f"loglog slope={slope:.4f}")
    assert ok, line


def test_criterion_09_fixed_theta_bimodal():
    config = ProtocolConfig(
        mode=MODE_FIXED, measurements=1000, phi_true=0.75, fixed_theta=0.70
    )
    model = make_model(scheme_for_mode(MODE_FIXED), 4.0)
    grid = PhaseGrid()
    mirror, target = 2 * 0.70 - 0.75, 0.75
    good = 0
    for t in range(50):
        seed = derive_seed(DEFAULT_MASTER_SEED, 0, t)
        rec = run_trial(config, model, grid, seed, keep_steps=False)
        peaks = rec.peaks
        if peaks.secondary is None:
            continue
        low, high = sorted([peaks.primary.location, peaks.secondary.location])
        good += abs(low - mirror) <= 0.02 and abs(high - target) <= 0.02
    ok = good >= 45
    line = _verdict(9, "fixed theta bimodal pathology", ok, f"bimodal near 0.65/0.75 in {good}/50")
    assert ok, line


def test_criterion_10_threshold_scan_trend():
    result = threshold_scan(
        thetas=(0.65, 0.70, 0.74, 0.745),
        phi_true=0.75,
        mean_photons=4.0,
        trials=50,
        max_measurements=1000,
    )
    rows = {row.theta: row for row in result.rows}
    effective = [math.inf if rows[t].median is None else rows[t].median for t in (0.65, 0.70, 0.74, 0.745)]
    ordered = all(a <= b for a, b in zip(effective, effective[1:])) and all(
        a < b for a, b in zip(effective, effective[1:]) if math.isfinite(b)
    )
    low_band = rows[0.65].median is not None and 5 <= rows[0.65].median <= 40
    mid_band = rows[0.70].median is not None and 50 <= rows[0.70].median <= 300
    majority_censored = rows[0.745].censored > rows[0.745].trials // 2
    ok = ordered and low_band and mid_band and majority_censored
    detail = (
        f"medians={[rows[t].median for t in (0.65, 0.70, 0.74, 0.745)]}"
        f" censored={[rows[t].censored for t in (0.65, 0.70, 0.74, 0.745)]}"
        f"; ordered={ordered} low_band={low_band} mid_band={mid_band}"
        f" majority_censored={majority_censored}"
    )
    line = _verdict(10, "threshold scan trend", ok, detail)
    assert ok, line


def test_criterion_11_ladder_endgame():
    config = CampaignConfig(
        protocol=ProtocolConfig(mode=MODE_LADDER, measurements=1000, pre_rounds=100),
        mean_photons=(4.0,),
        phi_true=(0.75,),
        trials=100,
    )
    result = run_campaign(config, workers=2)
    cell = result.cells[0]
    var_ratio = cell.median_posterior_variance / cell.qcrb
    hits = sum(1 for t in result.trials if abs(t.map_estimate - 0.75) <= 0.01)
    ok = var_ratio <= 3.0 and hits >= 90
    detail = f"median var/qcrb={var_ratio:.3f}; map within 0.01 in {hits}/{len(result.trials)}"
    line = _verdict(11, "ladder endgame", ok, detail)
    assert ok, line


def test_criterion_12_byte_identical_reruns(tmp_path, capsys):
    def run_twice(argv_for, names):
        blobs = []
        for tag in ("a", "b"):
            paths = {name: tmp_path / f"{tag}_{name}" for name in names}
            code = cli_main(argv_for(paths))
            capsys.readouterr()
            assert code == 0
            blobs.append({name: paths[name].read_bytes() for name in names})
        return blobs[0] == blobs[1]

    run_ok = run_twice(
        lambda p: [
            "run", "--protocol", "ladder", "--phi-true", "0.75",
            "--mean-photons", "4", "--measurements", "200", "--pre-rounds", "40",
            "--seed", "7", "--out", str(p["trial.json"]),
            "--trajectory-out", str(p["trial.csv"]),
        ],
        ("trial.json", "trial.csv"),
    )
    ensemble_ok = run_twice(
        lambda p: [
            "ensemble", "--protocol", "optimal", "--phi-true", "0.5,0.75",
            "--mean-photons", "4", "--trials", "4", "--measurements", "60",
            "--seed", "7", "--workers", "2", "--out", str(p["campaign.json"]),
            "--cells-csv", str(p["cells.csv"]), "--trials-csv", str(p["trials.csv"]),
        ],
        ("campaign.json", "cells.csv", "trials.csv"),
    )
    ok = run_ok and ensemble_ok
    line = _verdict(12, "byte identical reruns", ok, f"run={run_ok} ensemble={ensemble_ok}")
    assert ok, line
