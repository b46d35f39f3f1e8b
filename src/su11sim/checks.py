"""Self-verification battery: dual-route identities the simulator must satisfy.

Every check pits an independent closed form or statistical test against the
production code path. The battery is what the CLI `verify` command runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .analysis import benchmarks, error_propagation_variance, fisher_information, quantum_fisher
from .measurement import (
    Outcome,
    detection_asymmetry,
    likelihood,
    make_model,
    outcome_probabilities,
    pair_ratio,
    pmf,
    sample,
    shared_grid_tables,
)
from .posterior import (
    PhaseGrid,
    Posterior,
    density,
    detect_peaks,
    log_step,
    prune_secondary,
    uniform_posterior,
)
from .protocols import MODE_LADDER, MODE_OPTIMAL, ProtocolConfig, run_trial
from .tmsq import OpaParams, build_schmidt_table, pair_amplitude_matrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _table_orthonormality() -> CheckResult:
    worst = 0.0
    for nbar in (2.0, 8.0):
        table = build_schmidt_table(OpaParams.from_mean_photons(nbar), n_max=12)
        gram = table.coeffs.T @ table.coeffs
        defect = float(np.abs(gram - np.eye(13)).max())
        worst = max(worst, defect)
    return _check("table_orthonormality", worst <= 1e-8, f"max Gram defect {worst:.3e}")


def _vacuum_column_closed_form() -> CheckResult:
    params = OpaParams.from_mean_photons(4.0)
    table = build_schmidt_table(params)
    m = np.arange(table.p_max + 1)
    expect = np.tanh(params.squeeze_r) ** m / np.cosh(params.squeeze_r)
    diff = float(np.abs(table.coeffs[:, 0] - expect).max())
    return _check("vacuum_column_closed_form", diff <= 1e-13, f"max column diff {diff:.3e}")


def _pair_distribution_geometric() -> CheckResult:
    worst = 0.0
    for nbar in (2.0, 4.0):
        model = make_model("photon", nbar)
        for u in (0.05, 0.4, 1.1, 2.7):
            amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
            probs = np.abs(amps) ** 2
            v = pair_ratio(model.params, u)
            n = np.arange(model.table.n_max + 1)
            expect = (1.0 - v) * v**n
            worst = max(worst, float(np.abs(probs - expect).max()))
    return _check(
        "pair_distribution_geometric", worst <= 1e-10, f"max |table - geometric| {worst:.3e}"
    )


def _optimal_probabilities_closed_form() -> CheckResult:
    model = make_model("optimal", 4.0)
    worst = 0.0
    for u in (-1.3, -0.2, 0.01, 0.35, 2.0):
        p_plus = likelihood(model, Outcome.plus(), u)
        p_minus = likelihood(model, Outcome.minus(), u)
        v = pair_ratio(model.params, u)
        gap = detection_asymmetry(model.params, u)
        worst = max(
            worst,
            abs(p_plus - 0.5 * (1.0 - v * v - gap)),
            abs(p_minus - 0.5 * (1.0 - v * v + gap)),
        )
    return _check(
        "optimal_probabilities_closed_form", worst <= 1e-12, f"max closed-form gap {worst:.3e}"
    )


def _unit_outcome_mass() -> CheckResult:
    worst = 0.0
    for scheme in ("photon", "optimal"):
        model = make_model(scheme, 4.0)
        for u in (0.0, 0.3, 1.32, 2.9):
            _, probs = pmf(model, u)
            worst = max(worst, abs(1.0 - float(probs.sum())))
    return _check("unit_outcome_mass", worst <= 1e-9, f"max |1 - total mass| {worst:.3e}")


def _fisher_saturates_bound() -> CheckResult:
    model = make_model("optimal", 4.0)
    f0 = fisher_information(model, 0.0)
    qfi = quantum_fisher(4.0)
    rel = abs(f0 - qfi) / qfi
    return _check(
        "fisher_saturates_bound", rel <= 1e-3, f"F(0) = {f0:.6f} vs bound {qfi:.1f}, rel {rel:.2e}"
    )


def _fisher_never_exceeds_bound(fast: bool) -> CheckResult:
    offsets = (0.05, 0.2, 0.5) if fast else tuple(np.linspace(-0.5, 0.5, 21))
    worst = -math.inf
    for scheme in ("photon", "optimal"):
        model = make_model(scheme, 4.0)
        qfi = quantum_fisher(4.0)
        for u in offsets:
            if abs(u) < 1e-9:
                continue
            worst = max(worst, fisher_information(model, u) / qfi)
    return _check(
        "fisher_never_exceeds_bound", worst <= 1.001, f"max F/bound {worst:.6f}"
    )


def _error_propagation_small_offset() -> CheckResult:
    model = make_model("optimal", 4.0)
    var = error_propagation_variance(model, 1e-3, 1000)
    qcrb = benchmarks(1000, 4.0).qcrb
    rel = abs(var / qcrb - 1.0)
    return _check(
        "error_propagation_small_offset",
        rel <= 1e-3,
        f"variance/qcrb - 1 = {rel:.2e} at offset 1e-3",
    )


def _posterior_batch_equivalence() -> CheckResult:
    grid = PhaseGrid(n_points=512)
    model = make_model("photon", 4.0)
    rng = np.random.default_rng(123)
    theta = grid.snap(0.4)
    tables, j = shared_grid_tables(model, grid), grid.index_of(theta)
    rows = [tables.log_row(sample(model, 0.9 - theta, rng), j) for _ in range(12)]
    seq = uniform_posterior(grid).log_weights.copy()
    for row in rows:
        log_step(seq, row)
    batch = uniform_posterior(grid).log_weights.copy()
    log_step(batch, np.sum(rows, axis=0))
    diff = float(np.abs(density(Posterior(grid, seq)) - density(Posterior(grid, batch))).max())
    return _check("posterior_batch_equivalence", diff <= 1e-10, f"max density diff {diff:.3e}")


def _photon_row_evenness() -> CheckResult:
    # separate evaluations at +u and -u: LikelihoodGrid fills its negative
    # offsets by mirroring, so its rows are even by construction
    model = make_model("photon", 4.0)
    u = np.arange(256) * PhaseGrid(n_points=512).spacing
    right = outcome_probabilities(model, u)[:, [0, 1, 3]]
    left = outcome_probabilities(model, -u)[:, [0, 1, 3]]
    worst = float(np.abs(left - right).max())
    return _check("photon_row_evenness", worst <= 1e-14, f"max asymmetry {worst:.3e}")


def _optimal_row_mirror() -> CheckResult:
    model = make_model("optimal", 4.0)
    worst = 0.0
    for u in (0.03, 0.4, 1.5):
        worst = max(
            worst,
            abs(likelihood(model, Outcome.plus(), -u) - likelihood(model, Outcome.minus(), u)),
        )
    return _check("optimal_row_mirror", worst <= 1e-14, f"max mirror defect {worst:.3e}")


def _chi_square_tail(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with integer dof >= 1: the regularized
    upper gamma Q(dof/2, x/2) as a finite sum. For even dof it is
    exp(-h) * sum_{j < dof/2} h^j / j!, with h = x/2; for odd dof,
    erfc(sqrt(h)) plus the terms exp(-h) * h^(a-1) / Gamma(a) for the
    half-integers a = 3/2, ..., dof/2. exp(-h) underflows past x = 1490,
    so the sum reads 0 there, which is right only for dof far below x."""
    h = 0.5 * x
    if dof % 2 == 0:
        tail, term, a = 0.0, math.exp(-h), 1.0
    else:
        tail, term, a = math.erfc(math.sqrt(h)), 2.0 * math.exp(-h) * math.sqrt(h / math.pi), 1.5
    while a <= 0.5 * dof:
        tail += term
        term *= h / a
        a += 1.0
    return tail


def _sampling_matches_pmf(fast: bool) -> CheckResult:
    draws = 4000 if fast else 20000
    model = make_model("photon", 4.0)
    rng = np.random.default_rng(2024)
    u = 0.3
    outcomes, probs = pmf(model, u)
    labels = {o.label(): i for i, o in enumerate(outcomes)}
    counts = np.zeros(len(outcomes) + 1)
    for _ in range(draws):
        o = sample(model, u, rng)
        counts[labels.get(o.label(), len(outcomes))] += 1
    expected = np.append(probs, max(1.0 - probs.sum(), 0.0)) * draws
    # lump every rare bin together so chi-square assumptions hold
    keep = expected > 5.0
    lumped_counts = np.append(counts[keep], counts[~keep].sum())
    lumped_expected = np.append(expected[keep], expected[~keep].sum())
    lumped_expected *= lumped_counts.sum() / lumped_expected.sum()
    # Pearson's statistic and its chi-square upper tail, as scipy.stats.chisquare
    # computes them
    stat = float((((lumped_counts - lumped_expected) ** 2) / lumped_expected).sum())
    pvalue = _chi_square_tail(len(lumped_counts) - 1, stat)
    return _check(
        "sampling_matches_pmf", pvalue > 1e-4, f"chi-square p = {pvalue:.4f} over {draws} draws"
    )


def _replay_determinism() -> CheckResult:
    grid = PhaseGrid(n_points=1024)
    model = make_model("optimal", 4.0)
    cfg = ProtocolConfig(mode=MODE_OPTIMAL, measurements=50, phi_true=0.8)
    a = run_trial(cfg, model, grid, seed=99)
    b = run_trial(cfg, model, grid, seed=99)
    same = a.to_json() == b.to_json()
    return _check("replay_determinism", same, "two runs with one seed serialize identically")


def _ladder_cap_invariant() -> CheckResult:
    grid = PhaseGrid(n_points=1024)
    model = make_model("photon", 4.0)
    cfg = ProtocolConfig(mode=MODE_LADDER, measurements=150, phi_true=1.0, pre_rounds=60)
    rec = run_trial(cfg, model, grid, seed=5)
    prev_map = grid.lo
    worst = -math.inf
    for s in rec.steps[: cfg.pre_rounds]:
        worst = max(worst, s.theta - cfg.ramp_cap_fraction * prev_map)
        prev_map = s.map_estimate
    return _check(
        "ladder_cap_invariant", worst <= 1e-12, f"max theta excess over cap {worst:.3e}"
    )


def _pruning_removes_rival() -> CheckResult:
    grid = PhaseGrid(n_points=512)
    model = make_model("photon", 4.0)
    theta = grid.snap(0.7)
    tables, j = shared_grid_tables(model, grid), grid.index_of(theta)
    log_w = uniform_posterior(grid).log_weights.copy()
    rng = np.random.default_rng(7)
    for _ in range(30):
        log_step(log_w, tables.log_row(sample(model, 1.0 - theta, rng), j))
    post = Posterior(grid, log_w)
    report = detect_peaks(post)
    if report.secondary is None:
        return _check("pruning_removes_rival", False, "setup never went bimodal")
    pruned = prune_secondary(post, report)
    ok = detect_peaks(pruned).secondary is None
    return _check("pruning_removes_rival", ok, "pruned posterior reports no rival peak")


def _benchmark_identities() -> CheckResult:
    b = benchmarks(1000, 4.0)
    ok = (
        abs(b.qcrb * 24000.0 - 1.0) < 1e-12
        and abs(b.heisenberg * 16000.0 - 1.0) < 1e-12
        and abs(b.shot_noise * 4000.0 - 1.0) < 1e-12
        and b.qcrb < b.heisenberg < b.shot_noise
    )
    return _check("benchmark_identities", ok, "bounds at nbar=4, M=1000 and their ordering")


def run_verify(fast: bool = False) -> dict:
    """Run the battery; returns a JSON-ready report with per-check results."""
    checks = [
        _table_orthonormality(),
        _vacuum_column_closed_form(),
        _pair_distribution_geometric(),
        _optimal_probabilities_closed_form(),
        _unit_outcome_mass(),
        _fisher_saturates_bound(),
        _fisher_never_exceeds_bound(fast),
        _error_propagation_small_offset(),
        _posterior_batch_equivalence(),
        _photon_row_evenness(),
        _optimal_row_mirror(),
        _sampling_matches_pmf(fast),
        _replay_determinism(),
        _ladder_cap_invariant(),
        _pruning_removes_rival(),
        _benchmark_identities(),
    ]
    return {
        "schema": "su11sim/verify/v1",
        "version": __version__,
        "fast": fast,
        "passed": all(c.passed for c in checks),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }
