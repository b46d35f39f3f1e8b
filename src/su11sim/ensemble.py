"""Seeded trial ensembles over (phi_true, mean_photons) cells.

Every trial's seed is derived by avalanche mixing (master seed, cell index,
trial index), so any single trial can be replayed in isolation and results
never depend on execution order or worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

from .analysis import benchmarks
from .errors import CampaignError, SU11Error
from .measurement import POLICY_EXACT_TAIL, make_model, shared_grid_tables
from .posterior import PhaseGrid
from .protocols import MODE_FIXED, ProtocolConfig, run_trials, scheme_for_mode

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps this name at this import site.
from .protocols import run_trial  # noqa: F401

DEFAULT_MASTER_SEED = 7
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOOTSTRAP_SLOT = (1 << 63) - 1
_BOOTSTRAP_RESAMPLES = 1000
_MAX_FAILURE_FRACTION = 0.01


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Per-trial seed from chained 64-bit avalanche mixing of the three indices."""
    h = _splitmix64(master_seed & _MASK64)
    h = _splitmix64(h ^ (cell_index & _MASK64))
    h = _splitmix64(h ^ (trial_index & _MASK64))
    return h


@dataclass(frozen=True)
class CampaignConfig:
    """A protocol template swept over phase/photon-number cells.

    protocol.phi_true is filled in per cell; cells are ordered phi_true
    outer, mean_photons inner, and numbered from zero in that order.
    """

    protocol: ProtocolConfig
    mean_photons: tuple[float, ...]
    phi_true: tuple[float, ...]
    trials: int
    master_seed: int = DEFAULT_MASTER_SEED
    grid: PhaseGrid = field(default_factory=PhaseGrid)
    tail_tol: float = 1e-12
    n_max: int = 16
    residual_policy: str = POLICY_EXACT_TAIL
    label: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not self.mean_photons or not all(
            math.isfinite(n) and n > 0 for n in self.mean_photons
        ):
            raise ValueError("mean_photons must be a nonempty tuple of positive numbers")
        if not self.phi_true or not all(math.isfinite(p) for p in self.phi_true):
            raise ValueError("phi_true must be a nonempty tuple of finite phases")

    def cells(self) -> list[tuple[int, float, float]]:
        return [
            (i, phi, nbar)
            for i, (phi, nbar) in enumerate(product(self.phi_true, self.mean_photons))
        ]

    def to_dict(self) -> dict:
        return {
            "protocol": asdict(self.protocol),
            "mean_photons": list(self.mean_photons),
            "phi_true": list(self.phi_true),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "grid": {"lo": self.grid.lo, "hi": self.grid.hi, "n_points": self.grid.n_points},
            "tail_tol": self.tail_tol,
            "n_max": self.n_max,
            "residual_policy": self.residual_policy,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        grid = d.get("grid", {})
        return cls(
            protocol=ProtocolConfig(**d["protocol"]),
            mean_photons=tuple(d["mean_photons"]),
            phi_true=tuple(d["phi_true"]),
            trials=d["trials"],
            master_seed=d.get("master_seed", DEFAULT_MASTER_SEED),
            grid=PhaseGrid(
                lo=grid.get("lo", 0.0),
                hi=grid.get("hi", math.pi),
                n_points=grid.get("n_points", 4096),
            ),
            tail_tol=d.get("tail_tol", 1e-12),
            n_max=d.get("n_max", 16),
            residual_policy=d.get("residual_policy", POLICY_EXACT_TAIL),
            label=d.get("label", ""),
        )


@dataclass(frozen=True)
class TrialSummary:
    cell_index: int
    phi_true: float
    mean_photons: float
    trial_index: int
    seed: int
    estimate: float
    map_estimate: float
    posterior_variance: float
    m_threshold: int | None
    rival_ratio: float
    pruned: bool
    edge_mass: bool


@dataclass(frozen=True)
class TrialFailure:
    cell_index: int
    trial_index: int
    seed: int
    message: str


@dataclass(frozen=True)
class CellStats:
    """Ensemble statistics of one (phi_true, mean_photons) cell.

    estimate is the posterior mean; errors are against the grid-snapped
    phi_true. The MSE confidence interval is a 95% bootstrap percentile
    interval with a dedicated, reproducible resampling seed.
    """

    cell_index: int
    phi_true: float
    phi_true_snapped: float
    mean_photons: float
    trials: int
    failures: int
    mse: float
    mse_ci_low: float
    mse_ci_high: float
    bias: float
    mean_posterior_variance: float
    median_posterior_variance: float
    qcrb: float
    heisenberg: float
    shot_noise: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    cells: tuple[CellStats, ...]
    trials: tuple[TrialSummary, ...]
    failures: tuple[TrialFailure, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "su11sim/campaign/v1",
            "config": self.config.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "failures": [asdict(f) for f in self.failures],
        }


def _run_cell(config: CampaignConfig, cell_index: int, phi: float, nbar: float):
    scheme = scheme_for_mode(config.protocol.mode)
    model = make_model(
        scheme,
        nbar,
        tail_tol=config.tail_tol,
        n_max=config.n_max,
        residual_policy=config.residual_policy,
    )
    tables = shared_grid_tables(model, config.grid)
    cell_cfg = replace(config.protocol, phi_true=phi)
    summaries: list[TrialSummary] = []
    failures: list[TrialFailure] = []
    records = []
    seeds = [derive_seed(config.master_seed, cell_index, t) for t in range(config.trials)]
    results = run_trials(cell_cfg, model, config.grid, seeds, tables=tables)
    for t, (seed, rec) in enumerate(zip(seeds, results)):
        if isinstance(rec, SU11Error):
            failures.append(
                TrialFailure(cell_index=cell_index, trial_index=t, seed=seed, message=str(rec))
            )
            continue
        records.append(rec)
        summaries.append(
            TrialSummary(
                cell_index=cell_index,
                phi_true=rec.phi_true,
                mean_photons=nbar,
                trial_index=t,
                seed=seed,
                estimate=rec.final_mean,
                map_estimate=rec.final_map,
                posterior_variance=rec.final_variance,
                m_threshold=rec.m_threshold,
                rival_ratio=(
                    0.0
                    if rec.peaks.secondary is None
                    else rec.peaks.secondary.height / rec.peaks.primary.height
                ),
                pruned=rec.pruned,
                edge_mass=rec.edge_mass,
            )
        )
    stats = _cell_stats(config, cell_index, phi, nbar, records, len(failures))
    return stats, summaries, failures


def _cell_stats(config, cell_index, phi, nbar, records, n_failures) -> CellStats:
    bench = benchmarks(config.protocol.measurements, nbar)
    if not records:
        nan = float("nan")
        return CellStats(
            cell_index=cell_index,
            phi_true=phi,
            phi_true_snapped=config.grid.snap(phi),
            mean_photons=nbar,
            trials=config.trials,
            failures=n_failures,
            mse=nan,
            mse_ci_low=nan,
            mse_ci_high=nan,
            bias=nan,
            mean_posterior_variance=nan,
            median_posterior_variance=nan,
            qcrb=bench.qcrb,
            heisenberg=bench.heisenberg,
            shot_noise=bench.shot_noise,
        )
    err = np.array([r.final_mean - r.phi_true for r in records])
    post_var = np.array([r.final_variance for r in records])
    sq = err * err
    brng = np.random.default_rng(
        derive_seed(config.master_seed, cell_index, _BOOTSTRAP_SLOT)
    )
    idx = brng.integers(0, len(sq), size=(_BOOTSTRAP_RESAMPLES, len(sq)))
    boot = sq[idx].mean(axis=1)
    ci_low, ci_high = np.percentile(boot, [2.5, 97.5])
    return CellStats(
        cell_index=cell_index,
        phi_true=phi,
        phi_true_snapped=records[0].phi_true,
        mean_photons=nbar,
        trials=config.trials,
        failures=n_failures,
        mse=float(sq.mean()),
        mse_ci_low=float(ci_low),
        mse_ci_high=float(ci_high),
        bias=float(err.mean()),
        mean_posterior_variance=float(post_var.mean()),
        median_posterior_variance=float(np.median(post_var)),
        qcrb=bench.qcrb,
        heisenberg=bench.heisenberg,
        shot_noise=bench.shot_noise,
    )


def _run_cell_args(args):
    return _run_cell(*args)


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignResult:
    """Run every cell of the campaign; deterministic for any worker count.

    Trials that fail with a domain error are recorded and skipped, but a
    failure fraction above 1% aborts the whole campaign.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cell_list = config.cells()
    args = [(config, ci, phi, nbar) for ci, phi, nbar in cell_list]
    if workers == 1 or len(cell_list) == 1:
        outputs = [_run_cell_args(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(cell_list))) as pool:
            outputs = list(pool.map(_run_cell_args, args))
    cells: list[CellStats] = []
    trials: list[TrialSummary] = []
    failures: list[TrialFailure] = []
    for stats, summaries, fails in outputs:
        cells.append(stats)
        trials.extend(summaries)
        failures.extend(fails)
    total = config.trials * len(cell_list)
    if len(failures) > _MAX_FAILURE_FRACTION * total:
        first = failures[0]
        raise CampaignError(
            f"{len(failures)} of {total} trials failed (> {_MAX_FAILURE_FRACTION:.0%}); "
            f"first failure (cell {first.cell_index}, trial {first.trial_index}): "
            f"{first.message}"
        )
    return CampaignResult(
        config=config, cells=tuple(cells), trials=tuple(trials), failures=tuple(failures)
    )


@dataclass(frozen=True)
class ThresholdRow:
    """Censored order statistics of m_threshold at one feedback phase.

    Quartiles are type-1 order statistics (lower median); a quartile is
    None when its order statistic lands on a trial that never broke the
    ambiguity within the measurement budget.
    """

    theta: float
    trials: int
    censored: int
    median: int | None
    q25: int | None
    q75: int | None


@dataclass(frozen=True)
class ThresholdScanResult:
    phi_true: float
    mean_photons: float
    trials: int
    max_measurements: int
    master_seed: int
    rows: tuple[ThresholdRow, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "su11sim/threshold-scan/v1",
            "phi_true": self.phi_true,
            "mean_photons": self.mean_photons,
            "trials": self.trials,
            "max_measurements": self.max_measurements,
            "master_seed": self.master_seed,
            "rows": [asdict(r) for r in self.rows],
        }


def _censored_quartile(values: list[int | None], fraction: float) -> int | None:
    ordered = sorted(values, key=lambda v: math.inf if v is None else v)
    pick = ordered[int(fraction * (len(ordered) - 1))]
    return pick


def threshold_scan(
    thetas,
    phi_true: float,
    mean_photons: float,
    trials: int,
    max_measurements: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    grid: PhaseGrid | None = None,
    tail_tol: float = 1e-12,
    n_max: int = 16,
) -> ThresholdScanResult:
    """Fixed-theta ambiguity-breaking scan over a set of feedback phases.

    Each theta is one cell (cell index = its position) of `trials`
    fixed-protocol runs capped at max_measurements steps; rows report
    censored quartiles of the step at which a rival mode first reached half
    the primary's height.
    """
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValueError("need at least one theta")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("thetas must be strictly increasing")
    if not all(t < phi_true for t in thetas):
        raise ValueError("every theta must sit below phi_true")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    grid = grid if grid is not None else PhaseGrid()
    model = make_model("photon", mean_photons, tail_tol=tail_tol, n_max=n_max)
    tables = shared_grid_tables(model, grid)
    rows = []
    for ci, theta in enumerate(thetas):
        cfg = ProtocolConfig(
            mode=MODE_FIXED,
            measurements=max_measurements,
            phi_true=phi_true,
            fixed_theta=theta,
        )
        seeds = [derive_seed(master_seed, ci, t) for t in range(trials)]
        values: list[int | None] = []
        for rec in run_trials(cfg, model, grid, seeds, tables=tables):
            if isinstance(rec, SU11Error):
                raise rec
            values.append(rec.m_threshold)
        rows.append(
            ThresholdRow(
                theta=theta,
                trials=trials,
                censored=sum(1 for v in values if v is None),
                median=_censored_quartile(values, 0.5),
                q25=_censored_quartile(values, 0.25),
                q75=_censored_quartile(values, 0.75),
            )
        )
    return ThresholdScanResult(
        phi_true=phi_true,
        mean_photons=mean_photons,
        trials=trials,
        max_measurements=max_measurements,
        master_seed=master_seed,
        rows=tuple(rows),
    )
