"""Seeded trial ensembles over (phi_true, mean_photons) cells.

Every trial's seed is derived by avalanche mixing (master seed, cell index,
trial index), so any single trial can be replayed in isolation and results
never depend on execution order or worker count.

Campaigns and threshold scans share one cell runner: a scan's feedback
phases are fixed-mode cells. Workers return per-trial summaries; cell
statistics are computed from them in the parent.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import product

import numpy as np

from .analysis import benchmarks
from .errors import CampaignError, SU11Error
from .measurement import make_model
from .posterior import PhaseGrid
from .protocols import MODE_FIXED, ProtocolConfig, finite_real, require_reals, run_trials, scheme_for_mode

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps these names at this import site.
from .measurement import shared_grid_tables  # noqa: F401
from .protocols import run_trial  # noqa: F401

DEFAULT_MASTER_SEED = 7
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOOTSTRAP_SLOT = (1 << 63) - 1
_BOOTSTRAP_RESAMPLES = 1000
_MAX_FAILURE_FRACTION = 0.01
# campaign JSON still names the one sampling law, the exact geometric tail,
# so configs keep their bytes and those written by earlier versions still load
_SAMPLING_LAW = "exact_tail"


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
    label: str = ""

    def __post_init__(self) -> None:
        require_reals(self, ("tail_tol",))
        # type() rather than isinstance: True is an int but no count or seed
        if not (type(self.trials) is int and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        for name in ("master_seed", "n_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not self.mean_photons or not all(
            finite_real(n) and n > 0 for n in self.mean_photons
        ):
            raise ValueError("mean_photons must be a nonempty tuple of positive numbers")
        if not self.phi_true or not all(map(finite_real, self.phi_true)):
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
            "residual_policy": _SAMPLING_LAW,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Read to_dict's layout; a missing, unknown or mistyped key raises ValueError."""
        if isinstance(d, dict) and "residual_policy" in d:
            if d["residual_policy"] != _SAMPLING_LAW:
                raise ValueError(
                    f"residual_policy must be {_SAMPLING_LAW!r}, got {d['residual_policy']!r}"
                )
            d = {k: v for k, v in d.items() if k != "residual_policy"}
        kw = _known_keys("campaign config", d, cls)
        kw["protocol"] = ProtocolConfig(**_known_keys("protocol", d["protocol"], ProtocolConfig))
        kw["grid"] = PhaseGrid(**_known_keys("grid", d.get("grid", {}), PhaseGrid))
        for key in ("mean_photons", "phi_true"):
            if not (isinstance(d[key], list) and all(type(x) in (int, float) for x in d[key])):
                raise ValueError(f"{key} must be a list of numbers, got {d[key]!r}")
            kw[key] = tuple(d[key])
        return cls(**kw)


def _known_keys(what: str, d, cls) -> dict:
    """A copy of d, once its keys are known to be cls's fields, required ones included."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    for problem, keys in (("unknown", set(d) - names), ("missing", required - set(d))):
        if keys:
            raise ValueError(f"{what} has {problem} key(s) {', '.join(map(repr, sorted(keys)))}")
    return dict(d)


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


# The models of the running _run_cells call, keyed by all that make_model
# reads, so cells that share n-bar share one model and, through its cache
# (shared_grid_tables, keyed by the grid's values), one table per grid.
# _run_cells empties it; a worker's copy dies with the pool.
_MODELS: dict = {}


def _run_cell(config: CampaignConfig, cell: tuple[int, float, float]):
    """One cell's trials: (summaries, failures), each in trial order."""
    cell_index, phi, nbar = cell
    scheme = scheme_for_mode(config.protocol.mode)
    key = (scheme, nbar, config.tail_tol, config.n_max)
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = make_model(scheme, nbar, tail_tol=config.tail_tol, n_max=config.n_max)
    cell_cfg = replace(config.protocol, phi_true=phi)
    summaries: list[TrialSummary] = []
    failures: list[TrialFailure] = []
    seeds = [derive_seed(config.master_seed, cell_index, t) for t in range(config.trials)]
    results = run_trials(cell_cfg, model, config.grid, seeds)
    for t, (seed, rec) in enumerate(zip(seeds, results)):
        if isinstance(rec, SU11Error):
            failures.append(
                TrialFailure(cell_index=cell_index, trial_index=t, seed=seed, message=str(rec))
            )
            continue
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
    return summaries, failures


def _run_cells(configs, cells, workers: int = 1) -> list:
    """_run_cell over paired configs and cells, in order, on up to `workers`
    processes; the only owner of the pool and of _MODELS."""
    try:
        if workers == 1 or len(cells) == 1:
            return list(map(_run_cell, configs, cells))
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            return list(pool.map(_run_cell, configs, cells))
    finally:
        _MODELS.clear()


def _cell_stats(config, cell, summaries, n_failures) -> CellStats:
    cell_index, phi, nbar = cell
    bench = benchmarks(config.protocol.measurements, nbar)
    if not summaries:
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
    err = np.array([s.estimate - s.phi_true for s in summaries])
    post_var = np.array([s.posterior_variance for s in summaries])
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
        phi_true_snapped=summaries[0].phi_true,
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


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignResult:
    """Run every cell of the campaign; deterministic for any worker count.

    Trials that fail with a domain error are recorded and skipped, but a
    failure fraction above 1% aborts the whole campaign.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cell_list = config.cells()
    outputs = _run_cells([config] * len(cell_list), cell_list, workers)
    cells: list[CellStats] = []
    trials: list[TrialSummary] = []
    failures: list[TrialFailure] = []
    for cell, (summaries, fails) in zip(cell_list, outputs):
        cells.append(_cell_stats(config, cell, summaries, len(fails)))
        trials.extend(summaries)
        failures.extend(fails)
    total = config.trials * len(cell_list)
    if len(failures) > _MAX_FAILURE_FRACTION * total:
        raise CampaignError(
            f"{len(failures)} of {total} trials failed (> {_MAX_FAILURE_FRACTION:.0%}); "
            f"{_first_failure(failures)}"
        )
    return CampaignResult(
        config=config, cells=tuple(cells), trials=tuple(trials), failures=tuple(failures)
    )


def _first_failure(failures: list[TrialFailure]) -> str:
    first = failures[0]
    return f"first failure (cell {first.cell_index}, trial {first.trial_index}): {first.message}"


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
        return {"schema": "su11sim/threshold-scan/v1", **asdict(self)}


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

    Each theta is one fixed-mode campaign cell (cell index = its position)
    of `trials` runs capped at max_measurements steps; rows report censored
    quartiles of the step at which a rival mode first reached half the
    primary's height. A failed trial aborts the scan with a CampaignError.
    """
    thetas = list(thetas)
    if not (thetas and all(map(finite_real, thetas))):
        raise ValueError(f"thetas must be a nonempty list of finite numbers, got {thetas!r}")
    thetas = [float(t) for t in thetas]
    config = CampaignConfig(
        protocol=ProtocolConfig(
            mode=MODE_FIXED, measurements=max_measurements, fixed_theta=thetas[0]
        ),
        mean_photons=(mean_photons,),
        phi_true=(phi_true,),
        trials=trials,
        master_seed=master_seed,
        grid=grid if grid is not None else PhaseGrid(),
        tail_tol=tail_tol,
        n_max=n_max,
    )
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("thetas must be strictly increasing")
    if not all(t < phi_true for t in thetas):
        raise ValueError("every theta must sit below phi_true")
    outputs = _run_cells(
        [replace(config, protocol=replace(config.protocol, fixed_theta=t)) for t in thetas],
        [(ci, phi_true, mean_photons) for ci in range(len(thetas))],
    )
    failures = [f for _, fails in outputs for f in fails]
    if failures:
        raise CampaignError(
            f"{len(failures)} of {trials * len(thetas)} scan trials failed; "
            f"{_first_failure(failures)}"
        )
    rows = []
    for theta, (summaries, _) in zip(thetas, outputs):
        values = [s.m_threshold for s in summaries]
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
