"""Seeded trial ensembles over (phi_true, mean_photons) cells.

Every trial's seed is derived by avalanche mixing (master seed, cell index,
trial index), so any single trial can be replayed in isolation and results
never depend on execution order or worker count.

Campaigns and threshold scans share one cell runner: a scan's feedback
phases are fixed-mode cells. The calling process builds every model and
then every likelihood table, in one pass on as many threads as it has
usable CPUs (tmsq.amplitude_pass); it and any child processes then take
cells from one order, children send back per-trial summaries, and cell
statistics are computed from them in the calling process. A call that runs
in one process (one worker, one cell or one usable CPU, and every threshold
scan) starts no child and loads no multiprocessing.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

from .analysis import benchmarks
from .errors import CampaignError, SU11Error, WorkerError
from .measurement import make_model, shared_grid_tables
from .posterior import PhaseGrid
from .protocols import MODE_FIXED, ProtocolConfig, finite_real, known_keys
from .protocols import run_trials, scheme_for_mode
from . import tmsq

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps this name at this import site.
from .protocols import run_trial  # noqa: F401

DEFAULT_MASTER_SEED = 7
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOOTSTRAP_SLOT = (1 << 63) - 1
_BOOTSTRAP_RESAMPLES = 1000
_MAX_FAILURE_FRACTION = 0.01
# how often a caller waiting for cells checks that its children still run
_CHILD_CHECK_S = 0.1
# Children fork on Linux, and so inherit the caller's models and tables.
# Elsewhere the platform's default starts them (spawn: fork is unsafe on
# macOS and missing on Windows), and each child rebuilds what its cells
# need; the bytes are the same either way.
_START_METHOD = "fork" if sys.platform == "linux" else None
# Settings that are no longer settable: campaign JSON still writes each with
# its one value, so configs keep their bytes and those written by earlier
# versions still load; from_dict refuses any other value. residual_policy
# names the one sampling law, the exact geometric tail; tail_tol is the
# table's one truncation tolerance; label was free text that changed nothing.
_FIXED_ECHOES = {"residual_policy": "exact_tail", "tail_tol": tmsq.TAIL_TOL, "label": ""}


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
    n_max: int = 16

    def __post_init__(self) -> None:
        # type() rather than isinstance: True is an int but no count or seed
        if not (type(self.trials) is int and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        for name in ("master_seed", "n_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        lists = {"mean_photons": list(self.mean_photons), "phi_true": list(self.phi_true)}
        return asdict(self) | lists | _FIXED_ECHOES | {"protocol": self.protocol.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Read to_dict's layout; a missing, unknown or mistyped key, or an
        echo at any other value, raises ValueError naming it."""
        kw = known_keys("campaign config", d, cls, _FIXED_ECHOES)
        kw["protocol"] = ProtocolConfig.from_dict(d["protocol"])
        kw["grid"] = PhaseGrid(**known_keys("grid", d.get("grid", {}), PhaseGrid, {}))
        for key in ("mean_photons", "phi_true"):
            if not (isinstance(d[key], list) and all(type(x) in (int, float) for x in d[key])):
                raise ValueError(f"{key} must be a list of numbers, got {d[key]!r}")
            kw[key] = tuple(d[key])
        return cls(**kw)


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


# The models of the running _run_cells call in this process, keyed by all
# that make_model reads (scheme, n-bar, n_max), so cells that share n-bar
# share one model and, through its cache (shared_grid_tables, keyed by the
# grid's values), one table per grid. _run_cells fills it with every model
# and table of its cells before any child starts, and a forked child
# inherits it whole; a child started another way (spawn) begins empty and
# builds what its cells need. _run_cells empties the caller's; a child's
# dies with the child.
_MODELS: dict = {}


def _model(config: CampaignConfig, nbar: float):
    """The model of config's cells at this n-bar: from _MODELS, else built into it."""
    scheme = scheme_for_mode(config.protocol.mode)
    key = (scheme, nbar, config.n_max)
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = make_model(scheme, nbar, n_max=config.n_max)
    return model


def _run_cell(config: CampaignConfig, cell: tuple[int, float, float]):
    """One cell's trials: (summaries, failures), each in trial order. The
    cell's model and table come from _MODELS, or are built here if absent."""
    cell_index, phi, nbar = cell
    model = _model(config, nbar)
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


def _take_cells(configs, cells, order, taken):
    """Yield (cell index, _run_cell output) for the cells this process takes
    from `order`; `taken` counts the cells every process has taken, and the
    next one is taken only once the last has run."""
    while True:
        with taken.get_lock():
            k = taken.value
            taken.value = k + 1
        if k >= len(order):
            return
        i = order[k]
        yield i, _run_cell(configs[i], cells[i])


def _child(configs, cells, order, taken, results) -> None:
    """A child process of _run_cells: sends (cell index, output) for each cell
    it takes, or (None, exception) for the error that stopped it."""
    try:
        for item in _take_cells(configs, cells, order, taken):
            results.put(item)
    except Exception as exc:
        results.put((None, exc))


def _run_cells(configs, cells, workers: int = 1) -> list:
    """_run_cell over paired configs and cells in up to `workers` processes,
    the calling one included; outputs in cell order. The only owner of the
    child processes and of _MODELS.

    The call runs procs = min(workers, cells, tmsq._usable_cpus())
    processes. Only with procs > 1 does it import multiprocessing and make
    the shared count and the queue the children use, so a one-process call
    needs no POSIX semaphore. Then the caller makes every model the cells
    need, in the order below, so an error of make_model raises here before
    any child starts. Then it builds all their likelihood tables, one pass
    per grid (shared_grid_tables) on every usable CPU whatever procs is, so
    the children inherit them through fork and only run trials. Every pass
    thread has ended before the first child is forked. A one-process call
    then runs every cell in the order below and returns.

    Otherwise procs - 1 children start by _START_METHOD, each with the
    cells and a shared count of those taken as arguments, before the
    caller runs its first cell. Every process then takes the next cell
    only when it is free, in descending n-bar, ties in cell order. Outputs
    never depend on this order: every trial's seed comes from its cell and
    trial indices. It fixes only which make_model error is raised first.

    Children send their outputs through a buffered queue, so none waits on
    the caller while it runs cells. A child's exception is raised here; a
    child that dies raises WorkerError. Every child has ended when this
    returns or raises.
    """
    order = sorted(range(len(cells)), key=lambda i: cells[i][2], reverse=True)
    procs = min(workers, len(cells), tmsq._usable_cpus())
    if procs > 1:
        import multiprocessing
        import queue

        ctx = multiprocessing.get_context(_START_METHOD)
        taken = ctx.Value("q", 0)
        results = ctx.Queue()
    outputs = [None] * len(cells)
    missing = len(cells)
    children = []

    def receive(item) -> None:
        nonlocal missing
        i, output = item
        if isinstance(output, Exception):
            raise output
        outputs[i] = output
        missing -= 1

    try:
        by_grid: dict = {}
        for i in order:
            by_grid.setdefault(configs[i].grid, []).append(_model(configs[i], cells[i][2]))
        for grid, (first, *rest) in by_grid.items():
            shared_grid_tables(first, grid, *rest)
        if procs == 1:
            for i in order:
                outputs[i] = _run_cell(configs[i], cells[i])
            return outputs
        for _ in range(procs - 1):
            child = ctx.Process(target=_child, args=(configs, cells, order, taken, results))
            child.start()
            children.append(child)
        for item in _take_cells(configs, cells, order, taken):
            receive(item)
            while not results.empty():
                receive(results.get())
        while missing:
            try:
                receive(results.get(timeout=_CHILD_CHECK_S))
            except queue.Empty:
                for child in children:
                    if child.exitcode:
                        raise WorkerError(
                            f"worker process {child.pid} exited with code {child.exitcode}"
                        ) from None
                if all(child.exitcode is not None for child in children) and results.empty():
                    raise WorkerError(
                        f"worker processes exited with {missing} cells unreturned"
                    ) from None
        return outputs
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        _MODELS.clear()


# np.percentile and np.median would give the same bits, but each imports
# numpy.ma, which a campaign needs nowhere else.
def _percentile(ascending, q: float) -> float:
    """np.percentile(ascending, q) of a sorted, nonempty, finite array, by
    its default (linear) rule step for step."""
    index = (len(ascending) - 1) * (q / 100)
    below = math.floor(index)
    gamma = index - below
    a, b = ascending[below], ascending[min(below + 1, len(ascending) - 1)]
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def _median(ascending) -> float:
    """np.median of a sorted, nonempty, finite array: the middle value, or
    the mean of the middle two."""
    half = len(ascending) // 2
    if len(ascending) % 2:
        return float(ascending[half])
    return float((ascending[half - 1] + ascending[half]) / 2)


def _cell_stats(config, cell, bench, summaries, n_failures) -> CellStats:
    """The cell's statistics; those of an empty cell (every trial failed) read NaN."""
    cell_index, phi, nbar = cell
    mse = ci_low = ci_high = bias = mean_var = median_var = float("nan")
    if summaries:
        err = np.array([s.estimate - s.phi_true for s in summaries])
        post_var = np.array([s.posterior_variance for s in summaries])
        sq = err * err
        brng = np.random.default_rng(
            derive_seed(config.master_seed, cell_index, _BOOTSTRAP_SLOT)
        )
        idx = brng.integers(0, len(sq), size=(_BOOTSTRAP_RESAMPLES, len(sq)))
        boot = np.sort(sq[idx].mean(axis=1))
        ci_low, ci_high = _percentile(boot, 2.5), _percentile(boot, 97.5)
        mse, bias = float(sq.mean()), float(err.mean())
        mean_var, median_var = float(post_var.mean()), _median(np.sort(post_var))
    return CellStats(
        cell_index=cell_index,
        phi_true=phi,
        # equals each summary's phi_true: run_trials snaps the same phi on this grid
        phi_true_snapped=config.grid.snap(phi),
        mean_photons=nbar,
        trials=config.trials,
        failures=n_failures,
        mse=mse,
        mse_ci_low=ci_low,
        mse_ci_high=ci_high,
        bias=bias,
        mean_posterior_variance=mean_var,
        median_posterior_variance=median_var,
        qcrb=bench.qcrb,
        heisenberg=bench.heisenberg,
        shot_noise=bench.shot_noise,
    )


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignResult:
    """Run every cell of the campaign; deterministic for any worker count.

    `workers` counts the processes that run cells, the calling one
    included, and is capped at the cells and at the usable CPUs (the
    affinity mask, else the CPU count). The likelihood tables are built
    first, on as many threads as there are usable CPUs, whatever `workers`.

    Trials that fail with a domain error are recorded and skipped, but a
    failure fraction above 1% aborts the whole campaign.
    """
    if not (type(workers) is int and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cell_list = config.cells()
    # a limit outside the double range raises here, before any trial runs
    benches = [benchmarks(config.protocol.measurements, nbar) for _, _, nbar in cell_list]
    outputs = _run_cells([config] * len(cell_list), cell_list, workers)
    cells: list[CellStats] = []
    trials: list[TrialSummary] = []
    failures: list[TrialFailure] = []
    for cell, bench, (summaries, fails) in zip(cell_list, benches, outputs):
        cells.append(_cell_stats(config, cell, bench, summaries, len(fails)))
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
    n_max: int = 16,
) -> ThresholdScanResult:
    """Fixed-theta ambiguity-breaking scan over a set of feedback phases.

    Each theta is one fixed-mode campaign cell (cell index = its position)
    of `trials` runs capped at max_measurements steps; rows report censored
    quartiles of the step at which a rival mode first reached half the
    primary's height. The cells run in this process, after their one
    likelihood table is built on as many threads as there are usable CPUs.
    A failed trial aborts the scan with a CampaignError.
    """
    thetas = list(thetas)
    if not (thetas and all(map(finite_real, thetas))):
        raise ValueError(f"thetas must be a nonempty list of finite numbers, got {thetas!r}")
    thetas = [float(t) for t in thetas]
    if not (type(max_measurements) is int and max_measurements >= 1):
        # checked here so that the message names this argument, not the
        # protocol's measurements field it fills
        raise ValueError(f"max_measurements must be an integer >= 1, got {max_measurements!r}")
    config = CampaignConfig(
        protocol=ProtocolConfig(
            mode=MODE_FIXED, measurements=max_measurements, fixed_theta=thetas[0]
        ),
        mean_photons=(mean_photons,),
        phi_true=(phi_true,),
        trials=trials,
        master_seed=master_seed,
        grid=grid if grid is not None else PhaseGrid(),
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
