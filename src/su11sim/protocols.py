"""Single-trial estimation protocols with per-step feedback.

Three strategies share one measurement loop. All of them measure at a
feedback phase theta, observe an outcome at offset phi_true - theta, and
apply a grid Bayes update; they differ only in how theta is chosen.

fixed      theta never moves. Useful for studying when the posterior first
           resolves the sign ambiguity of a symmetric likelihood.
ladder     photon counting with a ramped feedback schedule: theta climbs
           toward half the running MAP during a rough stage, then locks to
           a fixed fraction of the rough estimate, and any surviving rival
           mode is pruned at the end.
optimal    the two-outcome scheme with plain greedy feedback: theta chases
           the running MAP so the working offset stays near zero where the
           scheme saturates the quantum bound.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .errors import DegenerateRowError
from .measurement import LikelihoodGrid, LikelihoodModel, Outcome, Scheme, sample, shared_grid_tables
from .posterior import (
    PeakReport,
    Peak,
    PhaseGrid,
    Posterior,
    density,
    detect_peaks,
    map_estimate,
    posterior_mean,
    posterior_variance,
    prune_secondary,
    rival_possible,
    uniform_posterior,
)

MODE_FIXED = "fixed"
MODE_LADDER = "ladder"
MODE_OPTIMAL = "optimal"
TRIAL_SCHEMA = "su11sim/trial/v1"

_EDGE_CELLS = 5
_EDGE_MASS_TOL = 1e-6


def scheme_for_mode(mode: str) -> Scheme:
    return Scheme.OPTIMAL if mode == MODE_OPTIMAL else Scheme.PHOTON_NUMBER


@dataclass(frozen=True)
class ProtocolConfig:
    """Strategy selection plus every knob the step loop reads.

    phi_true may stay None in a template and be filled per campaign cell.
    rival_height_ratio sets how tall a rival mode must be, relative to the
    primary, before a fixed-theta run declares the ambiguity broken.
    """

    mode: str
    measurements: int = 1000
    phi_true: float | None = None
    fixed_theta: float | None = None
    pre_rounds: int = 100
    ramp_cap_fraction: float = 0.5
    final_fraction: float = 0.93
    initial_theta: float | None = None
    peak_min_separation: float = 0.02
    peak_height_floor: float = 0.10
    rival_height_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL):
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        if not (isinstance(self.measurements, int) and self.measurements >= 1):
            raise ValueError(f"measurements must be an integer >= 1, got {self.measurements!r}")
        if self.phi_true is not None and not math.isfinite(self.phi_true):
            raise ValueError(f"phi_true must be finite, got {self.phi_true!r}")
        if self.mode == MODE_FIXED:
            if self.fixed_theta is None or not math.isfinite(self.fixed_theta):
                raise ValueError("fixed mode needs a finite fixed_theta")
        if self.mode == MODE_LADDER:
            if not (isinstance(self.pre_rounds, int) and 1 <= self.pre_rounds < self.measurements):
                raise ValueError(
                    f"pre_rounds must be an integer in [1, measurements), got {self.pre_rounds!r}"
                )
            if not (0.0 < self.ramp_cap_fraction < 1.0):
                raise ValueError(f"ramp_cap_fraction must lie in (0, 1), got {self.ramp_cap_fraction!r}")
            if not (0.0 < self.final_fraction < 1.0):
                raise ValueError(f"final_fraction must lie in (0, 1), got {self.final_fraction!r}")
        if self.initial_theta is not None and not math.isfinite(self.initial_theta):
            raise ValueError(f"initial_theta must be finite, got {self.initial_theta!r}")
        if not (0.0 < self.rival_height_ratio <= 1.0):
            raise ValueError(f"rival_height_ratio must lie in (0, 1], got {self.rival_height_ratio!r}")


@dataclass(frozen=True)
class StepRecord:
    step: int
    theta: float
    outcome: Outcome
    map_estimate: float


@dataclass(frozen=True)
class TrialRecord:
    """Everything needed to audit or replay one trial."""

    seed: int
    config: ProtocolConfig
    scheme: str
    mean_photons: float
    squeeze_r: float
    grid_lo: float
    grid_hi: float
    grid_points: int
    phi_true: float
    steps: tuple[StepRecord, ...]
    final_map: float
    final_mean: float
    final_variance: float
    peaks: PeakReport
    m_threshold: int | None
    map_jumps: int | None
    phi_rough: float | None
    pruned: bool
    edge_mass: bool

    def to_dict(self) -> dict:
        d = {
            "schema": TRIAL_SCHEMA,
            "version": __version__,
            "seed": self.seed,
            "config": asdict(self.config),
            "scheme": self.scheme,
            "mean_photons": self.mean_photons,
            "squeeze_r": self.squeeze_r,
            "grid": {"lo": self.grid_lo, "hi": self.grid_hi, "n_points": self.grid_points},
            "phi_true": self.phi_true,
            "steps": [
                {
                    "step": s.step,
                    "theta": s.theta,
                    "outcome": s.outcome.label(),
                    "map_estimate": s.map_estimate,
                }
                for s in self.steps
            ],
            "final_map": self.final_map,
            "final_mean": self.final_mean,
            "final_variance": self.final_variance,
            "peaks": _peaks_to_dict(self.peaks),
            "m_threshold": self.m_threshold,
            "map_jumps": self.map_jumps,
            "phi_rough": self.phi_rough,
            "pruned": self.pruned,
            "edge_mass": self.edge_mass,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        if d.get("schema") != TRIAL_SCHEMA:
            raise ValueError(f"unsupported trial schema {d.get('schema')!r}")
        cfg = ProtocolConfig(**d["config"])
        steps = tuple(
            StepRecord(
                step=s["step"],
                theta=s["theta"],
                outcome=Outcome.parse_label(s["outcome"]),
                map_estimate=s["map_estimate"],
            )
            for s in d["steps"]
        )
        return cls(
            seed=d["seed"],
            config=cfg,
            scheme=d["scheme"],
            mean_photons=d["mean_photons"],
            squeeze_r=d["squeeze_r"],
            grid_lo=d["grid"]["lo"],
            grid_hi=d["grid"]["hi"],
            grid_points=d["grid"]["n_points"],
            phi_true=d["phi_true"],
            steps=steps,
            final_map=d["final_map"],
            final_mean=d["final_mean"],
            final_variance=d["final_variance"],
            peaks=_peaks_from_dict(d["peaks"]),
            m_threshold=d["m_threshold"],
            map_jumps=d["map_jumps"],
            phi_rough=d["phi_rough"],
            pruned=d["pruned"],
            edge_mass=d["edge_mass"],
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialRecord":
        return cls.from_dict(json.loads(text))


def _peaks_to_dict(report: PeakReport) -> dict:
    def peak(p):
        return None if p is None else {"location": p.location, "height": p.height, "mass": p.mass}

    return {
        "primary": peak(report.primary),
        "secondary": peak(report.secondary),
        "separation": report.separation,
    }


def _peaks_from_dict(d: dict) -> PeakReport:
    def peak(p):
        return None if p is None else Peak(location=p["location"], height=p["height"], mass=p["mass"])

    return PeakReport(primary=peak(d["primary"]), secondary=peak(d["secondary"]), separation=d["separation"])


def run_trial(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seed: int,
    *,
    keep_steps: bool = True,
    tables: LikelihoodGrid | None = None,
) -> TrialRecord:
    """Run one trial of whichever protocol the config selects."""
    if config.mode == MODE_FIXED:
        return run_fixed(config, model, grid, seed, keep_steps=keep_steps, tables=tables)
    if config.mode == MODE_LADDER:
        return run_ladder(config, model, grid, seed, keep_steps=keep_steps, tables=tables)
    return run_optimal(config, model, grid, seed, keep_steps=keep_steps, tables=tables)


class _TrialState:
    """Shared step loop: sample at the chosen feedback index, update, track MAP."""

    def __init__(self, config, model, grid, seed, keep_steps, tables):
        expected = scheme_for_mode(config.mode)
        if model.scheme is not expected:
            raise ValueError(
                f"mode {config.mode!r} needs scheme {expected.value!r}, "
                f"got {model.scheme.value!r}"
            )
        if config.phi_true is None:
            raise ValueError("phi_true must be set before running a trial")
        self.config = config
        self.model = model
        self.grid = grid
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.tables = tables if tables is not None else shared_grid_tables(model, grid)
        self.phi_true = grid.snap(config.phi_true)
        self.log_w = uniform_posterior(grid).log_weights
        self.map_est = map_estimate(Posterior(grid, self.log_w))
        self.steps: list[StepRecord] = []
        self.keep_steps = keep_steps

    def measure(self, k: int, theta_index: int) -> None:
        theta = float(self.grid.points[theta_index])
        outcome = sample(self.model, self.phi_true - theta, self.rng)
        log_row = self.tables.log_row(outcome, theta_index)
        self.log_w += log_row
        peak = self.log_w.max()
        if not np.isfinite(peak):
            raise DegenerateRowError(
                f"outcome {outcome.label()} at step {k} leaves zero posterior mass"
            )
        self.log_w -= peak  # keep the running maximum at 0
        self.map_est = float(self.grid.points[int(np.argmax(self.log_w))])
        if self.keep_steps:
            self.steps.append(
                StepRecord(step=k, theta=theta, outcome=outcome, map_estimate=self.map_est)
            )

    def posterior(self) -> Posterior:
        return Posterior(grid=self.grid, log_weights=self.log_w)

    def finish(
        self,
        *,
        m_threshold: int | None,
        map_jumps: int | None,
        phi_rough: float | None,
        prune: bool,
    ) -> TrialRecord:
        post = self.posterior()
        report = detect_peaks(
            post, self.config.peak_min_separation, self.config.peak_height_floor
        )
        pruned = False
        if prune and report.secondary is not None:
            post = prune_secondary(post, report)
            pruned = True
        d = density(post)
        h = self.grid.spacing
        edge = float(d[:_EDGE_CELLS].sum() + d[-_EDGE_CELLS:].sum()) * h > _EDGE_MASS_TOL
        return TrialRecord(
            seed=self.seed,
            config=self.config,
            scheme=self.model.scheme.value,
            mean_photons=self.model.mean_photons,
            squeeze_r=self.model.params.squeeze_r,
            grid_lo=self.grid.lo,
            grid_hi=self.grid.hi,
            grid_points=self.grid.n_points,
            phi_true=self.phi_true,
            steps=tuple(self.steps),
            final_map=map_estimate(post),
            final_mean=posterior_mean(post),
            final_variance=posterior_variance(post),
            peaks=report,
            m_threshold=m_threshold,
            map_jumps=map_jumps,
            phi_rough=phi_rough,
            pruned=pruned,
            edge_mass=edge,
        )


def run_fixed(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seed: int,
    *,
    keep_steps: bool = True,
    tables: LikelihoodGrid | None = None,
) -> TrialRecord:
    """Measure at one feedback phase forever; track when the rival mode breaks.

    m_threshold is the first step at which the posterior shows a distinct
    rival at least rival_height_ratio as tall as the primary (None if that
    never happens). Full peak detection runs only on steps where the
    log-space screen rival_possible allows such a rival; on the other steps
    detect_peaks provably finds none, so m_threshold is unchanged. map_jumps
    counts steps whose MAP moved by more than peak_min_separation, a cheap
    mode-hopping diagnostic.
    """
    state = _TrialState(config, model, grid, seed, keep_steps, tables)
    j_theta = grid.index_of(config.fixed_theta)
    m_threshold: int | None = None
    map_jumps = 0
    prev_map = state.map_est
    for k in range(1, config.measurements + 1):
        state.measure(k, j_theta)
        if k > 1 and abs(state.map_est - prev_map) > config.peak_min_separation:
            map_jumps += 1
        prev_map = state.map_est
        if m_threshold is None and rival_possible(
            state.log_w, grid, config.peak_min_separation, config.rival_height_ratio
        ):
            report = detect_peaks(
                state.posterior(),
                config.peak_min_separation,
                config.rival_height_ratio,
            )
            if report.secondary is not None:
                m_threshold = k
    return state.finish(
        m_threshold=m_threshold, map_jumps=map_jumps, phi_rough=None, prune=False
    )


def run_ladder(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seed: int,
    *,
    keep_steps: bool = True,
    tables: LikelihoodGrid | None = None,
) -> TrialRecord:
    """Photon counting with a ramped feedback schedule.

    Rough stage (pre_rounds steps): theta climbs along a linear ramp toward
    ramp_cap_fraction of the running MAP and never exceeds that cap, so the
    working offset keeps a definite sign while the posterior is still
    ambiguous. The feedback phase is snapped down onto the grid to keep the
    cap exact. Lock stage: theta holds at final_fraction of the rough MAP.
    Finish: a surviving rival mode, if any, is pruned before the final
    statistics are read off.
    """
    state = _TrialState(config, model, grid, seed, keep_steps, tables)
    theta_prev = 0.0
    for k in range(1, config.pre_rounds + 1):
        cap = config.ramp_cap_fraction * state.map_est
        ramp = (k / config.pre_rounds) * cap
        theta_raw = min(max(theta_prev, ramp), cap)
        j_theta = grid.floor_index(max(theta_raw, grid.lo))
        state.measure(k, j_theta)
        theta_prev = float(grid.points[j_theta])
    phi_rough = state.map_est
    j_lock = grid.index_of(config.final_fraction * phi_rough)
    for k in range(config.pre_rounds + 1, config.measurements + 1):
        state.measure(k, j_lock)
    return state.finish(m_threshold=None, map_jumps=None, phi_rough=phi_rough, prune=True)


def run_optimal(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seed: int,
    *,
    keep_steps: bool = True,
    tables: LikelihoodGrid | None = None,
) -> TrialRecord:
    """Two-outcome scheme with the feedback phase chasing the running MAP.

    The first step measures at initial_theta (grid midpoint by default,
    where no prior information exists yet); afterwards theta_k is the MAP
    after step k - 1.
    """
    state = _TrialState(config, model, grid, seed, keep_steps, tables)
    theta0 = grid.midpoint if config.initial_theta is None else config.initial_theta
    j_theta = grid.index_of(theta0)
    for k in range(1, config.measurements + 1):
        state.measure(k, j_theta)
        j_theta = grid.index_of(state.map_est)
    return state.finish(m_threshold=None, map_jumps=None, phi_rough=None, prune=False)
