"""Single-trial estimation protocols with per-step feedback.

Three strategies share one measurement loop (run_trials). All of them
measure at a feedback phase theta on the grid, observe an outcome at offset
phi_true - theta, and apply a grid Bayes update; they differ only in how
theta is chosen.

fixed      theta never moves. Useful for studying when the posterior first
           resolves the sign ambiguity of a symmetric likelihood:
           m_threshold is the first step at which the posterior shows a
           distinct rival at least rival_height_ratio as tall as the
           primary (None if that never happens), and map_jumps counts steps
           whose MAP moved by more than peak_min_separation.
ladder     photon counting with a ramped feedback schedule. Rough stage
           (pre_rounds steps): theta climbs along a linear ramp toward
           ramp_cap_fraction of the running MAP and never exceeds that cap,
           so the working offset keeps a definite sign while the posterior
           is still ambiguous; theta is snapped down onto the grid to keep
           the cap exact. Lock stage: theta holds at final_fraction of the
           rough MAP (phi_rough). A surviving rival mode is pruned before
           the final statistics are read off.
optimal    the two-outcome scheme with plain greedy feedback: the first step
           measures at initial_theta (the grid midpoint by default), and
           afterwards theta chases the running MAP so the working offset
           stays near zero, where the scheme saturates the quantum bound.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from ._version import __version__
from .errors import DegenerateRowError, SU11Error
from .measurement import (
    LikelihoodModel,
    Outcome,
    OutcomeLaw,
    Scheme,
    outcome_law,
    outcome_of_code,
    shared_grid_tables,
)
from .posterior import (
    PeakReport,
    PhaseGrid,
    Posterior,
    density,
    detect_peaks,
    log_step,
    map_estimate,
    posterior_mean,
    posterior_variance,
    prune_secondary,
    rival_possible,
    uniform_posterior,
)

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps this name at this import site.
from .measurement import sample  # noqa: F401

MODE_FIXED = "fixed"
MODE_LADDER = "ladder"
MODE_OPTIMAL = "optimal"
TRIAL_SCHEMA = "su11sim/trial/v1"

_EDGE_CELLS = 5
_EDGE_MASS_TOL = 1e-6


def scheme_for_mode(mode: str) -> Scheme:
    return Scheme.OPTIMAL if mode == MODE_OPTIMAL else Scheme.PHOTON_NUMBER


def finite_real(v) -> bool:
    """Whether v is a finite real number (a bool is none)."""
    return isinstance(v, numbers.Real) and type(v) is not bool and math.isfinite(v)


def require_reals(config, names, optional: bool = False) -> None:
    """Raise ValueError naming the first of config's fields `names` that holds
    no finite real number; None passes if optional."""
    for name in names:
        v = getattr(config, name)
        if not (finite_real(v) or optional and v is None):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


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
        require_reals(self, ("phi_true", "fixed_theta", "initial_theta"), optional=True)
        require_reals(self, ("ramp_cap_fraction", "final_fraction", "peak_min_separation",
                             "peak_height_floor", "rival_height_ratio"))
        if self.mode not in (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL):
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        if not (type(self.measurements) is int and self.measurements >= 1):
            raise ValueError(f"measurements must be an integer >= 1, got {self.measurements!r}")
        if self.mode == MODE_FIXED and self.fixed_theta is None:
            raise ValueError("fixed mode needs a finite fixed_theta")
        if type(self.pre_rounds) is not int:
            raise ValueError(f"pre_rounds must be an integer, got {self.pre_rounds!r}")
        if self.mode == MODE_LADDER:
            if not 1 <= self.pre_rounds < self.measurements:
                raise ValueError(f"pre_rounds must lie in [1, measurements), got {self.pre_rounds!r}")
            if not (0.0 < self.ramp_cap_fraction < 1.0):
                raise ValueError(f"ramp_cap_fraction must lie in (0, 1), got {self.ramp_cap_fraction!r}")
            if not (0.0 < self.final_fraction < 1.0):
                raise ValueError(f"final_fraction must lie in (0, 1), got {self.final_fraction!r}")
        if not self.peak_min_separation > 0.0:
            raise ValueError(f"peak_min_separation must be > 0, got {self.peak_min_separation!r}")
        if not (0.0 < self.peak_height_floor <= 1.0):
            raise ValueError(f"peak_height_floor must lie in (0, 1], got {self.peak_height_floor!r}")
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
    """Everything needed to audit or replay one trial.

    Replay means re-running: config on make_model(scheme, mean_photons) and
    the recorded grid with seed gives the same record. The table's n_max and
    tail_tol are not recorded, so only a default table replays.
    """

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
            "peaks": asdict(self.peaks),
            "m_threshold": self.m_threshold,
            "map_jumps": self.map_jumps,
            "phi_rough": self.phi_rough,
            "pruned": self.pruned,
            "edge_mass": self.edge_mass,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def run_trial(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seed: int,
    *,
    keep_steps: bool = True,
) -> TrialRecord:
    """Run one trial of whichever protocol the config selects.

    This is run_trials on a single seed. The SU11Error that ended the
    trial, if any, is raised.
    """
    result = run_trials(config, model, grid, [seed], keep_steps=keep_steps)[0]
    if isinstance(result, SU11Error):
        raise result
    return result


CHUNK = 256  # uniforms a trial draws from its Generator at a time


def run_trials(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seeds,
    *,
    keep_steps: bool = False,
) -> list:
    """Run one trial per seed; entry i is seed i's TrialRecord or SU11Error.

    Every trial measures at a feedback index theta_j, draws an outcome at
    the offset phi_true - theta_j from its own Generator, applies log_step
    with that outcome's log row and takes the MAP from the argmax. The modes
    differ only in how theta moves; each is described in the module docstring.

    Trials run one at a time, each to its end, on the model's one cached
    table for this grid (shared_grid_tables): a step adds a view of the
    outcome's row of the stacked log table to the trial's one row of log
    weights. Outcome laws are cached per theta index, which is exact because
    phi_true is fixed for the call and each trial still draws the same
    uniforms from its own Generator in the same order (_uniform_source). So
    a record depends only on its seed, never on the other seeds of the call.

    A trial that fails with an SU11Error (a degenerate update) ends there
    and yields that error; the others are undisturbed. Any other exception,
    such as a ValueError from an invalid config, propagates.
    """
    engine = _Engine(config, model, grid, keep_steps)
    return [engine.run(seed) for seed in seeds]


def _uniform_source(rng: np.random.Generator):
    """A zero-argument source of the floats successive rng.random() calls
    return, drawn CHUNK at a time. Surplus draws die with the trial's own
    Generator, which nothing else reads."""
    return chain.from_iterable(iter(lambda: rng.random(CHUNK).tolist(), None)).__next__


class _Trial:
    """The state one trial carries from step to step."""

    __slots__ = ("seed", "j", "map_est", "steps", "phi_rough", "m_threshold", "map_jumps")

    def __init__(self, seed: int, j: int):
        self.seed = int(seed)
        self.j = j  # feedback index of the next step
        self.map_est: float | None = None  # fixed mode: the MAP after the last step
        self.steps: list[StepRecord] = []
        self.phi_rough: float | None = None
        self.m_threshold: int | None = None
        self.map_jumps = 0


class _Engine:
    """One protocol config on one model and grid; runs one seed at a time."""

    def __init__(self, config, model, grid, keep_steps):
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
        self.keep_steps = keep_steps
        self.tables = shared_grid_tables(model, grid)
        self.windows = self.tables.log_windows()
        self.phi_true = grid.snap(config.phi_true)
        self.points = grid.points.tolist()
        self.laws: dict[int, OutcomeLaw] = {}
        prior = uniform_posterior(grid)
        self.log_w0 = float(prior.log_weights[0])
        # theta policies: the first feedback index here, then the next after
        # each step from _advance_<mode>, for as long as that can move it
        if config.mode == MODE_FIXED:
            self.j_first = grid.index_of(config.fixed_theta)
        elif config.mode == MODE_LADDER:
            self.j_first = self._ramp_index(1, map_estimate(prior), 0.0)
        else:
            theta0 = grid.midpoint if config.initial_theta is None else config.initial_theta
            self.j_first = grid.index_of(theta0)

    def _advance_fixed(self, k: int, trial: _Trial, log_w: np.ndarray, top: int) -> None:
        # map_jumps counts MAP moves beyond peak_min_separation. m_threshold:
        # the first step with a rival at least rival_height_ratio as tall as
        # the primary. detect_peaks runs only where the exact log-space screen
        # rival_possible allows one.
        cfg = self.config
        map_est = self.points[top]
        if k > 1 and abs(map_est - trial.map_est) > cfg.peak_min_separation:
            trial.map_jumps += 1
        trial.map_est = map_est
        if trial.m_threshold is None and rival_possible(
            log_w, self.grid, cfg.peak_min_separation, cfg.rival_height_ratio
        ):
            report = detect_peaks(
                Posterior(self.grid, log_w), cfg.peak_min_separation, cfg.rival_height_ratio
            )
            if report.secondary is not None:
                trial.m_threshold = k

    def _ramp_index(self, k: int, map_est: float, theta_prev: float) -> int:
        cfg = self.config
        cap = cfg.ramp_cap_fraction * map_est
        ramp = (k / cfg.pre_rounds) * cap
        theta_raw = min(max(theta_prev, ramp), cap)
        return self.grid.floor_index(max(theta_raw, self.grid.lo))

    def _advance_ladder(self, k: int, trial: _Trial, log_w: np.ndarray, top: int) -> None:
        # called for the rough stage only: the lock stage holds theta
        cfg = self.config
        if k < cfg.pre_rounds:
            # the ramp never falls below the theta just measured at
            trial.j = self._ramp_index(k + 1, self.points[top], self.points[trial.j])
        else:
            trial.phi_rough = self.points[top]
            trial.j = self.grid.index_of(cfg.final_fraction * trial.phi_rough)

    def _advance_optimal(self, k: int, trial: _Trial, log_w: np.ndarray, top: int) -> None:
        # the MAP's own index: grid.index_of(points[t]) == t for every t
        trial.j = top

    # -- the one stepping loop -----------------------------------------------
    def run(self, seed: int):
        """Run seed's trial to its end: its TrialRecord, or the SU11Error
        that ended it (returned, not raised: a traceback would pin this frame)."""
        cfg, model, tables, windows = self.config, self.model, self.tables, self.windows
        points, laws, scheme, n_max = self.points, self.laws, model.scheme, tables.n_max
        # looked up per trial: a bound method kept on self would make a cycle
        # that holds the model until a full garbage collection
        advance, keep_steps = getattr(self, f"_advance_{cfg.mode}"), self.keep_steps
        moving = cfg.pre_rounds if cfg.mode == MODE_LADDER else cfg.measurements
        trial = _Trial(seed, self.j_first)
        uniform = _uniform_source(np.random.default_rng(trial.seed))
        log_w = np.full(self.grid.n_points, self.log_w0)
        for k in range(1, cfg.measurements + 1):
            j = trial.j
            law = laws.get(j)
            if law is None:
                law = laws[j] = outcome_law(model, self.phi_true - points[j])
            code = law.draw_code(uniform)
            peak, top = log_step(
                log_w,
                windows[code, j] if code <= n_max else tables.log_row(outcome_of_code(scheme, code), j),
            )
            if not math.isfinite(peak):
                label = outcome_of_code(scheme, code).label()
                return DegenerateRowError(f"outcome {label} at step {k} leaves zero posterior mass")
            if keep_steps:
                trial.steps.append(
                    StepRecord(
                        step=k,
                        theta=points[j],
                        outcome=outcome_of_code(scheme, code),
                        map_estimate=points[top],
                    )
                )
            if k <= moving:
                advance(k, trial, log_w, top)
        return self._finish(trial, log_w)

    def _finish(self, trial: _Trial, log_w: np.ndarray) -> TrialRecord:
        # the peak report, the prune valley, the edge mass and the moments
        # all read the posterior's one density
        cfg, grid, model = self.config, self.grid, self.model
        post = Posterior(grid, log_w)
        report = detect_peaks(post, cfg.peak_min_separation, cfg.peak_height_floor)
        pruned = cfg.mode == MODE_LADDER and report.secondary is not None
        if pruned:
            post = prune_secondary(post, report)
        d = density(post)
        edge = float(d[:_EDGE_CELLS].sum() + d[-_EDGE_CELLS:].sum()) * grid.spacing > _EDGE_MASS_TOL
        fixed = cfg.mode == MODE_FIXED
        return TrialRecord(
            seed=trial.seed,
            config=cfg,
            scheme=model.scheme.value,
            mean_photons=model.mean_photons,
            squeeze_r=model.params.squeeze_r,
            grid_lo=grid.lo,
            grid_hi=grid.hi,
            grid_points=grid.n_points,
            phi_true=self.phi_true,
            steps=tuple(trial.steps),
            final_map=map_estimate(post),
            final_mean=posterior_mean(post),
            final_variance=posterior_variance(post),
            peaks=report,
            m_threshold=trial.m_threshold if fixed else None,
            map_jumps=trial.map_jumps if fixed else None,
            phi_rough=trial.phi_rough,
            pruned=pruned,
            edge_mass=edge,
        )
