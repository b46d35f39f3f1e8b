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
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .errors import DegenerateRowError, ResidualMassError, SU11Error
from .measurement import (
    LikelihoodGrid,
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
    Peak,
    PhaseGrid,
    Posterior,
    density,
    detect_peaks,
    map_estimate,
    mean_from_density,
    peaks_from_density,
    prune_from_density,
    rival_possible,
    uniform_posterior,
    variance_from_density,
)

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps these names at this import site.
from .measurement import sample  # noqa: F401
from .posterior import posterior_mean, posterior_variance, prune_secondary  # noqa: F401

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
    """Run one trial of whichever protocol the config selects.

    This is run_trials on a single seed. The SU11Error that ended the
    trial, if any, is raised.
    """
    result = run_trials(config, model, grid, [seed], keep_steps=keep_steps, tables=tables)[0]
    if isinstance(result, SU11Error):
        raise result
    return result


_BLOCK = 8


def run_trials(
    config: ProtocolConfig,
    model: LikelihoodModel,
    grid: PhaseGrid,
    seeds,
    *,
    keep_steps: bool = False,
    tables: LikelihoodGrid | None = None,
) -> list:
    """Run one trial per seed; entry i is seed i's TrialRecord or SU11Error.

    Every trial measures at a feedback index theta_j, draws an outcome at
    the offset phi_true - theta_j from its own Generator, adds the log row
    of that outcome to its log weights, subtracts their new maximum and
    takes the MAP from the argmax. The modes differ only in how theta
    moves; each is described in the module docstring.

    Trials run in lockstep blocks of _BLOCK seeds. A block keeps its log
    weights as one (B, N) matrix, gathers the rows of its outcomes from the
    stacked log table in one copy and applies the same IEEE operations to
    each element as a lone trial would, so each record is bit-identical to
    running its seed alone. Outcome laws are cached per theta index, which
    is exact because phi_true is fixed for the call and each trial still
    makes the same draws from its own Generator in the same order.

    A trial that fails with an SU11Error (a ResidualMassError draw or a
    degenerate update) leaves the block; the others carry on undisturbed.
    Any other exception, such as a ValueError from an invalid config,
    propagates.
    """
    engine = _Engine(config, model, grid, keep_steps, tables)
    seeds = list(seeds)
    results: list = []
    for start in range(0, len(seeds), _BLOCK):
        results.extend(engine.run_block(seeds[start : start + _BLOCK]))
    return results


class _Trial:
    """The per-trial state of a lockstep block."""

    __slots__ = (
        "seed", "rng", "j", "map_est", "steps", "phi_rough", "m_threshold", "map_jumps",
    )

    def __init__(self, seed: int, j: int, map_est: float):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.j = j  # feedback index of the next step
        self.map_est = map_est
        self.steps: list[StepRecord] = []
        self.phi_rough: float | None = None
        self.m_threshold: int | None = None
        self.map_jumps = 0


class _Engine:
    """One protocol config on one model and grid; runs blocks of seeds."""

    def __init__(self, config, model, grid, keep_steps, tables):
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
        self.tables = tables if tables is not None else shared_grid_tables(model, grid)
        self.phi_true = grid.snap(config.phi_true)
        self.points = grid.points.tolist()
        self.laws: dict[int, OutcomeLaw] = {}
        prior = uniform_posterior(grid)
        self.log_w0 = float(prior.log_weights[0])
        self.map0 = map_estimate(prior)
        # theta policies: the first feedback index, then the next after each step
        if config.mode == MODE_FIXED:
            self.j_first = grid.index_of(config.fixed_theta)
            self.advance = self._advance_fixed
        elif config.mode == MODE_LADDER:
            self.j_first = self._ramp_index(1, self.map0, 0.0)
            self.advance = self._advance_ladder
        else:
            theta0 = grid.midpoint if config.initial_theta is None else config.initial_theta
            self.j_first = grid.index_of(theta0)
            self.advance = self._advance_optimal

    def _advance_fixed(self, k: int, trial: _Trial, log_w: np.ndarray) -> None:
        # m_threshold: the first step with a rival at least rival_height_ratio
        # as tall as the primary. detect_peaks runs only where the exact
        # log-space screen rival_possible allows one.
        cfg = self.config
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

    def _advance_ladder(self, k: int, trial: _Trial, log_w: np.ndarray) -> None:
        cfg = self.config
        if k < cfg.pre_rounds:
            # the ramp never falls below the theta just measured at
            trial.j = self._ramp_index(k + 1, trial.map_est, self.points[trial.j])
        elif k == cfg.pre_rounds:
            trial.phi_rough = trial.map_est
            trial.j = self.grid.index_of(cfg.final_fraction * trial.phi_rough)

    def _advance_optimal(self, k: int, trial: _Trial, log_w: np.ndarray) -> None:
        trial.j = self.grid.index_of(trial.map_est)

    # -- the one stepping loop -----------------------------------------------
    def run_block(self, seeds: list) -> list:
        cfg, grid, model, tables = self.config, self.grid, self.model, self.tables
        points, laws, scheme = self.points, self.laws, model.scheme
        n_max = tables.n_max
        windows = tables.log_windows()
        advance, keep_steps = self.advance, self.keep_steps
        fixed = cfg.mode == MODE_FIXED
        sep = cfg.peak_min_separation
        results: list = [None] * len(seeds)
        live = [(slot, _Trial(seed, self.j_first, self.map0)) for slot, seed in enumerate(seeds)]
        log_w = np.full((len(live), grid.n_points), self.log_w0)
        for k in range(1, cfg.measurements + 1):
            codes, rows, cols, tails, drawn = [], [], [], [], []
            for slot, trial in live:
                j = trial.j
                law = laws.get(j)
                if law is None:
                    law = laws[j] = outcome_law(model, self.phi_true - points[j])
                try:
                    code = law.draw_code(trial.rng)
                except ResidualMassError as exc:
                    # without its traceback, which would pin this frame
                    results[slot] = exc.with_traceback(None)
                    continue
                if code > n_max:
                    tails.append(len(rows))
                codes.append(code)
                rows.append(min(code, n_max))
                cols.append(j)
                drawn.append((slot, trial))
            if len(drawn) < len(live):
                log_w = log_w[[i for i, (slot, _) in enumerate(live) if results[slot] is None]]
                live = drawn
                if not live:
                    break
            gathered = windows[rows, cols]
            for i in tails:
                gathered[i] = tables.log_row(outcome_of_code(scheme, codes[i]), cols[i])
            log_w += gathered
            peak = log_w.max(axis=1)
            if not all(map(math.isfinite, peak.tolist())):
                keep = []
                for i, (slot, trial) in enumerate(live):
                    if math.isfinite(peak[i]):
                        keep.append(i)
                    else:
                        label = outcome_of_code(scheme, codes[i]).label()
                        results[slot] = DegenerateRowError(
                            f"outcome {label} at step {k} leaves zero posterior mass"
                        )
                live = [live[i] for i in keep]
                codes = [codes[i] for i in keep]
                log_w, peak = log_w[keep], peak[keep]
                if not live:
                    break
            log_w -= peak[:, None]  # keep each running maximum at 0
            tops = log_w.argmax(axis=1).tolist()
            for i, (slot, trial) in enumerate(live):
                map_est = points[tops[i]]
                if fixed and k > 1 and abs(map_est - trial.map_est) > sep:
                    trial.map_jumps += 1
                trial.map_est = map_est
                if keep_steps:
                    trial.steps.append(
                        StepRecord(
                            step=k,
                            theta=points[trial.j],
                            outcome=outcome_of_code(scheme, codes[i]),
                            map_estimate=map_est,
                        )
                    )
                advance(k, trial, log_w[i])
        for i, (slot, trial) in enumerate(live):
            results[slot] = self._finish(trial, log_w[i])
        return results

    def _finish(self, trial: _Trial, log_w: np.ndarray) -> TrialRecord:
        # one density per posterior: the peak report, the prune valley, the
        # edge mass and the moments all read it
        cfg, grid, model = self.config, self.grid, self.model
        post = Posterior(grid, log_w)
        d = density(post)
        report = peaks_from_density(d, grid, cfg.peak_min_separation, cfg.peak_height_floor)
        pruned = False
        if cfg.mode == MODE_LADDER and report.secondary is not None:
            post = prune_from_density(post, report, d)
            d = density(post)
            pruned = True
        h = grid.spacing
        edge = float(d[:_EDGE_CELLS].sum() + d[-_EDGE_CELLS:].sum()) * h > _EDGE_MASS_TOL
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
            final_mean=mean_from_density(d, grid),
            final_variance=variance_from_density(d, grid),
            peaks=report,
            m_threshold=trial.m_threshold if fixed else None,
            map_jumps=trial.map_jumps if fixed else None,
            phi_rough=trial.phi_rough,
            pruned=pruned,
            edge_mass=edge,
        )
