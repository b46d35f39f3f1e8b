"""Single-trial estimation protocols with per-step feedback.

One function, run_trials, runs all three strategies in one loop. Each
measures at a feedback phase theta on the grid, observes an outcome at
offset phi_true - theta, and applies a grid Bayes update; they differ only
in how theta moves after a step, which one branch of that loop decides.
With theta fixed, the law of every draw is the same whatever the posterior
holds, so a fixed-theta trial draws all its outcomes first, and its state
after k steps is a function of its first k outcomes alone: trials whose
outcomes share a prefix run the steps of that prefix once, with the same
bits as if each ran them itself. The moving modes draw as they go and
share nothing.

fixed      theta never moves. Useful for studying when the posterior first
           resolves the sign ambiguity of a symmetric likelihood:
           m_threshold is the first step at which the posterior shows a
           distinct rival at least RIVAL_HEIGHT_RATIO (half) as tall as the
           primary (None if that never happens), and map_jumps counts steps
           whose MAP moved by more than posterior.PEAK_MIN_SEPARATION.
ladder     photon counting with a ramped feedback schedule. Rough stage
           (pre_rounds steps): theta climbs along a linear ramp toward
           ramp_cap_fraction of the running MAP and never exceeds that cap,
           so the working offset keeps a definite sign while the posterior
           is still ambiguous; theta is snapped down onto the grid to keep
           the cap exact. Lock stage: theta holds at final_fraction of the
           rough MAP (phi_rough). A surviving rival mode is pruned before
           the final statistics are read off.
optimal    the two-outcome scheme with plain greedy feedback: the first step
           measures at the grid midpoint, and afterwards theta chases the
           running MAP so the working offset stays near zero, where the
           scheme saturates the quantum bound. It has no tuning of its own.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain

import numpy as np

from ._version import __version__
from .errors import DegenerateRowError, SU11Error
from .measurement import (
    LikelihoodModel,
    Outcome,
    Scheme,
    outcome_law,
    outcome_of_code,
    shared_grid_tables,
)
from .posterior import (
    PEAK_HEIGHT_FLOOR,
    PEAK_MIN_SEPARATION,
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
    rival_screen,
    uniform_posterior,
)

# Not called here, but kept importable from this module: the span tracer in
# perfbench/trace_spans.py wraps this name at this import site.
from .measurement import sample  # noqa: F401

MODE_FIXED = "fixed"
MODE_LADDER = "ladder"
MODE_OPTIMAL = "optimal"
# The ProtocolConfig fields that shape one mode and no other. A mode reads
# only its own; every other field of this table must keep its default.
MODE_FIELDS = {
    MODE_FIXED: ("fixed_theta",),
    MODE_LADDER: ("pre_rounds", "ramp_cap_fraction", "final_fraction"),
    MODE_OPTIMAL: (),
}
TRIAL_SCHEMA = "su11sim/trial/v1"

_EDGE_CELLS = 5
_EDGE_MASS_TOL = 1e-6
# m_threshold's "half height": the least height, relative to the primary's,
# at which a fixed-theta run counts a rival mode as breaking the ambiguity
RIVAL_HEIGHT_RATIO = 0.5
# Settings that are no longer settable: to_dict still writes each at its one
# value, so artifacts keep their bytes and configs written by earlier versions
# still load; from_dict refuses any other value
_ECHOES = {"initial_theta": None, "peak_min_separation": PEAK_MIN_SEPARATION,
           "peak_height_floor": PEAK_HEIGHT_FLOOR, "rival_height_ratio": RIVAL_HEIGHT_RATIO}


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


def known_keys(what: str, d, cls, echoes: dict) -> dict:
    """d without its echo keys, once d is a JSON object whose echo keys hold
    their one value and whose other keys are cls's fields, required ones
    included; ValueError names the first key that is not."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    for key, value in echoes.items():
        if key in d and d[key] != value:
            raise ValueError(f"{key} must be {value!r}, got {d[key]!r}")
    d = {k: v for k, v in d.items() if k not in echoes}
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    for problem, keys in (("unknown", set(d) - names), ("missing", required - set(d))):
        if keys:
            raise ValueError(f"{what} has {problem} key(s) {', '.join(map(repr, sorted(keys)))}")
    return d


@dataclass(frozen=True)
class ProtocolConfig:
    """The paper's protocol parameters and nothing else: the mode, the
    budget, the phases and the feedback settings of the mode (MODE_FIELDS).
    The fields of another mode stay at their defaults. phi_true may stay
    None in a template and be filled per campaign cell. to_dict, a record's
    config and a campaign's protocol, writes every field, and also the
    retired settings at their one value (_ECHOES)."""

    mode: str
    measurements: int = 1000
    phi_true: float | None = None
    fixed_theta: float | None = None
    pre_rounds: int = 100
    ramp_cap_fraction: float = 0.5
    final_fraction: float = 0.93

    def __post_init__(self) -> None:
        if self.mode not in MODE_FIELDS:
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        require_reals(self, ("phi_true",), optional=True)
        if not (type(self.measurements) is int and self.measurements >= 1):
            raise ValueError(f"measurements must be an integer >= 1, got {self.measurements!r}")
        foreign = set(chain(*MODE_FIELDS.values())) - set(MODE_FIELDS[self.mode])
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in foreign and not (type(v) is type(f.default) and v == f.default):
                raise ValueError(
                    f"{f.name} is not read in {self.mode} mode and must stay {f.default!r}, "
                    f"got {v!r}"
                )
        if self.mode == MODE_FIXED:
            require_reals(self, ("fixed_theta",))
        elif self.mode == MODE_LADDER:
            if type(self.pre_rounds) is not int:
                raise ValueError(f"pre_rounds must be an integer, got {self.pre_rounds!r}")
            require_reals(self, ("ramp_cap_fraction", "final_fraction"))
            if not 1 <= self.pre_rounds < self.measurements:
                raise ValueError(f"pre_rounds must lie in [1, measurements), got {self.pre_rounds!r}")
            if not (0.0 < self.ramp_cap_fraction < 1.0):
                raise ValueError(f"ramp_cap_fraction must lie in (0, 1), got {self.ramp_cap_fraction!r}")
            if not (0.0 < self.final_fraction < 1.0):
                raise ValueError(f"final_fraction must lie in (0, 1), got {self.final_fraction!r}")

    def to_dict(self) -> dict:
        return asdict(self) | _ECHOES

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolConfig":
        """Read to_dict's layout; a missing, unknown or mistyped key, another
        mode's field away from its default, or an echo at any other value,
        raises ValueError naming it."""
        return cls(**known_keys("protocol", d, cls, _ECHOES))


@dataclass(frozen=True)
class StepRecord:
    step: int
    theta: float
    outcome: Outcome
    map_estimate: float


@dataclass(frozen=True)
class TrialRecord:
    """Everything needed to audit or replay one trial.

    Replay means re-running: ProtocolConfig.from_dict(config) on
    make_model(scheme, mean_photons) and the recorded grid with seed gives
    the same record. The table's n_max is not recorded, so only a table at
    the default n_max replays; its truncation tolerance is the one fixed
    tmsq.TAIL_TOL.
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
            "config": self.config.to_dict(),
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
# bytes of drawn outcome codes and saved step states one block of trials may hold
WALK_BYTES = 1 << 22


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
    differ only in how theta moves after each step, which one branch of the
    loop decides; each policy is described in the module docstring.

    All trials use the model's one cached table for this grid
    (shared_grid_tables): a step adds a view of the outcome's row of the
    stacked log table to the trial's one row of log weights. Outcome laws
    are cached per theta index, which is exact because phi_true is fixed for
    the call and each trial still draws the same uniforms from its own
    Generator in the same order (_uniform_source).

    Consecutive seeds run in blocks that hold at most WALK_BYTES of drawn
    codes (8 bytes each as drawn) and saved states (8 bytes per grid point)
    in all. In fixed mode theta never moves, so the law of
    every step is the same and a trial's M outcome codes do not depend on
    its posterior: each trial draws all of them up front, and its state
    after k steps (log weights, MAP, map_jumps, m_threshold, steps) is a
    function of its first k codes alone. The block's trials then walk the
    prefix tree of their code rows (_prefix_walk): each resumes from a copy
    of the state the trials before it saved at the prefix they share, runs
    only its remaining steps, and ends in its own _finish. The state it
    resumes from went through the same arithmetic on the same codes, so the
    record is the one a run from step 1 gives, bit for bit. Ladder and
    optimal trials move theta by their posterior, so they draw as they go,
    share nothing and run in seed order from step 1. Either way a record
    depends only on its seed, never on the other seeds of the call. So do
    fixed-mode trials whose codes and state are too large for two of them
    to share the budget.

    A trial that fails with an SU11Error (a degenerate update) ends there
    and yields that error; the others are undisturbed. Any other exception,
    such as a ValueError from an invalid config, propagates.
    """
    mode = config.mode
    expected = scheme_for_mode(mode)
    if model.scheme is not expected:
        raise ValueError(
            f"mode {mode!r} needs scheme {expected.value!r}, got {model.scheme.value!r}"
        )
    if config.phi_true is None:
        raise ValueError("phi_true must be set before running a trial")
    tables = shared_grid_tables(model, grid)
    windows, n_max, scheme = tables.log_windows(), tables.n_max, model.scheme
    phi_true = grid.snap(config.phi_true)
    points = grid.points.tolist()
    prior = uniform_posterior(grid)
    log_w0 = float(prior.log_weights[0])
    sep, ratio = PEAK_MIN_SEPARATION, RIVAL_HEIGHT_RATIO
    screen = rival_screen(grid, sep, ratio)
    measurements = config.measurements
    # the first feedback index; theta moves after each of the first `moving` steps
    moving = measurements
    if mode == MODE_FIXED:
        j_first = grid.index_of(config.fixed_theta)
    elif mode == MODE_LADDER:
        j_first, moving = _ramp_index(config, grid, 1, map_estimate(prior), 0.0), config.pre_rounds
    else:
        j_first = grid.index_of(grid.midpoint)
    drawn = measurements if mode == MODE_FIXED else 0  # codes a trial draws before its walk
    if 2 * 8 * (drawn + grid.n_points) > WALK_BYTES:
        drawn = 0  # no two trials' codes and states fit, so none could share a step
    block = max(1, WALK_BYTES // (8 * (drawn + grid.n_points)))
    laws = {j_first: outcome_law(model, phi_true - points[j_first])}
    seeds = [int(seed) for seed in seeds]
    results = [None] * len(seeds)
    for start in range(0, len(seeds), block):
        block_seeds = seeds[start : start + block]
        codes = np.array([_draw_codes(laws[j_first], s, drawn) for s in block_seeds], np.int64)
        codes = codes.astype(np.min_scalar_type(int(codes.max(initial=0))))
        order, resume, saves = _prefix_walk(codes)
        # states saved for later trials, depths increasing, from the prior's:
        # (depth, log_w, map_prev, map_jumps, m_threshold, steps)
        map_jumps = 0 if mode == MODE_FIXED else None
        saved = [(0, np.full(grid.n_points, log_w0), None, map_jumps, None, [])]
        for i, depth, pending in zip(order, resume, saves):
            while saved[-1][0] > depth:
                saved.pop()
            k0, log_w, map_prev, map_jumps, m_threshold, steps = saved[-1]
            log_w, steps, row = log_w.copy(), list(steps), codes[i].tolist()
            seed, j, phi_rough = block_seeds[i], j_first, None
            # a trial whose codes were drawn up front draws nothing more
            uniform = None if drawn else _uniform_source(np.random.default_rng(seed))
            save_at = pending.pop() if pending else 0
            for k in range(k0 + 1, measurements + 1):
                if k > drawn:
                    law = laws.get(j)
                    if law is None:
                        law = laws[j] = outcome_law(model, phi_true - points[j])
                    code = law.draw_code(uniform)
                else:
                    code = row[k - 1]
                peak, top = log_step(
                    log_w,
                    windows[code, j] if code <= n_max
                    else tables.log_row(outcome_of_code(scheme, code), j),
                )
                if not math.isfinite(peak):
                    label = outcome_of_code(scheme, code).label()
                    error = f"outcome {label} at step {k} leaves zero posterior mass"
                    results[start + i] = DegenerateRowError(error)
                    break
                if keep_steps:
                    steps.append(
                        StepRecord(
                            step=k,
                            theta=points[j],
                            outcome=outcome_of_code(scheme, code),
                            map_estimate=points[top],
                        )
                    )
                if k > moving:  # the ladder's lock stage holds theta
                    continue
                if mode == MODE_OPTIMAL:
                    j = top  # the MAP's own index: grid.index_of(points[t]) == t
                elif mode == MODE_LADDER:
                    if k < config.pre_rounds:
                        # the ramp never falls below the theta just measured at
                        j = _ramp_index(config, grid, k + 1, points[top], points[j])
                    else:
                        phi_rough = points[top]
                        j = grid.index_of(config.final_fraction * phi_rough)
                else:
                    # map_jumps counts MAP moves beyond PEAK_MIN_SEPARATION.
                    # m_threshold: the first step with a rival at least
                    # RIVAL_HEIGHT_RATIO as tall as the primary. detect_peaks runs
                    # only where the exact log-space screen allows one; log_step
                    # left the maximum of log_w at exactly 0.0.
                    map_est = points[top]
                    if k > 1 and abs(map_est - map_prev) > sep:
                        map_jumps += 1
                    map_prev = map_est
                    if m_threshold is None and screen(log_w, 0.0):
                        if detect_peaks(Posterior(grid, log_w), sep, ratio).secondary is not None:
                            m_threshold = k
                    if k == save_at:  # a later trial resumes here
                        saved.append((k, log_w.copy(), map_prev, map_jumps, m_threshold, steps[:]))
                        save_at = pending.pop() if pending else 0
            else:
                results[start + i] = _finish(
                    config, model, grid, log_w, seed=seed, phi_true=phi_true, steps=tuple(steps),
                    phi_rough=phi_rough, m_threshold=m_threshold, map_jumps=map_jumps,
                )
    return results


def _prefix_walk(codes: np.ndarray):
    """The walk of a block of trials whose outcome codes were drawn up front,
    one row per trial: (order, resume, saves), one entry per walk position.

    order sorts the rows, so rows sharing a prefix stand together. The
    trial at position t resumes after resume[t] steps, the prefix it shares
    with the row before it (0 for the first), and saves its state after
    each step count in saves[t], a list in descending order. That list
    holds the resume depth of every later position u whose nearest earlier
    position with a smaller resume depth is t: every trial between them
    shares at least resume[u] codes with both, and none of them runs that
    step, so t is the last to pass it. Rows of no codes (moving modes) keep
    their order, resume at 0 and save nothing.
    """
    keys = [row.tobytes() for row in codes]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    resume = [0]
    for a, b in zip(order, order[1:]):
        differ = np.flatnonzero(codes[a] != codes[b])
        resume.append(int(differ[0]) if differ.size else codes.shape[1])
    saves = [[] for _ in order]
    lower = []  # positions whose resume depths increase strictly
    for u, depth in enumerate(resume):
        while lower and resume[lower[-1]] >= depth:
            lower.pop()
        if lower and saves[lower[-1]][-1:] != [depth]:
            saves[lower[-1]].append(depth)
        lower.append(u)
    return order, resume, saves


def _draw_codes(law, seed: int, count: int) -> list:
    """The first count outcome codes a trial of this seed draws under law."""
    if not count:
        return []
    uniform = _uniform_source(np.random.default_rng(seed))
    return [law.draw_code(uniform) for _ in range(count)]


def _uniform_source(rng: np.random.Generator):
    """A zero-argument source of the floats successive rng.random() calls
    return, drawn CHUNK at a time. Surplus draws die with the trial's own
    Generator, which nothing else reads."""
    return chain.from_iterable(iter(lambda: rng.random(CHUNK).tolist(), None)).__next__


def _ramp_index(config, grid, k: int, map_est: float, theta_prev: float) -> int:
    """The ladder's rough-stage feedback index for step k: the linear ramp
    toward ramp_cap_fraction of map_est, at least theta_prev and at most
    the cap, snapped down onto the grid."""
    cap = config.ramp_cap_fraction * map_est
    ramp = (k / config.pre_rounds) * cap
    theta_raw = min(max(theta_prev, ramp), cap)
    return grid.floor_index(max(theta_raw, grid.lo))


def _finish(config, model, grid, log_w, **trial) -> TrialRecord:
    """The record of a trial whose posterior ended at log_w; trial holds its
    per-trial fields. The peak report, the prune valley, the edge mass and
    the moments all read the posterior's one density."""
    post = Posterior(grid, log_w)
    report = detect_peaks(post, PEAK_MIN_SEPARATION, PEAK_HEIGHT_FLOOR)
    pruned = config.mode == MODE_LADDER and report.secondary is not None
    if pruned:
        post = prune_secondary(post, report)
    d = density(post)
    edge = float(d[:_EDGE_CELLS].sum() + d[-_EDGE_CELLS:].sum()) * grid.spacing > _EDGE_MASS_TOL
    return TrialRecord(
        config=config,
        scheme=model.scheme.value,
        mean_photons=model.mean_photons,
        squeeze_r=model.params.squeeze_r,
        grid_lo=grid.lo,
        grid_hi=grid.hi,
        grid_points=grid.n_points,
        final_map=map_estimate(post),
        final_mean=posterior_mean(post),
        final_variance=posterior_variance(post),
        peaks=report,
        pruned=pruned,
        edge_mass=edge,
        **trial,
    )
