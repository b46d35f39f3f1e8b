"""Detection models at the interferometer output.

Two schemes are supported. The photon-number scheme resolves the twin-pair
count n at the output. The optimal scheme distinguishes two coherent
superpositions of the zero-pair and one-pair components (labelled plus and
minus) and lumps every n >= 2 event into a pair-resolved null record; its
Fisher information saturates the quantum bound at zero offset.

A closed-form route exists for every probability because the output state is
always a phase-twisted twin-beam state: the pair distribution is geometric,
p(n) = (1 - v) v^n, with v the pair ratio below. Production likelihoods for
n <= n_max come from the truncated amplitude tables; the geometric form
drives exact sampling and the n > n_max tail. Tests cross-check the two
routes against each other and against brute-force sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ResidualMassError
from .posterior import LOG_FLOOR, PhaseGrid
from .tmsq import OpaParams, SchmidtTable, build_schmidt_table, pair_amplitude_matrix

POLICY_EXACT_TAIL = "exact_tail"
POLICY_RENORMALIZE = "renormalize"

_PMF_FLOOR = 1e-14
_CHUNK = 1024


class Scheme(str, Enum):
    PHOTON_NUMBER = "photon"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class Outcome:
    """One detection event.

    kind is one of pair, plus, minus, null. Pair outcomes carry the detected
    pair count; null outcomes (optimal scheme, n >= 2) also record it.
    """

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "pair":
            if not (isinstance(self.n, int) and self.n >= 0):
                raise ValueError(f"pair outcome needs n >= 0, got {self.n!r}")
        elif self.kind in ("plus", "minus"):
            if self.n is not None:
                raise ValueError(f"{self.kind} outcome carries no pair count")
        elif self.kind == "null":
            if not (isinstance(self.n, int) and self.n >= 2):
                raise ValueError(f"null outcome needs n >= 2, got {self.n!r}")
        else:
            raise ValueError(f"unknown outcome kind {self.kind!r}")

    @classmethod
    def pair(cls, n: int) -> "Outcome":
        return cls(kind="pair", n=n)

    @classmethod
    def plus(cls) -> "Outcome":
        return cls(kind="plus")

    @classmethod
    def minus(cls) -> "Outcome":
        return cls(kind="minus")

    @classmethod
    def null(cls, n: int) -> "Outcome":
        return cls(kind="null", n=n)

    def label(self) -> str:
        if self.n is None:
            return self.kind
        return f"{self.kind}:{self.n}"

    @classmethod
    def parse_label(cls, label: str) -> "Outcome":
        kind, _, tail = label.partition(":")
        return cls(kind=kind, n=int(tail) if tail else None)


@dataclass(frozen=True, eq=False)
class LikelihoodModel:
    """A detection scheme bound to one amplifier setting and its tables."""

    scheme: Scheme
    table: SchmidtTable
    residual_policy: str = POLICY_EXACT_TAIL
    residual_tol: float = 1e-6
    # shared_grid_tables' cache, keyed by grid; owned here so it goes with the model
    _grid_tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.residual_policy not in (POLICY_EXACT_TAIL, POLICY_RENORMALIZE):
            raise ValueError(f"unknown residual policy {self.residual_policy!r}")
        if not (0.0 < self.residual_tol < 1.0):
            raise ValueError(f"residual_tol must lie in (0, 1), got {self.residual_tol!r}")

    @property
    def params(self) -> OpaParams:
        return self.table.params

    @property
    def mean_photons(self) -> float:
        return self.table.params.mean_photons

    @property
    def n_max(self) -> int:
        return self.table.n_max


def make_model(
    scheme: Scheme | str,
    mean_photons: float | None = None,
    *,
    params: OpaParams | None = None,
    tail_tol: float = 1e-12,
    n_max: int = 16,
    residual_policy: str = POLICY_EXACT_TAIL,
    residual_tol: float = 1e-6,
) -> LikelihoodModel:
    """Convenience builder: amplifier params, coefficient table, model."""
    if (mean_photons is None) == (params is None):
        raise ValueError("give exactly one of mean_photons or params")
    if params is None:
        params = OpaParams.from_mean_photons(mean_photons)
    table = build_schmidt_table(params, tail_tol=tail_tol, n_max=n_max)
    return LikelihoodModel(
        scheme=Scheme(scheme),
        table=table,
        residual_policy=residual_policy,
        residual_tol=residual_tol,
    )


def pair_ratio(params: OpaParams, delta_phi):
    """Ratio v of consecutive pair-count probabilities, p(n+1)/p(n).

    The output pair distribution is exactly geometric, p(n) = (1 - v) v^n,
    with v = 2 x (1 - cos u) / (1 - 2 x cos u + x^2) and x = tanh^2 r.
    v vanishes at zero offset and stays strictly below 1.
    """
    u = np.asarray(delta_phi, dtype=np.float64)
    x = math.tanh(params.squeeze_r) ** 2
    dsq = 1.0 - 2.0 * x * np.cos(u) + x * x
    v = 2.0 * x * (1.0 - np.cos(u)) / dsq
    return float(v) if np.isscalar(delta_phi) else v


def detection_asymmetry(params: OpaParams, delta_phi):
    """Signed probability gap p(minus) - p(plus) of the optimal scheme.

    Odd in the offset and positive for small positive offsets; this linear
    response is what makes the scheme saturate the quantum bound near zero.
    """
    u = np.asarray(delta_phi, dtype=np.float64)
    r = params.squeeze_r
    x = math.tanh(r) ** 2
    t = math.tanh(r)
    s2 = math.sinh(r) ** 2
    dsq = 1.0 - 2.0 * x * np.cos(u) + x * x
    gap = 2.0 * (t / s2) * x * (1.0 - x) ** 2 * np.sin(u) / (dsq * dsq)
    return float(gap) if np.isscalar(delta_phi) else gap


def _plus_minus_from_amps(a0, a1):
    """Outcome probabilities of the optimal scheme from the two amplitudes."""
    p0 = np.abs(a0) ** 2
    p1 = np.abs(a1) ** 2
    cross = np.imag(a0 * np.conj(a1))
    return 0.5 * (p0 + p1) + cross, 0.5 * (p0 + p1) - cross


def _tail_log_prob(v: float, n: int) -> float:
    if v <= 0.0:
        return -math.inf
    return math.log1p(-v) + n * math.log(v)


def likelihood(model: LikelihoodModel, outcome: Outcome, delta_phi: float) -> float:
    """Probability of one outcome at a phase offset.

    Pair counts up to n_max use the amplitude table; deeper counts use the
    exact geometric tail, which agrees with the table route to near machine
    precision everywhere both are defined.
    """
    _require_scheme(model, outcome)
    u = float(delta_phi)
    n = outcome.n
    if outcome.kind in ("pair", "null"):
        if n <= model.table.n_max:
            amp = pair_amplitude_matrix(model.table, np.array([u]))[0, n]
            return float(abs(amp) ** 2)
        v = pair_ratio(model.params, u)
        lp = _tail_log_prob(v, n)
        return 0.0 if lp == -math.inf else math.exp(lp)
    amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
    p_plus, p_minus = _plus_minus_from_amps(amps[0], amps[1])
    p = p_plus if outcome.kind == "plus" else p_minus
    return float(max(p, 0.0))


def _require_scheme(model: LikelihoodModel, outcome: Outcome) -> None:
    photon = outcome.kind == "pair"
    if photon != (model.scheme is Scheme.PHOTON_NUMBER):
        raise ValueError(
            f"outcome {outcome.label()!r} does not belong to scheme {model.scheme.value!r}"
        )


def pmf(model: LikelihoodModel, delta_phi: float, floor: float = _PMF_FLOOR):
    """Enumerate all outcomes with probability above floor at one offset.

    Returns (outcomes, probabilities) in a deterministic order: pair counts
    ascending for the photon scheme; plus, minus, then null counts ascending
    for the optimal scheme. The geometric tail is followed past n_max until
    it drops below floor.
    """
    u = float(delta_phi)
    amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
    pair_probs = np.abs(amps) ** 2
    v = pair_ratio(model.params, u)
    if model.scheme is Scheme.PHOTON_NUMBER:
        outcomes = [Outcome.pair(n) for n in range(model.table.n_max + 1)]
        probs = list(pair_probs)
    else:
        p_plus, p_minus = _plus_minus_from_amps(amps[0], amps[1])
        outcomes = [Outcome.plus(), Outcome.minus()]
        probs = [float(max(p_plus, 0.0)), float(max(p_minus, 0.0))]
        outcomes += [Outcome.null(n) for n in range(2, model.table.n_max + 1)]
        probs += list(pair_probs[2:])
    for n in _tail_counts(v, model.table.n_max, floor):
        outcomes.append(
            Outcome.pair(n) if model.scheme is Scheme.PHOTON_NUMBER else Outcome.null(n)
        )
        probs.append(math.exp(_tail_log_prob(v, n)))
    keep = [i for i, p in enumerate(probs) if p > floor]
    return [outcomes[i] for i in keep], np.array([probs[i] for i in keep])


def _tail_counts(v: float, n_max: int, floor: float):
    if v <= 0.0:
        return range(0)
    n_stop = int(math.ceil((math.log(floor) - math.log1p(-v)) / math.log(v)))
    return range(n_max + 1, max(n_stop, n_max + 1))


def residual_mass(model: LikelihoodModel, delta_phi: float) -> float:
    """Probability mass beyond the enumerated set at pair counts > n_max."""
    u = float(delta_phi)
    amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
    pair_probs = np.abs(amps) ** 2
    if model.scheme is Scheme.PHOTON_NUMBER:
        total = float(pair_probs.sum())
    else:
        p_plus, p_minus = _plus_minus_from_amps(amps[0], amps[1])
        total = float(p_plus + p_minus + pair_probs[2:].sum())
    return 1.0 - total


def sample(model: LikelihoodModel, delta_phi: float, rng: np.random.Generator) -> Outcome:
    """Draw one outcome at the given offset.

    Under the exact_tail policy the pair count comes from inverting the
    geometric law directly, so no truncation enters the sampling at all.
    Under the renormalize policy the enumerated set up to n_max is rescaled
    to unit mass, and a residual above residual_tol is a hard error.
    """
    u = float(delta_phi)
    if model.residual_policy == POLICY_RENORMALIZE:
        return _sample_renormalized(model, u, rng)
    v = pair_ratio(model.params, u)
    if model.scheme is Scheme.PHOTON_NUMBER:
        return Outcome.pair(_draw_geometric(v, rng))
    gap = detection_asymmetry(model.params, u)
    null_mass = v * v
    p_plus = max(0.5 * (1.0 - null_mass - gap), 0.0)
    p_minus = max(0.5 * (1.0 - null_mass + gap), 0.0)
    u1 = rng.random()
    if u1 < p_plus:
        return Outcome.plus()
    if u1 < p_plus + p_minus:
        return Outcome.minus()
    return Outcome.null(2 + _draw_geometric(v, rng))


def _draw_geometric(v: float, rng: np.random.Generator) -> int:
    if v <= 0.0:
        return 0
    return int(math.log1p(-rng.random()) / math.log(v))


def _sample_renormalized(model: LikelihoodModel, u: float, rng: np.random.Generator) -> Outcome:
    outcomes, probs = _enumerate_truncated(model, u)
    total = float(probs.sum())
    residual = 1.0 - total
    if residual > model.residual_tol:
        raise ResidualMassError(
            f"truncated outcome set leaks {residual:.3e} at offset {u:.4f} "
            f"(tolerance {model.residual_tol:.1e}); raise n_max or switch to "
            f"the exact_tail policy"
        )
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    return outcomes[min(idx, len(outcomes) - 1)]


def _enumerate_truncated(model: LikelihoodModel, u: float):
    amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
    pair_probs = np.abs(amps) ** 2
    if model.scheme is Scheme.PHOTON_NUMBER:
        outcomes = [Outcome.pair(n) for n in range(model.table.n_max + 1)]
        return outcomes, pair_probs
    p_plus, p_minus = _plus_minus_from_amps(amps[0], amps[1])
    outcomes = [Outcome.plus(), Outcome.minus()]
    outcomes += [Outcome.null(n) for n in range(2, model.table.n_max + 1)]
    probs = np.concatenate(
        ([max(p_plus, 0.0), max(p_minus, 0.0)], pair_probs[2:])
    )
    return outcomes, probs


class LikelihoodGrid:
    """Likelihood rows over a phase grid for every feedback phase on it.

    Offsets phi_i - theta_j only take 2 N - 1 distinct values on a uniform
    grid, so one extended table per outcome serves every feedback setting
    via slicing. Rows for pair counts beyond n_max are synthesized from the
    geometric tail on demand.
    """

    def __init__(self, model: LikelihoodModel, grid: PhaseGrid):
        self.model = model
        self.grid = grid
        n = grid.n_points
        offsets = (np.arange(2 * n - 1, dtype=np.float64) - (n - 1)) * grid.spacing
        amps = _chunked_amplitudes(model.table, offsets)
        pair_probs = np.ascontiguousarray((np.abs(amps) ** 2).T)
        with np.errstate(divide="ignore"):
            log_pair = np.log(pair_probs)
        np.maximum(log_pair, LOG_FLOOR, out=log_pair)
        v = pair_ratio(model.params, offsets)
        with np.errstate(divide="ignore"):
            log_v = np.where(v > 0.0, np.log(np.maximum(v, 1e-320)), 2.0 * LOG_FLOOR)
        self._pair = pair_probs
        self._log_pair = log_pair
        self._log_v = log_v
        self._log_1mv = np.log1p(-v)
        self._v = v
        if model.scheme is Scheme.OPTIMAL:
            p_plus, p_minus = _plus_minus_from_amps(amps[:, 0], amps[:, 1])
            np.maximum(p_plus, 0.0, out=p_plus)
            np.maximum(p_minus, 0.0, out=p_minus)
            with np.errstate(divide="ignore"):
                log_plus = np.maximum(np.log(p_plus), LOG_FLOOR)
                log_minus = np.maximum(np.log(p_minus), LOG_FLOOR)
            self._plus = p_plus
            self._minus = p_minus
            self._log_plus = log_plus
            self._log_minus = log_minus
        for arr in self.__dict__.values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def _slice(self, theta_index: int) -> slice:
        n = self.grid.n_points
        if not (0 <= theta_index < n):
            raise ValueError(f"theta index {theta_index} outside grid")
        return slice(n - 1 - theta_index, 2 * n - 1 - theta_index)

    def log_row(self, outcome: Outcome, theta_index: int) -> np.ndarray:
        """Read-only log-likelihood row over the grid for one feedback index."""
        _require_scheme(self.model, outcome)
        sl = self._slice(theta_index)
        if outcome.kind in ("pair", "null"):
            if outcome.n <= self.model.table.n_max:
                return self._log_pair[outcome.n, sl]
            row = self._log_1mv[sl] + outcome.n * self._log_v[sl]
            np.maximum(row, LOG_FLOOR, out=row)
            return row
        if outcome.kind == "plus":
            return self._log_plus[sl]
        return self._log_minus[sl]

    def row(self, outcome: Outcome, theta_index: int) -> np.ndarray:
        """Linear likelihood row over the grid for one feedback index."""
        _require_scheme(self.model, outcome)
        sl = self._slice(theta_index)
        if outcome.kind in ("pair", "null"):
            if outcome.n <= self.model.table.n_max:
                return self._pair[outcome.n, sl].copy()
            return np.exp(self._log_1mv[sl] + outcome.n * self._log_v[sl])
        src = self._plus if outcome.kind == "plus" else self._minus
        return src[sl].copy()


def _chunked_amplitudes(table: SchmidtTable, offsets: np.ndarray) -> np.ndarray:
    # bounds the transient phase matrix to _CHUNK x (p_max + 1)
    out = np.empty((len(offsets), table.n_max + 1), dtype=np.complex128)
    for start in range(0, len(offsets), _CHUNK):
        block = offsets[start : start + _CHUNK]
        out[start : start + len(block)] = pair_amplitude_matrix(table, block)
    return out


def shared_grid_tables(model: LikelihoodModel, grid: PhaseGrid) -> LikelihoodGrid:
    """Cached LikelihoodGrid per (model, grid) pair, built on first use.

    The cache lives on the model. A module-level weak-key cache would never
    drop an entry, because the tables hold a strong reference to their model.
    """
    tables = model._grid_tables.get(grid)
    if tables is None:
        tables = LikelihoodGrid(model, grid)
        model._grid_tables[grid] = tables
    return tables


def likelihood_curve(
    model: LikelihoodModel, outcome: Outcome, grid: PhaseGrid, theta: float
) -> np.ndarray:
    """Likelihood of one outcome across the whole grid at feedback theta.

    curve[i] equals likelihood(model, outcome, grid.points[i] - theta). When
    theta sits on the grid the cached extended tables serve the row; off the
    grid each point is evaluated through the scalar path.
    """
    h = grid.spacing
    idx = (float(theta) - grid.lo) / h
    nearest = int(round(idx))
    if 0 <= nearest < grid.n_points and abs(idx - nearest) < 1e-9:
        return shared_grid_tables(model, grid).row(outcome, nearest)
    return np.array(
        [likelihood(model, outcome, float(p) - float(theta)) for p in grid.points]
    )
