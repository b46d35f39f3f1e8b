"""Detection models at the interferometer output.

Two schemes are supported. The photon-number scheme resolves the twin-pair
count n at the output. The optimal scheme distinguishes two coherent
superpositions of the zero-pair and one-pair components (labelled plus and
minus) and lumps every n >= 2 event into a pair-resolved null record; its
Fisher information saturates the quantum bound at zero offset.

A closed-form route exists for every probability because the output state is
always a phase-twisted twin-beam state: the pair distribution is geometric,
p(n) = (1 - v) v^n, with v the pair ratio below. Production likelihoods for
outcome codes up to n_max come from the truncated amplitude tables through
one route, a pass of offset blocks over one or more models on up to one
thread per usable CPU (tmsq.amplitude_pass, then _block_probabilities).
outcome_probabilities is its one-model case, which likelihood, pmf and
the CLI's likelihood curves read. LikelihoodGrid's log tables are written
block by block from the same pass, and shared_grid_tables given several
models fills all their tables in one pass, computing each block of phase
factors once (a campaign builds every table this way before its trials
start). The geometric form is the one sampling law (outcome_law) and
gives the n > n_max tail rows. Tests
cross-check the two routes against each other and against brute-force sums.
LikelihoodGrid stores only the log table. The pass evaluates it at the
non-negative offsets only, and the negative ones are filled by mirroring
(plus and minus swap places), which is exact:
the offsets are exactly antisymmetric and amplitudes at -u are the complex
conjugates of those at u.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .posterior import LOG_FLOOR, PhaseGrid
from .tmsq import OpaParams, SchmidtTable, amplitude_pass, build_schmidt_table

_PMF_FLOOR = 1e-14


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
            if not (type(self.n) is int and self.n >= 0):
                raise ValueError(f"pair outcome needs n >= 0, got {self.n!r}")
        elif self.kind in ("plus", "minus"):
            if self.n is not None:
                raise ValueError(f"{self.kind} outcome carries no pair count")
        elif self.kind == "null":
            if not (type(self.n) is int and self.n >= 2):
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

    def code(self) -> int:
        """Index of this outcome within its scheme: plus 0, minus 1, else the pair count.

        Codes up to n_max are the row indices of LikelihoodGrid's stacked
        tables.
        """
        if self.kind == "plus":
            return 0
        if self.kind == "minus":
            return 1
        return self.n


def outcome_of_code(scheme: Scheme, code: int) -> Outcome:
    """Inverse of Outcome.code for one scheme."""
    if scheme is Scheme.PHOTON_NUMBER:
        return Outcome.pair(code)
    if code == 0:
        return Outcome.plus()
    if code == 1:
        return Outcome.minus()
    return Outcome.null(code)


@dataclass(frozen=True, eq=False)
class LikelihoodModel:
    """A detection scheme bound to one amplifier setting and its tables."""

    scheme: Scheme
    table: SchmidtTable
    # shared_grid_tables' cache, keyed by grid values; it goes with the model
    _grid_tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def params(self) -> OpaParams:
        return self.table.params

    @property
    def mean_photons(self) -> float:
        return self.table.params.mean_photons

    @property
    def n_max(self) -> int:
        return self.table.n_max


def make_model(scheme: Scheme | str, mean_photons: float, *, n_max: int = 16) -> LikelihoodModel:
    """Convenience builder: amplifier params, coefficient table, model."""
    params = OpaParams.from_mean_photons(mean_photons)
    table = build_schmidt_table(params, n_max=n_max)
    return LikelihoodModel(scheme=Scheme(scheme), table=table)


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


def _block_probabilities(models, amps) -> list[np.ndarray]:
    """Outcome probabilities from one block of amplitudes (tmsq.amplitude_block).

    Returns, for each model in order, the (rows, n_max + 1) array whose
    [j, c] entry is the probability of outcome_of_code(model.scheme, c) at
    the block's j-th offset. Plus and minus are clamped at 0.
    """
    blocks = []
    for model, amp in zip(models, amps):
        probs = np.abs(amp) ** 2
        if model.scheme is Scheme.OPTIMAL:
            # codes 0 and 1 are plus and minus; the zero- and one-pair
            # probabilities they replace belong to no outcome of this scheme
            mean = 0.5 * (probs[:, 0] + probs[:, 1])
            cross = np.imag(amp[:, 0] * np.conj(amp[:, 1]))
            np.maximum(mean + cross, 0.0, out=probs[:, 0])
            np.maximum(mean - cross, 0.0, out=probs[:, 1])
        blocks.append(probs)
    return blocks


def outcome_probabilities(model: LikelihoodModel, offsets) -> np.ndarray:
    """Probabilities of every outcome with code up to n_max, at many offsets.

    Returns an array of shape (len(offsets), n_max + 1) whose [j, c] entry
    is the probability of outcome_of_code(model.scheme, c) at offsets[j].
    This is the one route from the amplitude table to probabilities, here
    in its one-model case (tmsq.amplitude_pass); LikelihoodGrid's tables
    come from the same blocks. Plus and minus are clamped at 0.
    """
    u = np.asarray(offsets, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"offsets must be one-dimensional, got shape {u.shape}")
    out = np.empty((len(u), model.n_max + 1))

    def store(rows, amps) -> None:
        (out[rows],) = _block_probabilities([model], amps)

    amplitude_pass([model.table], u, store)
    return out


def _tail_log_prob(v: float, n: int) -> float:
    if v <= 0.0:
        return -math.inf
    return math.log1p(-v) + n * math.log(v)


def likelihood(model: LikelihoodModel, outcome: Outcome, delta_phi: float) -> float:
    """Probability of one outcome at a phase offset.

    Codes up to n_max read outcome_probabilities; deeper pair counts use the
    exact geometric tail, which agrees with the table route to near machine
    precision everywhere both are defined.
    """
    _require_scheme(model.scheme, outcome)
    u = float(delta_phi)
    code = outcome.code()
    if code <= model.n_max:
        return float(outcome_probabilities(model, np.array([u]))[0, code])
    lp = _tail_log_prob(pair_ratio(model.params, u), code)
    return 0.0 if lp == -math.inf else math.exp(lp)


def _require_scheme(scheme: Scheme, outcome: Outcome) -> None:
    photon = outcome.kind == "pair"
    if photon != (scheme is Scheme.PHOTON_NUMBER):
        raise ValueError(
            f"outcome {outcome.label()!r} does not belong to scheme {scheme.value!r}"
        )


def pmf(model: LikelihoodModel, delta_phi: float):
    """Enumerate all outcomes with probability above 1e-14 at one offset.

    Returns (outcomes, probabilities) in code order (Outcome.code): pair
    counts ascending for the photon scheme; plus, minus, then null counts
    ascending for the optimal scheme. The geometric tail is followed past
    n_max until it drops below that floor.
    """
    u = float(delta_phi)
    probs = list(outcome_probabilities(model, np.array([u]))[0])
    v = pair_ratio(model.params, u)
    probs += [math.exp(_tail_log_prob(v, n)) for n in _tail_counts(v, model.n_max)]
    keep = [c for c, p in enumerate(probs) if p > _PMF_FLOOR]
    return [outcome_of_code(model.scheme, c) for c in keep], np.array([probs[c] for c in keep])


def _tail_counts(v: float, n_max: int):
    if v <= 0.0:
        return range(0)
    n_stop = int(math.ceil((math.log(_PMF_FLOOR) - math.log1p(-v)) / math.log(v)))
    return range(n_max + 1, max(n_stop, n_max + 1))


@dataclass(frozen=True, eq=False)
class OutcomeLaw:
    """The sampling law of one scheme at one phase offset.

    Built by outcome_law: the exact geometric law, log_v, with p_plus and
    p_minus for the optimal scheme. A draw takes one or two uniforms from a
    zero-argument source, the same way whether the law is new or reused, so
    a law cached per offset draws what sample draws.
    """

    scheme: Scheme
    log_v: float | None = None  # log of the pair ratio v; None when v == 0
    p_plus: float = 0.0
    p_minus: float = 0.0

    def draw_code(self, uniform) -> int:
        """Draw one outcome and return its code (see Outcome.code); uniform()
        returns the next uniform in [0, 1), such as Generator.random."""
        base = 0
        if self.scheme is Scheme.OPTIMAL:
            u1 = uniform()
            if u1 < self.p_plus:
                return 0
            if u1 < self.p_plus + self.p_minus:
                return 1
            base = 2
        if self.log_v is None:
            return base
        return base + int(math.log1p(-uniform()) / self.log_v)


def outcome_law(model: LikelihoodModel, delta_phi: float) -> OutcomeLaw:
    """Precompute everything a draw at this offset needs.

    The pair count comes from inverting the geometric law directly, so no
    truncation enters the sampling at all.
    """
    u = float(delta_phi)
    v = pair_ratio(model.params, u)
    log_v = math.log(v) if v > 0.0 else None
    if model.scheme is Scheme.PHOTON_NUMBER:
        return OutcomeLaw(model.scheme, log_v=log_v)
    gap = detection_asymmetry(model.params, u)
    null_mass = v * v
    return OutcomeLaw(
        model.scheme,
        log_v=log_v,
        p_plus=max(0.5 * (1.0 - null_mass - gap), 0.0),
        p_minus=max(0.5 * (1.0 - null_mass + gap), 0.0),
    )


def sample(model: LikelihoodModel, delta_phi: float, rng: np.random.Generator) -> Outcome:
    """Draw one outcome at the given offset from the exact law (see outcome_law)."""
    return outcome_of_code(model.scheme, outcome_law(model, delta_phi).draw_code(rng.random))


class LikelihoodGrid:
    """Likelihood rows over a phase grid for every feedback phase on it.

    Offsets phi_i - theta_j only take 2 N - 1 distinct values on a uniform
    grid, so one extended row per outcome serves every feedback setting via
    slicing. The log rows are stacked by outcome code (Outcome.code) into
    one table, built from the probability pass at the N non-negative
    offsets and mirrored onto the N - 1 negative ones; log_row and
    log_windows both read it. Rows for pair counts beyond n_max are
    synthesized from the geometric tail on demand.

    The grid keeps its model only through a weak reference: the model
    caches its grids (shared_grid_tables), so a strong one would make a
    cycle that outlives the model until a full garbage collection.
    """

    def __init__(self, model: LikelihoodModel, grid: PhaseGrid, log_table=None):
        """log_table is this model's table from _grid_log_tables, its
        non-negative offsets filled; without it the pass runs here for this
        model alone. The table is taken over, not copied."""
        self._model = weakref.ref(model)
        self.scheme = model.scheme
        self.n_max = model.table.n_max
        self.grid = grid
        n = grid.n_points
        if log_table is None:
            (log_table,) = _grid_log_tables([model], grid)
        # offsets[n - 1 - k] == -offsets[n - 1 + k] exactly and amplitudes at -u
        # are the conjugates of those at u, so the non-negative half fixes the
        # table: a mirrored column keeps its pair counts and swaps plus and minus
        log_table[:, n - 2 :: -1] = log_table[:, n:]
        if self.scheme is Scheme.OPTIMAL:
            log_table[[0, 1], : n - 1] = log_table[[1, 0], : n - 1]
        v = pair_ratio(model.params, _grid_offsets(grid))
        with np.errstate(divide="ignore"):
            log_v = np.where(v > 0.0, np.log(np.maximum(v, 1e-320)), 2.0 * LOG_FLOOR)
        self._log_table = log_table
        self._log_v = log_v
        self._log_1mv = np.log1p(-v)
        for arr in self.__dict__.values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def model(self) -> LikelihoodModel | None:
        """The model these tables were built from, or None once it is gone."""
        return self._model()

    def _slice(self, theta_index: int) -> slice:
        n = self.grid.n_points
        if not (0 <= theta_index < n):
            raise ValueError(f"theta index {theta_index} outside grid")
        return slice(n - 1 - theta_index, 2 * n - 1 - theta_index)

    def log_windows(self) -> np.ndarray:
        """Read-only view W of the stacked log table with W[code, j] == log_row at index j.

        Valid for codes up to n_max. Indexing it with two integer arrays
        gathers a block of rows in one copy.
        """
        return sliding_window_view(self._log_table, self.grid.n_points, axis=1)[:, ::-1]

    def log_row(self, outcome: Outcome, theta_index: int) -> np.ndarray:
        """Read-only log-likelihood row over the grid for one feedback index."""
        _require_scheme(self.scheme, outcome)
        sl = self._slice(theta_index)
        code = outcome.code()
        if code <= self.n_max:
            return self._log_table[code, sl]
        row = self._log_1mv[sl] + code * self._log_v[sl]
        np.maximum(row, LOG_FLOOR, out=row)
        return row


def _grid_offsets(grid: PhaseGrid) -> np.ndarray:
    """The 2N - 1 offsets phi_i - theta_j of the grid, ascending; offset 0 is at N - 1."""
    n = grid.n_points
    return (np.arange(2 * n - 1, dtype=np.float64) - (n - 1)) * grid.spacing


def _grid_log_tables(models, grid: PhaseGrid) -> list[np.ndarray]:
    """One (n_max + 1, 2N - 1) log table per model, its N non-negative
    offsets filled and floored at LOG_FLOOR, from one pass over them all
    (tmsq.amplitude_pass, on the threads it picks).

    Each block's log rows go straight into its own columns of each table,
    so no whole amplitude or probability array is made and no two threads
    write the same entry. The log is taken on the contiguous block, so
    every entry keeps the bits of a log over the whole probability array.
    """
    n = grid.n_points
    tables = [np.empty((m.n_max + 1, 2 * n - 1)) for m in models]

    def store(rows, amps) -> None:
        cols = slice(n - 1 + rows.start, n - 1 + rows.stop)
        with np.errstate(divide="ignore"):  # numpy's error state is per thread
            for table, probs in zip(tables, _block_probabilities(models, amps)):
                np.log(probs, out=probs)
                np.maximum(probs, LOG_FLOOR, out=probs)
                table[:, cols] = probs.T

    amplitude_pass([m.table for m in models], _grid_offsets(grid)[n - 1 :], store)
    return tables


def shared_grid_tables(model: LikelihoodModel, grid: PhaseGrid, *more) -> LikelihoodGrid:
    """Cached LikelihoodGrid per (model, grid) pair, built on first use.

    The one table cache. Grids key it by value, so equal grids (a fresh
    PhaseGrid() or one unpickled in a child process) get the same tables. It
    lives on the model, and the tables refer back to the model only weakly,
    so the entry is freed with the model by reference counting alone.

    The models in `more` are filled too: every model given that has no
    tables for the grid yet gets them from one pass (_grid_log_tables),
    which computes each block of phase factors once for all of them.
    Returns model's tables.
    """
    todo = [m for m in dict.fromkeys((model, *more)) if grid not in m._grid_tables]
    if todo:
        for m, log_table in zip(todo, _grid_log_tables(todo, grid)):
            m._grid_tables[grid] = LikelihoodGrid(m, grid, log_table)
    return model._grid_tables[grid]
