"""Grid-based Bayesian posterior over the unknown interferometer phase.

Log weights are defined up to a constant. log_step is the one Bayes update:
it adds one row in place and shifts its maximum to 0; it never normalizes.
The step loop in protocols calls it, and so do verify's posterior checks, on
a copy of the prior's log weights. A Posterior computes its density once, on
first use: subtract logsumexp, floor at -745 (so vanishing weights cannot
produce NaN), exponentiate. Normalization is in the Riemann sense:
sum(density) * spacing = 1. The logsumexp is this module's own, a NumPy
replica of SciPy's that matches it bit for bit.

exp is slow where its result is subnormal, and most cells of a sharp
posterior sit at the floor, whose exp(-745) = 5e-324 is subnormal. So the
density and the logsumexp exponentiate only the entries whose result can
differ from a known constant, and write that constant elsewhere; every
result is bit for bit what exponentiating all entries gives.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LOG_FLOOR = -745.0
_FLOOR_DENSITY = np.exp(LOG_FLOOR)  # 5e-324, from the ufunc the density uses
# np.exp returns exactly +0.0 at and below this (the last subnormal is
# exp(-744.44)); tests pin it
_EXP_UNDERFLOW = -746.0
_MIN_SPACING = math.ulp(math.tau)
# detect_peaks' defaults, which every trial's final peak report uses: a
# rival lies at least PEAK_MIN_SEPARATION from the primary and stands at
# least PEAK_HEIGHT_FLOOR of its height
PEAK_MIN_SEPARATION = 0.02
PEAK_HEIGHT_FLOOR = 0.10


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid over a half-open phase interval [lo, hi). Grids compare and
    hash by (lo, hi, n_points), so equal grids share one likelihood table."""

    lo: float = 0.0
    hi: float = math.pi
    n_points: int = 4096

    def __post_init__(self) -> None:
        if not all(isinstance(v, numbers.Real) and type(v) is not bool for v in (self.lo, self.hi)):
            raise ValueError(f"lo and hi must be numbers, got {self.lo!r}, {self.hi!r}")
        # the likelihood is 2 pi-periodic in phi - theta, so one period is all a grid can tell apart
        if not (-math.tau <= self.lo < self.hi <= math.tau and self.hi - self.lo <= math.tau):
            raise ValueError(
                f"need -2 pi <= lo < hi <= 2 pi and hi - lo <= 2 pi, got [{self.lo!r}, {self.hi!r})"
            )
        if not (type(self.n_points) is int and self.n_points >= 64):  # bool is no count
            raise ValueError(f"n_points must be an integer >= 64, got {self.n_points!r}")
        # below a phase's rounding unit points merge, and densities (up to 1 / spacing)
        # overflow; float-int comparison is exact, so no n_points overflows here
        if not (self.hi - self.lo) / _MIN_SPACING >= self.n_points:
            raise ValueError(
                f"{self.n_points} points over [{self.lo!r}, {self.hi!r}) are spaced "
                f"below ulp(2 pi) = {_MIN_SPACING!r}"
            )

    @cached_property
    def points(self) -> np.ndarray:
        pts = self.lo + self.spacing * np.arange(self.n_points, dtype=np.float64)
        pts.setflags(write=False)
        return pts

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n_points

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def index_of(self, phi: float) -> int:
        """Index of the nearest grid point; rejects phases outside the domain."""
        if not math.isfinite(phi):
            raise ValueError(f"phase must be finite, got {phi!r}")
        idx = int(round((phi - self.lo) / self.spacing))
        if idx == self.n_points and phi < self.hi + 0.5 * self.spacing:
            idx -= 1  # hi itself snaps down onto the last cell
        if not (0 <= idx < self.n_points):
            raise ValueError(
                f"phase {phi!r} lies outside the grid [{self.lo}, {self.hi})"
            )
        return idx

    def floor_index(self, phi: float) -> int:
        """Largest grid index whose point does not exceed phi."""
        idx = int(math.floor((phi - self.lo) / self.spacing + 1e-12))
        if not (0 <= idx < self.n_points):
            raise ValueError(
                f"phase {phi!r} lies outside the grid [{self.lo}, {self.hi})"
            )
        return idx

    def snap(self, phi: float) -> float:
        return float(self.points[self.index_of(phi)])


@dataclass(frozen=True, eq=False)
class Posterior:
    """Log weights over a PhaseGrid, up to a constant. The array is not
    copied and must not change: the density is computed once and kept.

    The density is exp of the floored normalized log weights. Cells at the
    floor get the constant np.exp(LOG_FLOOR) without an exp call each; the
    test x != LOG_FLOOR leaves a NaN cell to exp, so NaN propagates as it
    would through exp of the whole array.
    """

    grid: PhaseGrid
    log_weights: np.ndarray

    @cached_property
    def _density(self) -> np.ndarray:
        x = _normalized(self.grid, self.log_weights)
        d = np.full_like(x, _FLOOR_DENSITY)
        live = x != LOG_FLOOR
        d[live] = np.exp(x[live])
        d.setflags(write=False)
        return d


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp(a) of a 1-D float64 array, bit for bit.

    The steps of SciPy 1.17's real path, on shape-(1,) arrays as there: the
    maximal entries are taken out of the sum and counted (m), the rest are
    shifted by the maximum, exponentiated and summed (s, then s / m unless
    0), and the result is log1p(s) + log(m) + max. SciPy also computes
    log(sum(exp(a))) over all entries and returns it where that result is
    not finite, which happens exactly when the maximum is not (+-inf or
    NaN); only then is that pass made here.

    The shifted entries are all -inf or finite and <= 0 on the finite path.
    Those at or below _EXP_UNDERFLOW, where np.exp returns exactly +0.0, are
    not exponentiated: they stay +0.0 in a full-length array, so the sum
    adds the same values in the same pairwise order as SciPy's.
    """
    a_max = a.max(keepdims=True)
    if not np.isfinite(a_max[0]):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.log(np.exp(a).sum(keepdims=True))[0]
    top = a == a_max
    m = top.sum(keepdims=True, dtype=np.float64)
    shifted = np.where(top, -np.inf, a) - a_max
    terms = np.zeros_like(shifted)
    live = shifted > _EXP_UNDERFLOW
    terms[live] = np.exp(shifted[live])
    s = terms.sum(keepdims=True)
    if s[0] != 0.0:
        s = s / m
    return (np.log1p(s) + np.log(m) + a_max)[0]


def _normalized(grid: PhaseGrid, log_w: np.ndarray) -> np.ndarray:
    log_norm = _logsumexp(log_w) + math.log(grid.spacing)
    out = log_w - log_norm
    np.maximum(out, LOG_FLOOR, out=out)
    return out


def uniform_posterior(grid: PhaseGrid) -> Posterior:
    log_w = np.full(grid.n_points, -math.log(grid.hi - grid.lo))
    return Posterior(grid=grid, log_weights=log_w)


def log_step(log_w: np.ndarray, log_row) -> tuple[float, int]:
    """Bayes update in place on one row of log weights: add log_row (a row
    or a scalar), shift the maximum to 0 and return it with its first
    argmax. One argmax scan serves both, exactly: the shift maps the maximal
    entries to 0 and every other finite entry below it. A NaN or -inf row
    yields a non-finite maximum; the weights (and the argmax) are then
    meaningless, and the caller gives up the posterior."""
    log_w += log_row
    top = int(log_w.argmax())
    peak = float(log_w[top])
    log_w -= peak
    return peak, top


def density(posterior: Posterior) -> np.ndarray:
    """Normalized probability density on the grid points (read-only)."""
    return posterior._density


def map_estimate(posterior: Posterior) -> float:
    # ties resolve to the lowest index by argmax convention
    return float(posterior.grid.points[int(np.argmax(posterior.log_weights))])


def posterior_mean(posterior: Posterior) -> float:
    grid = posterior.grid
    return float(grid.spacing * np.dot(density(posterior), grid.points))


def posterior_variance(posterior: Posterior) -> float:
    d, grid = density(posterior), posterior.grid
    mu = grid.spacing * np.dot(d, grid.points)
    dev = grid.points - mu
    return float(grid.spacing * np.dot(d, dev * dev))


@dataclass(frozen=True)
class Peak:
    location: float
    height: float
    mass: float


@dataclass(frozen=True)
class PeakReport:
    primary: Peak
    secondary: Peak | None
    separation: float | None


def detect_peaks(
    posterior: Posterior,
    min_separation: float = PEAK_MIN_SEPARATION,
    height_ratio_floor: float = PEAK_HEIGHT_FLOOR,
) -> PeakReport:
    """Locate the dominant posterior mode and, if present, a distinct rival.

    A rival counts only when it is a strict interior local maximum at least
    min_separation away from the primary with height at least
    height_ratio_floor of the primary's. Masses come from splitting the
    domain at the density minimum between the two peaks; with no rival the
    primary carries all the mass.
    """
    if min_separation <= 0.0 or not (0.0 < height_ratio_floor <= 1.0):
        raise ValueError("need min_separation > 0 and height_ratio_floor in (0, 1]")
    d, grid = density(posterior), posterior.grid
    pts = grid.points
    h = grid.spacing
    p_idx = int(np.argmax(d))
    interior = np.flatnonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])) + 1
    rivals = [
        i
        for i in interior
        if abs(pts[i] - pts[p_idx]) >= min_separation
        and d[i] >= height_ratio_floor * d[p_idx]
    ]
    if not rivals:
        primary = Peak(location=float(pts[p_idx]), height=float(d[p_idx]), mass=1.0)
        return PeakReport(primary=primary, secondary=None, separation=None)
    s_idx = min(rivals, key=lambda i: (-d[i], i))
    lo_i, hi_i = sorted((p_idx, s_idx))
    valley = lo_i + int(np.argmin(d[lo_i : hi_i + 1]))
    left_mass = float(d[: valley + 1].sum() * h)
    right_mass = float(d[valley + 1 :].sum() * h)
    p_mass, s_mass = (left_mass, right_mass) if p_idx <= valley else (right_mass, left_mass)
    primary = Peak(location=float(pts[p_idx]), height=float(d[p_idx]), mass=p_mass)
    secondary = Peak(location=float(pts[s_idx]), height=float(d[s_idx]), mass=s_mass)
    return PeakReport(
        primary=primary,
        secondary=secondary,
        separation=float(abs(pts[s_idx] - pts[p_idx])),
    )


_SCREEN_EPS = 1e-9
_SCREEN_LOG_RANGE = 700.0


def rival_screen(grid: PhaseGrid, min_separation: float, height_ratio: float):
    """A cheap necessary condition for detect_peaks(...).secondary is not None.

    Returns screen(log_w, top), where top must be max(log_w). It uses only
    comparisons on the raw log weights: no exp, no logsumexp. With the same
    min_separation, and height_ratio as detect_peaks' height_ratio_floor,
    False means detect_peaks finds no rival on this grid; True means it may.
    The logs, the range guard and the grid points are set up once here, and
    top is passed in, since the caller knows it: after a finite log_step
    the maximum is exactly 0.0 (the peak minus itself; every other entry
    lies below it).

    Why False is exact. detect_peaks compares d = exp(max(log_w - L,
    LOG_FLOOR)) with L = logsumexp(log_w) + log(spacing). As logsumexp lies
    in [top, top + log N], every weight of at least top + log(ratio) has
    log_w - L in [log(ratio) - log(hi - lo), log(N / (hi - lo))]. While that
    range lies inside [-700, 700], the floor never reaches it, the
    subtraction rounds off less than 1e-13 and exp is off by a few ulps, so
    d is monotone in log_w up to far less than eps = 1e-9: log_w[a] <=
    log_w[b] + log(c) - eps forces d[a] < c * d[b] for c = 1 or ratio.
    Hence the primary p, the argmax of d, has log_w[p] >= top - eps; a
    rival i lies in the band log_w[i] >= top + log(ratio) - eps; and d[i] >
    d[i +- 1] needs log_w[i] > log_w[i +- 1] - eps. If no such rival lies
    min_separation or more from some near-top index (compared on the same
    grid.points), detect_peaks has none. As every rival lies in the band
    and the points increase with the index, neither band edge lying
    min_separation or more from a near-top index already rules all rivals
    out; the screen then answers False before looking for local maxima.
    Outside that range, or for a top that is not finite, the answer is True.
    """
    log_width = math.log(grid.hi - grid.lo)
    log_ratio = math.log(height_ratio)
    in_range = (
        log_ratio - log_width > -_SCREEN_LOG_RANGE
        and math.log(grid.n_points) - log_width < _SCREEN_LOG_RANGE
    )
    pts, last = grid.points, grid.n_points - 1

    def screen(log_w: np.ndarray, top: float) -> bool:
        if not (in_range and math.isfinite(top)):
            return True
        band = np.flatnonzero(log_w >= top + log_ratio - _SCREEN_EPS)
        near_top = band[log_w[band] >= top - _SCREEN_EPS]
        first, final = pts[near_top[0]], pts[near_top[-1]]
        if pts[band[-1]] - first < min_separation and final - pts[band[0]] < min_separation:
            return False
        inner = band[(band > 0) & (band < last)]
        w = log_w[inner]
        rivals = inner[(w > log_w[inner - 1] - _SCREEN_EPS) & (w > log_w[inner + 1] - _SCREEN_EPS)]
        if rivals.size == 0:
            return False
        return bool(
            pts[rivals[-1]] - first >= min_separation
            or final - pts[rivals[0]] >= min_separation
        )

    return screen


def prune_secondary(posterior: Posterior, report: PeakReport) -> Posterior:
    """Remove the rival mode by flooring everything on its side of the valley.

    The report must contain a secondary peak; callers decide whether to
    prune, so a missing rival here means the caller skipped its own check.
    """
    if report.secondary is None:
        raise ValueError("no secondary peak to prune in this report")
    d = density(posterior)
    p_idx = posterior.grid.index_of(report.primary.location)
    s_idx = posterior.grid.index_of(report.secondary.location)
    lo_i, hi_i = sorted((p_idx, s_idx))
    valley = lo_i + int(np.argmin(d[lo_i : hi_i + 1]))
    log_w = posterior.log_weights.copy()
    if s_idx > valley:
        log_w[valley + 1 :] = LOG_FLOOR
    else:
        log_w[:valley] = LOG_FLOOR
    return Posterior(grid=posterior.grid, log_weights=_normalized(posterior.grid, log_w))
