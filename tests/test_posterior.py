"""Grid posterior tests: update algebra, moments, peak analysis, pruning."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from su11sim import PhaseGrid, outcome_probabilities
from su11sim.measurement import Outcome, shared_grid_tables
from su11sim.posterior import (
    Posterior,
    density,
    detect_peaks,
    map_estimate,
    posterior_mean,
    posterior_variance,
    prune_secondary,
    uniform_posterior,
)
from su11sim.posterior import LOG_FLOOR, _EXP_UNDERFLOW, _logsumexp, _normalized, log_step, rival_screen


def stepped(posterior: Posterior, log_row) -> Posterior:
    """Bayes update with a log-likelihood row: log_step on a copy of the
    posterior's log weights."""
    log_w = posterior.log_weights.copy()
    log_step(log_w, log_row)
    return Posterior(grid=posterior.grid, log_weights=log_w)


def update(posterior: Posterior, row: np.ndarray) -> Posterior:
    """Bayes update with a positive linear likelihood row: the update of its
    log, floored at LOG_FLOOR."""
    with np.errstate(divide="ignore"):
        return stepped(posterior, np.maximum(np.log(row), LOG_FLOOR))


def gaussian_posterior(grid: PhaseGrid, center: float, sigma: float) -> Posterior:
    z = (grid.points - center) / sigma
    return update(uniform_posterior(grid), np.exp(-0.5 * z * z))


def mixture_posterior(grid, centers, sigmas, weights) -> Posterior:
    d = np.zeros(grid.n_points)
    for c, s, w in zip(centers, sigmas, weights):
        z = (grid.points - c) / s
        d += w / (s * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    return update(uniform_posterior(grid), d)


class TestPhaseGrid:
    def test_defaults(self, grid):
        assert grid.lo == 0.0
        assert grid.hi == pytest.approx(math.pi)
        assert grid.n_points == 4096
        assert grid.spacing == pytest.approx(math.pi / 4096)
        assert len(grid.points) == 4096
        assert grid.points[0] == 0.0
        assert grid.points[-1] < grid.hi

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseGrid(n_points=32)
        with pytest.raises(ValueError):
            PhaseGrid(lo=1.0, hi=1.0)

    def test_index_snap_round_trip(self, grid):
        for phi in (0.0, 0.25, 0.75, 3.0):
            i = grid.index_of(phi)
            assert abs(grid.points[i] - phi) <= 0.5 * grid.spacing + 1e-15
            assert grid.snap(phi) == grid.points[i]

    def test_index_rejects_out_of_domain(self, grid):
        with pytest.raises(ValueError):
            grid.index_of(-0.5)
        with pytest.raises(ValueError):
            grid.index_of(3.5)

    def test_midpoint_on_grid(self, grid):
        assert grid.midpoint == grid.snap(0.5 * (grid.lo + grid.hi))

    @pytest.mark.parametrize("n", (64, 999, 4096, 65536))
    @pytest.mark.parametrize("lo, hi", ((0.0, math.pi), (0.1, 3.0)))
    def test_each_point_indexes_itself(self, lo, hi, n):
        # optimal-mode feedback uses the MAP's index as the next theta index
        # in place of index_of(points[t]); (0, pi, 4096) is PhaseGrid()
        grid = PhaseGrid(lo, hi, n)
        got = [grid.index_of(p) for p in grid.points.tolist()]
        assert got == list(range(n))

    def test_grids_compare_and_hash_by_value(self):
        # the likelihood table cache is keyed by grid: equal grids share a table
        assert PhaseGrid(0, math.pi, 4096) == PhaseGrid()
        assert hash(PhaseGrid(0, math.pi, 4096)) == hash(PhaseGrid())
        assert PhaseGrid(n_points=4095) != PhaseGrid()
        assert PhaseGrid(lo=0.1) != PhaseGrid()

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-1e300, 1e300),  # a finite width, but 1e300 periods wide
            (-1e308, 1e308),  # a width that overflows to inf
            (0.0, 7.0),  # wider than one period
            (-7.0, -6.5),  # one edge beyond -2 pi
            (-math.pi, 1.5 * math.pi),  # each edge within 2 pi, the width not
        ],
    )
    def test_grids_beyond_one_period_rejected_naming_the_edges(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(f"got [{lo!r}, {hi!r})")):
            PhaseGrid(lo, hi, 64)

    @pytest.mark.parametrize(
        "lo, hi, n",
        [(0.0, 1.1125369292536007e-308, 64), (1.0, 1.0 + 2**-52, 64), (0.0, 3.0, 10**400)],
        ids=["subnormal-spacing", "one-ulp-wide", "10**400-points"],
    )
    def test_spacing_below_a_phase_rounding_unit_rejected(self, lo, hi, n):
        # finer grids merge points, and 1 / spacing densities overflow
        with pytest.raises(ValueError, match="spaced below ulp"):
            PhaseGrid(lo, hi, n)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, math.pi), (0.1, 3.0), (-0.5 * math.pi, 0.5 * math.pi), (-3.0, 3.0),
         (-math.tau, 0.0), (-math.pi, math.pi), (0.0, math.tau)],
    )
    def test_grids_within_one_period_accepted(self, lo, hi):
        assert PhaseGrid(lo, hi, 65536).hi == hi

    @pytest.mark.parametrize("field", ("lo", "hi"))
    @pytest.mark.parametrize("value", ("0.5", None, True))
    def test_non_number_edges_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PhaseGrid(**{field: value})


class TestUpdate:
    def test_constant_row_is_uninformative(self, grid):
        post = update(uniform_posterior(grid), np.full(grid.n_points, 0.37))
        d = density(post)
        assert np.max(np.abs(d - 1.0 / math.pi)) < 1e-12

    def test_normalization_after_update(self, grid):
        post = gaussian_posterior(grid, 0.75, 0.05)
        assert float(np.sum(density(post))) * grid.spacing == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_row_symmetric_about_theta(self, photon_model, grid):
        j = grid.index_of(0.70)
        log_row = shared_grid_tables(photon_model, grid).log_row(Outcome.pair(0), j)
        post = stepped(uniform_posterior(grid), log_row)
        d = density(post)
        k = np.arange(1, min(j, grid.n_points - 1 - j))
        assert np.max(np.abs(d[j + k] - d[j - k])) < 1e-9 * d[j]

    def test_vacuum_row_from_separate_offsets_symmetric(self, photon_model, grid):
        # the row above comes from the mirrored grid table; here the two
        # sides of theta are evaluated by separate calls
        theta = grid.snap(0.70)
        j = grid.index_of(theta)
        left = outcome_probabilities(photon_model, grid.points[:j] - theta)[:, 0]
        right = outcome_probabilities(photon_model, grid.points[j:] - theta)[:, 0]
        d = density(update(uniform_posterior(grid), np.concatenate([left, right])))
        k = np.arange(1, min(j, grid.n_points - 1 - j))
        assert np.max(np.abs(d[j + k] - d[j - k])) < 1e-9 * d[j]

    def test_sequential_equals_batched_logs(self, grid):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.05, 1.0, size=(1000, grid.n_points))
        seq = uniform_posterior(grid)
        for row in rows:
            seq = update(seq, row)
        batched = stepped(uniform_posterior(grid), np.sum(np.log(rows), axis=0))
        assert np.max(np.abs(density(seq) - density(batched))) < 1e-10

    def test_update_order_irrelevant(self, grid):
        rng = np.random.default_rng(6)
        rows = rng.uniform(0.05, 1.0, size=(64, grid.n_points))
        forward = uniform_posterior(grid)
        for row in rows:
            forward = update(forward, row)
        backward = uniform_posterior(grid)
        for row in rows[::-1]:
            backward = update(backward, row)
        assert np.max(np.abs(density(forward) - density(backward))) < 1e-10

    def test_all_zero_row_gives_a_non_finite_peak(self, grid):
        # an outcome of zero probability everywhere has the log row -inf; the
        # non-finite peak tells the caller to give up the posterior
        log_w = uniform_posterior(grid).log_weights.copy()
        with np.errstate(invalid="ignore"):
            peak, _ = log_step(log_w, np.full(grid.n_points, -np.inf))
        assert not math.isfinite(peak)


class TestEstimates:
    def test_uniform_moments(self, grid):
        post = uniform_posterior(grid)
        assert posterior_mean(post) == pytest.approx(math.pi / 2, abs=grid.spacing)
        assert posterior_variance(post) == pytest.approx(math.pi**2 / 12, rel=1e-3)

    def test_gaussian_moments(self, grid):
        post = gaussian_posterior(grid, 0.75, 0.01)
        assert posterior_mean(post) == pytest.approx(0.75, abs=grid.spacing)
        assert posterior_variance(post) == pytest.approx(1e-4, rel=0.01)

    def test_map_at_gaussian_center(self, grid):
        post = gaussian_posterior(grid, 0.75, 0.01)
        assert map_estimate(post) == pytest.approx(0.75, abs=grid.spacing)

    def test_map_tie_breaks_to_lower_index(self, grid):
        log_w = np.full(grid.n_points, -20.0)
        log_w[[500, 2500]] = 0.0
        post = Posterior(grid=grid, log_weights=log_w)
        assert map_estimate(post) == grid.points[500]


class TestPeaks:
    def test_two_gaussians_found(self, grid):
        post = mixture_posterior(grid, (0.65, 0.75), (0.008, 0.008), (0.4, 0.6))
        report = detect_peaks(post)
        assert report.primary.location == pytest.approx(0.75, abs=2 * grid.spacing)
        assert report.secondary is not None
        assert report.secondary.location == pytest.approx(0.65, abs=2 * grid.spacing)
        assert report.separation == pytest.approx(0.10, abs=4 * grid.spacing)
        assert report.primary.height >= report.secondary.height
        assert report.primary.mass + report.secondary.mass == pytest.approx(1.0, abs=1e-6)

    def test_single_gaussian_no_secondary(self, grid):
        report = detect_peaks(gaussian_posterior(grid, 0.5, 0.01))
        assert report.secondary is None

    def test_equal_peaks_tie_to_lower_index(self, grid):
        # bit-identical twin bumps centered on grid indices 800 and 2800
        bump = np.exp(-0.5 * ((np.arange(-60, 61)) / 15.0) ** 2)
        log_w = np.full(grid.n_points, -30.0)
        for c in (800, 2800):
            log_w[c - 60 : c + 61] = np.log(bump)
        report = detect_peaks(Posterior(grid=grid, log_weights=log_w))
        assert report.primary.location == grid.points[800]
        assert report.secondary is not None
        assert report.secondary.location == grid.points[2800]

    def test_min_separation_suppresses_close_rival(self, grid):
        post = mixture_posterior(grid, (0.65, 0.66), (0.002, 0.002), (0.6, 0.4))
        report = detect_peaks(post, min_separation=0.02)
        assert report.secondary is None
        report = detect_peaks(post, min_separation=0.005)
        assert report.secondary is not None

    def test_height_floor_suppresses_faint_rival(self, grid):
        post = mixture_posterior(grid, (0.4, 0.9), (0.01, 0.01), (0.96, 0.04))
        assert detect_peaks(post).secondary is None
        assert detect_peaks(post, height_ratio_floor=0.01).secondary is not None


class TestPrune:
    def test_prune_removes_rival_and_renormalizes(self, grid):
        post = mixture_posterior(grid, (0.65, 0.75), (0.008, 0.008), (0.4, 0.6))
        pruned = prune_secondary(post, detect_peaks(post))
        assert detect_peaks(pruned).secondary is None
        assert float(np.sum(density(pruned))) * grid.spacing == pytest.approx(1.0, abs=1e-12)
        assert map_estimate(pruned) == pytest.approx(0.75, abs=2 * grid.spacing)

    def test_pruned_variance_matches_surviving_component(self, grid):
        sigma = 0.008
        post = mixture_posterior(grid, (0.65, 0.75), (sigma, sigma), (0.4, 0.6))
        pruned = prune_secondary(post, detect_peaks(post))
        assert posterior_variance(pruned) == pytest.approx(sigma**2, rel=0.02)

    def test_prune_without_secondary_rejected(self, grid):
        post = gaussian_posterior(grid, 0.5, 0.01)
        with pytest.raises(ValueError):
            prune_secondary(post, detect_peaks(post))


@given(center=st.floats(min_value=0.2, max_value=2.9), sigma=st.floats(min_value=0.004, max_value=0.1))
@settings(max_examples=30, deadline=None)
def test_posterior_mass_always_unit(center, sigma):
    grid = PhaseGrid(n_points=1024)
    z = (grid.points - center) / sigma
    post = update(uniform_posterior(grid), np.exp(-0.5 * z * z))
    assert float(np.sum(density(post))) * grid.spacing == pytest.approx(1.0, abs=1e-10)


@st.composite
def screen_cases(draw):
    """Adversarial log weights for the rival screen.

    Peaks are drawn as exact log-space bumps (max of components) so their
    heights, ties and separations land exactly on the detector's thresholds:
    mirror pairs, plateaus, rounding-level ties, rivals at ratio * (1 +- 1e-12),
    spacings of min_separation +- one cell, edge cells and values far below
    LOG_FLOOR.
    """
    n = draw(st.sampled_from((64, 65, 257, 4096, 65536)) | st.integers(64, 65536))
    grid = PhaseGrid(n_points=n)
    ratio = draw(st.sampled_from((0.1, 0.5, 1.0)) | st.floats(1e-3, 1.0))
    sep_cells = draw(st.integers(1, n // 3))
    cell = st.sampled_from((0, n - 1)) | st.integers(0, n - 1)
    c0 = draw(cell)
    # the exact float distance the detector compares, when the grid holds it
    pts = grid.points
    lo_c = c0 if c0 + sep_cells < n else c0 - sep_cells
    min_sep = float(pts[lo_c + sep_cells] - pts[lo_c]) * draw(
        st.sampled_from((1.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12))
    )
    log_w = np.full(n, draw(st.sampled_from((-1e5, LOG_FLOOR - 1.0, -40.0, -1.0))))
    idx = np.arange(n)
    # a partner min_separation +- one cell from the top peak, then strays
    offset = sep_cells + draw(st.sampled_from((-1, 0, 1)))
    centers = [c0, draw(st.sampled_from((c0 - offset, c0 + offset))) % n]
    centers += [draw(cell) for _ in range(draw(st.integers(0, 2)))]
    log_ratio = math.log(ratio)
    for j, c in enumerate(centers):
        if j == 0:
            height = 0.0
        else:
            height = draw(
                st.sampled_from((0.0, -1e-16, log_ratio, log_ratio + 1e-12, log_ratio - 1e-12))
                | st.floats(log_ratio - 2.0, 0.0)
            )
        plateau = draw(st.sampled_from((0, 0, 1, 3)))
        width = draw(st.sampled_from((0.0, 0.7, 3.0, 40.0)))
        dist = np.maximum(np.abs(idx - c) - plateau, 0).astype(float)
        if width == 0.0:
            bump = np.where(dist == 0.0, height, -np.inf)
        else:
            bump = height - 0.5 * (dist / width) ** 2
        log_w = np.maximum(log_w, bump)
    log_w += draw(st.sampled_from((0.0, -1e4, 37.5)))
    return grid, log_w, min_sep, ratio


@given(case=screen_cases())
@settings(max_examples=300, deadline=None)
def test_rival_screen_never_hides_a_rival(case):
    grid, log_w, min_sep, ratio = case
    if not rival_screen(grid, min_sep, ratio)(log_w, float(log_w.max())):
        report = detect_peaks(Posterior(grid=grid, log_weights=log_w), min_sep, ratio)
        assert report.secondary is None


@given(
    n=st.integers(64, 512),
    ratio=st.sampled_from((0.1, 0.5, 1.0)),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_rival_screen_on_tied_palette(n, ratio, data):
    # every weight from a handful of values sitting on the screen's thresholds
    grid = PhaseGrid(n_points=n)
    lr = math.log(ratio)
    palette = (0.0, -1e-17, -1e-12, -2e-9, lr, lr + 1e-12, lr - 1e-12, lr - 2e-9, -5.0, -1e5)
    log_w = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    min_sep = data.draw(st.integers(1, n)) * grid.spacing
    if not rival_screen(grid, min_sep, ratio)(log_w, float(log_w.max())):
        report = detect_peaks(Posterior(grid=grid, log_weights=log_w), min_sep, ratio)
        assert report.secondary is None


class TestRivalScreen:
    def test_single_mode_is_screened_out(self, grid):
        post = gaussian_posterior(grid, 0.5, 0.01)
        assert not rival_screen(grid, 0.02, 0.5)(post.log_weights, float(post.log_weights.max()))

    def test_two_modes_pass_the_screen(self, grid):
        post = mixture_posterior(grid, (0.65, 0.75), (0.008, 0.008), (0.4, 0.6))
        assert rival_screen(grid, 0.02, 0.5)(post.log_weights, float(post.log_weights.max()))
        assert detect_peaks(post, 0.02, 0.5).secondary is not None

    def test_close_or_faint_rivals_are_screened_out(self, grid):
        close = mixture_posterior(grid, (0.65, 0.66), (0.002, 0.002), (0.6, 0.4))
        assert not rival_screen(grid, 0.02, 0.1)(close.log_weights, float(close.log_weights.max()))
        faint = mixture_posterior(grid, (0.4, 0.9), (0.01, 0.01), (0.96, 0.04))
        assert not rival_screen(grid, 0.02, 0.1)(faint.log_weights, float(faint.log_weights.max()))

    @staticmethod
    def bumps(grid, *peaks):
        idx = np.arange(grid.n_points)
        return np.maximum.reduce([h - 0.5 * ((idx - c) / 3.0) ** 2 for c, h in peaks])

    def test_rival_at_exactly_min_separation_passes(self, grid):
        log_w = self.bumps(grid, (1000, 0.0), (1100, 0.0))
        sep = float(grid.points[1100] - grid.points[1000])
        assert detect_peaks(Posterior(grid=grid, log_weights=log_w), sep, 0.5).secondary is not None
        assert rival_screen(grid, sep, 0.5)(log_w, float(log_w.max()))

    def test_rounding_tie_primary_counts_as_top(self, grid):
        # densities tie at 1000 and 1075, so the detector's primary is 1000,
        # a full min_separation from the rival at 1150; 1075 is closer
        log_w = self.bumps(grid, (1000, -1e-16), (1075, 0.0), (1150, math.log(0.6)))
        sep = float(grid.points[1150] - grid.points[1000])
        report = detect_peaks(Posterior(grid=grid, log_weights=log_w), sep, 0.5)
        assert report.primary.location == grid.points[1000]
        assert report.secondary is not None
        assert rival_screen(grid, sep, 0.5)(log_w, float(log_w.max()))

    @staticmethod
    def ramp_to_edge(grid, edge_bump):
        # the top at 1000, a slope down to 1100 that stays inside the band
        # (ratio 0.5), and -50 everywhere else: the band is [1000, 1100]
        log_w = np.full(grid.n_points, -50.0)
        log_w[1000:1101] = -0.001 * np.arange(101)
        log_w[1100] = log_w[1099] + edge_bump
        return log_w, float(grid.points[1100] - grid.points[1000])

    def test_band_edge_at_min_separation_without_rival(self, grid):
        # the band edge lies exactly min_separation from the top, so the early
        # exit is not taken; the slope holds no local maximum, so no rival
        log_w, sep = self.ramp_to_edge(grid, -0.001)
        assert not rival_screen(grid, sep, 0.5)(log_w, 0.0)
        assert detect_peaks(Posterior(grid=grid, log_weights=log_w), sep, 0.5).secondary is None

    def test_band_edge_at_min_separation_with_rival(self, grid):
        log_w, sep = self.ramp_to_edge(grid, 0.0005)
        assert rival_screen(grid, sep, 0.5)(log_w, 0.0)
        report = detect_peaks(Posterior(grid=grid, log_weights=log_w), sep, 0.5)
        assert report.secondary.location == grid.points[1100]
        # one ulp further, neither band edge is min_separation from the top
        assert not rival_screen(grid, np.nextafter(sep, np.inf), 0.5)(log_w, 0.0)

    def test_out_of_range_band_is_never_screened(self, grid):
        # a band reaching subnormal densities gets no shortcut
        log_w = gaussian_posterior(grid, 0.5, 0.01).log_weights
        assert rival_screen(grid, 0.02, 1e-310)(log_w, float(log_w.max()))
        flat = np.full(grid.n_points, -np.inf)
        assert rival_screen(grid, 0.02, 0.5)(flat, float(flat.max()))


def _five_pass_step(log_w, log_rows):
    """The step before rows were added in place, on a (B, N) block of
    trials: gather the rows into one (B, N) copy, add it, take the maxima,
    subtract them, then take argmaxes."""
    gathered = np.empty_like(log_w)
    for i, row in enumerate(log_rows):
        gathered[i] = row
    log_w += gathered
    top = log_w.max(axis=1)
    log_w -= top[:, None]
    return top, log_w.argmax(axis=1)


# sums of these tie exactly (-1.0 + -2.5 == -2.5 + -1.0), tie to rounding
# (-0.1 + -0.2 against -0.3) or fall below LOG_FLOOR
_STEP_PALETTE = (
    0.0, -0.0, -1e-16, -0.1, -0.2, -0.3, -1.0, -2.5,
    LOG_FLOOR + 1e-13, LOG_FLOOR, LOG_FLOOR - 0.5, 2.0 * LOG_FLOOR,
)
_ROW_KINDS = ("plain", "palette", "near_tie", "all_neg_inf", "nan_entry", "tail", "nan_stand_in")


def _oracle_row(kind, rng, n, log_w_row):
    if kind == "plain":
        return np.maximum(np.log(rng.uniform(size=n)), LOG_FLOOR)
    if kind == "palette":
        return rng.choice(_STEP_PALETTE, size=n)
    if kind == "near_tie":
        # make several sums land on the running top, or one ulp below it
        row = np.maximum(np.log(rng.uniform(size=n)), LOG_FLOOR)
        sums = log_w_row + row
        top = sums.max()
        picks = rng.choice(n, size=4, replace=False)
        for k, i in enumerate(picks):
            target = top if k % 2 == 0 else np.nextafter(top, -np.inf)
            row[i] = target - log_w_row[i]
        return row
    if kind == "all_neg_inf":
        return np.full(n, -np.inf)
    if kind == "nan_entry":
        row = np.maximum(np.log(rng.uniform(size=n)), LOG_FLOOR)
        row[rng.integers(n)] = np.nan
        return row
    if kind == "tail":
        # tail rows synthesized beyond n_max reach far below the floor
        return LOG_FLOOR + rng.uniform(-2000.0, 5.0, size=n)
    return np.nan  # a scalar row, which log_step broadcasts


@given(
    b=st.sampled_from((1, 3, 8)),
    n=st.sampled_from((64, 97, 4096)),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_log_step_matches_five_pass_step(b, n, kinds, seed, steps):
    rng = np.random.default_rng(seed)
    # log weights as a run leaves them: a top at 0, palette values and a spread
    log_w = np.where(
        rng.uniform(size=(b, n)) < 0.5,
        rng.choice(_STEP_PALETTE, size=(b, n)),
        -rng.exponential(30.0, size=(b, n)),
    )
    log_w[:, 0] = 0.0
    want_w = log_w.copy()
    for step in range(steps):
        rows = [_oracle_row(kinds[(i + step) % 8], rng, n, want_w[i]) for i in range(b)]
        with np.errstate(invalid="ignore"):
            want_top, want_arg = _five_pass_step(want_w, rows)
            got = [log_step(w, row) for w, row in zip(log_w, rows)]  # each row in place
        got_top = np.array([peak for peak, _ in got])
        got_arg = np.array([top for _, top in got])
        assert np.array_equal(got_top, want_top, equal_nan=True)
        assert np.array_equal(log_w, want_w, equal_nan=True)
        # the argmax of a row whose maximum is not finite is meaningless
        finite = np.isfinite(want_top)
        assert np.array_equal(got_arg[finite], want_arg[finite])
        assert (np.isfinite(got_top) == finite).all()
        keep = np.flatnonzero(finite)
        if keep.size == 0:
            break
        log_w, want_w = log_w[keep], want_w[keep]
        b = keep.size


@given(
    n=st.sampled_from((64, 97, 4096)),
    kinds=st.sets(st.sampled_from(("floor", "subnormal", "neg_inf", "nan", "pos_inf"))),
    shift=st.sampled_from((0.0, -1e4, 37.5)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_density_is_exp_of_normalized_bit_for_bit(n, kinds, shift, seed):
    grid = PhaseGrid(n_points=n)
    rng = np.random.default_rng(seed)
    # a top at 0 and the rest at least 40 below it: the normalization then
    # shifts by log(spacing) to within 1e-13, so targets land where drawn
    log_w = -rng.exponential(60.0, size=n) - 40.0
    cells = rng.permutation(n)
    log_w[cells[-1]] = 0.0
    log_norm = math.log(grid.spacing)
    if "floor" in kinds:  # at and far below the floor
        log_w[cells[:8]] = log_norm + np.array([LOG_FLOOR, LOG_FLOOR - 1e-9, -1e4, -1e300] * 2)
    if "subnormal" in kinds:  # densities between exp(-745) and exp(-708)
        log_w[cells[8:40]] = log_norm + rng.uniform(-744.99, -708.01, size=32)
    if "neg_inf" in kinds:
        log_w[cells[40:44]] = -np.inf
    if "nan" in kinds:
        log_w[cells[44]] = np.nan
    if "pos_inf" in kinds:
        log_w[cells[45]] = np.inf
    log_w += shift
    with np.errstate(invalid="ignore"):
        x = _normalized(grid, log_w)
        got = density(Posterior(grid, log_w))
    want = np.exp(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if kinds == {"floor", "subnormal"}:
        assert (x == LOG_FLOOR).sum() >= 6
        assert ((x > LOG_FLOOR) & (x < -708.0)).sum() >= 32


def test_exp_is_exactly_zero_from_the_underflow_cut_down():
    # _logsumexp skips exp at and below the cut and writes +0.0 there; a
    # NumPy whose exp returned anything else would shift its bits
    cut = _EXP_UNDERFLOW
    xs = np.concatenate((
        [cut, np.nextafter(cut, 0.0), np.nextafter(cut, -np.inf), -np.inf],
        np.linspace(cut, -1e4, 1_000_001),
    ))
    for n in (1, 3, 8, 17, len(xs)):  # scalar, partial and full vector lanes
        assert not np.exp(xs[:n]).view(np.uint64).any()
    assert np.exp(cut) == 0.0 and not np.signbit(np.exp(cut))


@given(
    n=st.sampled_from((64, 97, 4096)),
    kind=st.sampled_from(("plain", "palette", "near_tie", "tail")),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_log_step_leaves_an_exact_zero_maximum(n, kind, seed, steps):
    # the fixed-mode rival screen is handed top = 0.0 on this invariant
    rng = np.random.default_rng(seed)
    log_w = np.where(
        rng.uniform(size=n) < 0.5, rng.choice(_STEP_PALETTE, size=n), -rng.exponential(30.0, size=n)
    )
    log_w[rng.integers(n)] = 0.0
    for _ in range(steps):
        peak, top = log_step(log_w, _oracle_row(kind, rng, n, log_w))
        assert math.isfinite(peak)
        assert log_w.max() == 0.0 and log_w[top] == 0.0
        assert not np.signbit(log_w[top])


@given(
    n=st.one_of(st.just(1), st.just(4096), st.integers(min_value=2, max_value=300)),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e5]),
    ties=st.integers(min_value=0, max_value=3),
    neg_inf=st.sampled_from(["none", "some", "all"]),
    special=st.sampled_from([None, math.inf, math.nan]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_logsumexp_matches_scipy_bit_for_bit(n, scale, ties, neg_inf, special, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, scale, size=n)
    a[rng.integers(0, n, size=ties)] = a.max()  # ties at the maximum
    if neg_inf == "some":
        a[rng.integers(0, n, size=max(1, n // 4))] = -np.inf
    elif neg_inf == "all":
        a[:] = -np.inf
    if special is not None:
        a[rng.integers(0, n)] = special
    want = logsumexp(a)
    got = _logsumexp(a)
    assert type(got) is type(want)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
