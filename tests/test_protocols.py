"""Protocol state-machine tests: replay, schedules, and threshold bookkeeping."""
import math
from dataclasses import asdict

import numpy as np
import pytest

import su11sim.protocols as protocols
from su11sim import (
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    PhaseGrid,
    Posterior,
    ProtocolConfig,
    Scheme,
    TrialRecord,
    detect_peaks,
    map_estimate,
    posterior_mean,
    posterior_variance,
    run_trial,
    sample,
    scheme_for_mode,
    shared_grid_tables,
    uniform_posterior,
    update_log,
)


def small_config(mode: str, **kw) -> ProtocolConfig:
    base = dict(measurements=120, phi_true=0.75)
    if mode == MODE_FIXED:
        base["fixed_theta"] = 0.70
    if mode == MODE_LADDER:
        base["pre_rounds"] = 30
    base.update(kw)
    return ProtocolConfig(mode=mode, **base)


@pytest.fixture(scope="module")
def models(photon_model, optimal_model):
    return {Scheme.PHOTON_NUMBER: photon_model, Scheme.OPTIMAL: optimal_model}


class TestConfigValidation:
    def test_mode_specific_requirements(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mode="bogus")
        with pytest.raises(ValueError):
            ProtocolConfig(mode=MODE_FIXED)  # missing fixed_theta
        with pytest.raises(ValueError):
            ProtocolConfig(mode=MODE_LADDER, measurements=100, pre_rounds=100)
        with pytest.raises(ValueError):
            ProtocolConfig(mode=MODE_LADDER, ramp_cap_fraction=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(mode=MODE_OPTIMAL, measurements=0)
        with pytest.raises(ValueError):
            ProtocolConfig(mode=MODE_OPTIMAL, rival_height_ratio=0.0)

    def test_scheme_for_mode(self):
        assert scheme_for_mode(MODE_FIXED) is Scheme.PHOTON_NUMBER
        assert scheme_for_mode(MODE_LADDER) is Scheme.PHOTON_NUMBER
        assert scheme_for_mode(MODE_OPTIMAL) is Scheme.OPTIMAL


class TestReplayAndSerialization:
    @pytest.mark.parametrize("mode", (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL))
    def test_same_seed_replays_byte_identical(self, mode, models, grid):
        cfg = small_config(mode)
        model = models[scheme_for_mode(mode)]
        a = run_trial(cfg, model, grid, 123)
        b = run_trial(cfg, model, grid, 123)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        model = models[Scheme.OPTIMAL]
        a = run_trial(cfg, model, grid, 1)
        b = run_trial(cfg, model, grid, 2)
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize("mode", (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL))
    def test_json_round_trip(self, mode, models, grid):
        cfg = small_config(mode)
        rec = run_trial(cfg, models[scheme_for_mode(mode)], grid, 55)
        text = rec.to_json()
        assert TrialRecord.from_json(text).to_json() == text

    def test_record_audit_fields(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        rec = run_trial(cfg, models[Scheme.OPTIMAL], grid, 9)
        assert rec.seed == 9
        assert rec.scheme == "optimal"
        assert rec.mean_photons == pytest.approx(4.0, rel=1e-12)
        assert rec.grid_points == grid.n_points
        assert rec.phi_true == grid.snap(0.75)
        assert len(rec.steps) == cfg.measurements

    def test_keep_steps_false_drops_trajectory_only(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        full = run_trial(cfg, models[Scheme.OPTIMAL], grid, 77)
        lean = run_trial(cfg, models[Scheme.OPTIMAL], grid, 77, keep_steps=False)
        assert lean.steps == ()
        assert lean.final_map == full.final_map
        assert lean.final_mean == full.final_mean
        assert lean.final_variance == full.final_variance

    def test_thetas_always_on_grid(self, models, grid):
        for mode in (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL):
            rec = run_trial(small_config(mode), models[scheme_for_mode(mode)], grid, 31)
            for s in rec.steps:
                assert grid.snap(s.theta) == s.theta


class TestFixedProtocol:
    def test_threshold_matches_prefix_replay(self, models, grid):
        cfg = small_config(MODE_FIXED, measurements=300)
        model = models[Scheme.PHOTON_NUMBER]
        rec = run_trial(cfg, model, grid, 404)
        assert rec.m_threshold is not None
        tables = shared_grid_tables(model, grid)
        j = grid.index_of(cfg.fixed_theta)
        post = uniform_posterior(grid)
        first = None
        for s in rec.steps:
            post = update_log(post, tables.log_row(s.outcome, j))
            report = detect_peaks(
                post, cfg.peak_min_separation, cfg.rival_height_ratio
            )
            if report.secondary is not None:
                first = s.step
                break
        assert first == rec.m_threshold

    @pytest.mark.parametrize("theta", (0.65, 0.70, 0.745, 0.75))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_record_matches_unscreened_replay(self, models, grid, monkeypatch, theta, seed):
        # an independent run_fixed loop that runs full peak detection after
        # every step; the screened production loop must agree byte for byte
        cfg = small_config(MODE_FIXED, fixed_theta=theta, measurements=400)
        model = models[Scheme.PHOTON_NUMBER]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return detect_peaks(*args, **kwargs)

        monkeypatch.setattr(protocols, "detect_peaks", counted)
        got = run_trial(cfg, model, grid, seed).to_dict()

        tables = shared_grid_tables(model, grid)
        rng = np.random.default_rng(seed)
        j = grid.index_of(theta)
        theta_j = float(grid.points[j])
        offset = grid.snap(cfg.phi_true) - theta_j
        log_w = uniform_posterior(grid).log_weights
        prev_map = map_estimate(Posterior(grid, log_w))
        steps, m_threshold, map_jumps = [], None, 0
        for k in range(1, cfg.measurements + 1):
            outcome = sample(model, offset, rng)
            log_w = log_w + tables.log_row(outcome, j)
            log_w = log_w - log_w.max()
            map_k = float(grid.points[int(np.argmax(log_w))])
            steps.append(
                {"step": k, "theta": theta_j, "outcome": outcome.label(), "map_estimate": map_k}
            )
            if k > 1 and abs(map_k - prev_map) > cfg.peak_min_separation:
                map_jumps += 1
            prev_map = map_k
            report = detect_peaks(
                Posterior(grid, log_w), cfg.peak_min_separation, cfg.rival_height_ratio
            )
            if m_threshold is None and report.secondary is not None:
                m_threshold = k
        post = Posterior(grid, log_w)
        expected = dict(
            got,
            steps=steps,
            m_threshold=m_threshold,
            map_jumps=map_jumps,
            final_map=map_estimate(post),
            final_mean=posterior_mean(post),
            final_variance=posterior_variance(post),
            peaks=asdict(detect_peaks(post, cfg.peak_min_separation, cfg.peak_height_floor)),
        )
        assert got == expected
        # theta 0.745 is censored within 400 steps for seeds 0 and 1 and
        # breaks at step 399 for seed 2; zero offset never breaks
        assert (m_threshold is None) == (theta == 0.75 or (theta == 0.745 and seed < 2))
        if m_threshold is None:
            # the screen rules out a rival at every step, so only the
            # end-of-trial report runs full peak detection
            assert len(calls) == 1

    def test_zero_offset_never_breaks_ambiguity(self, models, grid):
        cfg = small_config(MODE_FIXED, fixed_theta=0.75, measurements=200)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, 5)
        assert rec.m_threshold is None

    def test_final_posterior_bimodal_at_paper_operating_point(self, models, grid):
        cfg = small_config(MODE_FIXED, measurements=1000)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, 2024, keep_steps=False)
        assert rec.peaks.secondary is not None
        locs = sorted((rec.peaks.primary.location, rec.peaks.secondary.location))
        assert locs[0] == pytest.approx(2 * 0.70 - 0.75, abs=0.02)
        assert locs[1] == pytest.approx(0.75, abs=0.02)
        assert rec.map_jumps is not None and rec.map_jumps >= 1


class TestLadderProtocol:
    @pytest.mark.parametrize("seed", (3, 17, 99))
    def test_stage1_cap_and_monotonicity(self, models, grid, seed):
        cfg = small_config(MODE_LADDER, measurements=400, pre_rounds=100)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, seed)
        prev_map = grid.points[0]  # MAP of the uniform prior (lowest-index tie)
        prev_theta = -math.inf
        for s in rec.steps[: cfg.pre_rounds]:
            assert s.theta <= cfg.ramp_cap_fraction * prev_map + 1e-12
            assert s.theta >= prev_theta - 1e-12
            prev_map = s.map_estimate
            prev_theta = s.theta

    def test_stage2_locks_at_final_fraction(self, models, grid):
        cfg = small_config(MODE_LADDER, measurements=400, pre_rounds=100)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, 8)
        assert rec.phi_rough == rec.steps[cfg.pre_rounds - 1].map_estimate
        lock = grid.snap(cfg.final_fraction * rec.phi_rough)
        lock_thetas = {s.theta for s in rec.steps[cfg.pre_rounds :]}
        assert lock_thetas == {lock}

    def test_converges_near_truth(self, models, grid):
        cfg = small_config(MODE_LADDER, measurements=1000, pre_rounds=100)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, 21, keep_steps=False)
        assert rec.final_map == pytest.approx(grid.snap(0.75), abs=0.02)
        assert rec.peaks.secondary is None or rec.pruned

    def test_small_phase_stays_interior(self, models, grid):
        cfg = small_config(MODE_LADDER, phi_true=0.25, measurements=600, pre_rounds=100)
        rec = run_trial(cfg, models[Scheme.PHOTON_NUMBER], grid, 13, keep_steps=False)
        assert not rec.edge_mass
        assert rec.final_map == pytest.approx(0.25, abs=0.05)


class TestOptimalProtocol:
    def test_first_theta_is_midpoint_then_map(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        rec = run_trial(cfg, models[Scheme.OPTIMAL], grid, 42)
        assert rec.steps[0].theta == grid.midpoint
        for prev, cur in zip(rec.steps, rec.steps[1:]):
            assert cur.theta == grid.snap(prev.map_estimate)

    def test_initial_theta_override(self, models, grid):
        cfg = small_config(MODE_OPTIMAL, initial_theta=0.3)
        rec = run_trial(cfg, models[Scheme.OPTIMAL], grid, 42)
        assert rec.steps[0].theta == grid.snap(0.3)

    def test_frozen_ten_step_trial(self, models, grid):
        cfg = ProtocolConfig(mode=MODE_OPTIMAL, measurements=10, phi_true=0.75)
        rec = run_trial(cfg, models[Scheme.OPTIMAL], grid, 42)
        assert [s.outcome.label() for s in rec.steps] == [
            "null:4", "minus", "plus", "plus", "minus",
            "minus", "minus", "plus", "plus", "plus",
        ]
        assert rec.final_map == pytest.approx(0.782330201821677, abs=1e-15)
        assert rec.final_mean == pytest.approx(0.7759294164060154, abs=1e-12)
        assert rec.final_variance == pytest.approx(0.006243660303451419, rel=1e-10)

    def test_exact_start_tightens_immediately(self, models, grid):
        phi = PhaseGrid().snap(0.75)
        cfg = small_config(MODE_OPTIMAL, phi_true=phi, initial_theta=phi, measurements=200)
        rec = run_trial(cfg, models[Scheme.OPTIMAL], grid, 64, keep_steps=False)
        # per-step information 24 gives sd ~ 0.0144 after 200 steps; 4 sigma
        assert rec.final_map == pytest.approx(phi, abs=0.058)
        assert rec.final_variance < 5e-4


class TestDispatchErrors:
    def test_scheme_mismatch(self, models, grid):
        with pytest.raises(ValueError):
            run_trial(small_config(MODE_FIXED), models[Scheme.OPTIMAL], grid, 1)
        with pytest.raises(ValueError):
            run_trial(small_config(MODE_OPTIMAL), models[Scheme.PHOTON_NUMBER], grid, 1)

    def test_missing_phi_true(self, models, grid):
        cfg = ProtocolConfig(mode=MODE_OPTIMAL, measurements=10)
        with pytest.raises(ValueError):
            run_trial(cfg, models[Scheme.OPTIMAL], grid, 1)
