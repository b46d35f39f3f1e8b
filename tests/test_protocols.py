"""Protocol state-machine tests: replay, schedules, and threshold bookkeeping."""
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su11sim.protocols as protocols
from su11sim import (
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    POLICY_EXACT_TAIL,
    POLICY_RENORMALIZE,
    DegenerateRowError,
    LikelihoodGrid,
    Outcome,
    PhaseGrid,
    Posterior,
    ProtocolConfig,
    ResidualMassError,
    Scheme,
    StepRecord,
    SU11Error,
    TrialRecord,
    density,
    detect_peaks,
    detection_asymmetry,
    make_model,
    map_estimate,
    pair_amplitude_matrix,
    pair_ratio,
    posterior_mean,
    posterior_variance,
    prune_secondary,
    run_trial,
    sample,
    scheme_for_mode,
    shared_grid_tables,
    uniform_posterior,
    update_log,
)
from su11sim.measurement import outcome_law, outcome_of_code


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
            # the screen rules out a rival at every step, and the
            # end-of-trial report reads its peaks off the trial's one shared
            # density, so full peak detection never runs
            assert len(calls) == 0

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


# -- the lockstep engine against the serial loop it replaced ----------------
#
# _reference_sample and _reference_trial are the per-draw sampler and the
# one-trial-at-a-time step loop that production used before run_trials
# batched trials and cached outcome laws. The arithmetic is unchanged, so
# records must be equal, not merely close.


def _reference_sample(model, delta_phi, rng):
    u = float(delta_phi)
    if model.residual_policy == POLICY_RENORMALIZE:
        amps = pair_amplitude_matrix(model.table, np.array([u]))[0]
        pair_probs = np.abs(amps) ** 2
        if model.scheme is Scheme.PHOTON_NUMBER:
            outcomes = [Outcome.pair(n) for n in range(model.table.n_max + 1)]
            probs = pair_probs
        else:
            a0, a1 = amps[0], amps[1]
            p0, p1 = np.abs(a0) ** 2, np.abs(a1) ** 2
            cross = np.imag(a0 * np.conj(a1))
            p_plus, p_minus = 0.5 * (p0 + p1) + cross, 0.5 * (p0 + p1) - cross
            outcomes = [Outcome.plus(), Outcome.minus()]
            outcomes += [Outcome.null(n) for n in range(2, model.table.n_max + 1)]
            probs = np.concatenate(([max(p_plus, 0.0), max(p_minus, 0.0)], pair_probs[2:]))
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

    def geometric(v):
        if v <= 0.0:
            return 0
        return int(math.log1p(-rng.random()) / math.log(v))

    v = pair_ratio(model.params, u)
    if model.scheme is Scheme.PHOTON_NUMBER:
        return Outcome.pair(geometric(v))
    gap = detection_asymmetry(model.params, u)
    null_mass = v * v
    p_plus = max(0.5 * (1.0 - null_mass - gap), 0.0)
    p_minus = max(0.5 * (1.0 - null_mass + gap), 0.0)
    u1 = rng.random()
    if u1 < p_plus:
        return Outcome.plus()
    if u1 < p_plus + p_minus:
        return Outcome.minus()
    return Outcome.null(2 + geometric(v))


def _reference_trial(config, model, grid, seed, keep_steps, tables):
    rng = np.random.default_rng(int(seed))
    phi_true = grid.snap(config.phi_true)
    log_w = uniform_posterior(grid).log_weights
    state = {"map": map_estimate(Posterior(grid, log_w)), "steps": []}

    def measure(k, j):
        theta = float(grid.points[j])
        outcome = _reference_sample(model, phi_true - theta, rng)
        log_w[:] += tables.log_row(outcome, j)
        peak = log_w.max()
        if not np.isfinite(peak):
            raise DegenerateRowError(
                f"outcome {outcome.label()} at step {k} leaves zero posterior mass"
            )
        log_w[:] -= peak
        state["map"] = float(grid.points[int(np.argmax(log_w))])
        if keep_steps:
            state["steps"].append(
                StepRecord(step=k, theta=theta, outcome=outcome, map_estimate=state["map"])
            )

    m_threshold = map_jumps = phi_rough = None
    if config.mode == MODE_FIXED:
        j = grid.index_of(config.fixed_theta)
        map_jumps, prev_map = 0, state["map"]
        for k in range(1, config.measurements + 1):
            measure(k, j)
            if k > 1 and abs(state["map"] - prev_map) > config.peak_min_separation:
                map_jumps += 1
            prev_map = state["map"]
            if m_threshold is None:
                report = detect_peaks(
                    Posterior(grid, log_w), config.peak_min_separation, config.rival_height_ratio
                )
                if report.secondary is not None:
                    m_threshold = k
    elif config.mode == MODE_LADDER:
        theta_prev = 0.0
        for k in range(1, config.pre_rounds + 1):
            cap = config.ramp_cap_fraction * state["map"]
            ramp = (k / config.pre_rounds) * cap
            theta_raw = min(max(theta_prev, ramp), cap)
            j = grid.floor_index(max(theta_raw, grid.lo))
            measure(k, j)
            theta_prev = float(grid.points[j])
        phi_rough = state["map"]
        j = grid.index_of(config.final_fraction * phi_rough)
        for k in range(config.pre_rounds + 1, config.measurements + 1):
            measure(k, j)
    else:
        theta0 = grid.midpoint if config.initial_theta is None else config.initial_theta
        j = grid.index_of(theta0)
        for k in range(1, config.measurements + 1):
            measure(k, j)
            j = grid.index_of(state["map"])

    post = Posterior(grid, log_w)
    report = detect_peaks(post, config.peak_min_separation, config.peak_height_floor)
    pruned = False
    if config.mode == MODE_LADDER and report.secondary is not None:
        post = prune_secondary(post, report)
        pruned = True
    d = density(post)
    edge = float(d[:5].sum() + d[-5:].sum()) * grid.spacing > 1e-6
    return TrialRecord(
        seed=int(seed),
        config=config,
        scheme=model.scheme.value,
        mean_photons=model.mean_photons,
        squeeze_r=model.params.squeeze_r,
        grid_lo=grid.lo,
        grid_hi=grid.hi,
        grid_points=grid.n_points,
        phi_true=phi_true,
        steps=tuple(state["steps"]),
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


def _reference_results(config, model, grid, seeds, keep_steps, tables=None):
    tables = tables if tables is not None else shared_grid_tables(model, grid)
    out = []
    for seed in seeds:
        try:
            out.append(_reference_trial(config, model, grid, seed, keep_steps, tables).to_dict())
        except SU11Error as exc:
            out.append((type(exc), str(exc)))
    return out


def _engine_results(config, model, grid, seeds, keep_steps, tables=None):
    return [
        (type(r), str(r)) if isinstance(r, SU11Error) else r.to_dict()
        for r in protocols.run_trials(
            config, model, grid, seeds, keep_steps=keep_steps, tables=tables
        )
    ]


_SEEDS = list(range(1000, 1017))  # 17 seeds: blocks of 7 leave a partial block


@pytest.fixture(params=(1, 7, 64), ids=lambda b: f"B{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(protocols, "_BLOCK", request.param)
    return request.param


class TestLockstepEngine:
    @pytest.mark.parametrize("keep_steps", (True, False))
    @pytest.mark.parametrize(
        "mode, kw",
        [
            (MODE_FIXED, dict(fixed_theta=0.72, measurements=200)),
            (MODE_LADDER, dict(phi_true=0.3, measurements=400, pre_rounds=60)),
            (MODE_OPTIMAL, dict(measurements=200)),
        ],
    )
    def test_records_match_serial_loop(self, models, grid, block, mode, kw, keep_steps):
        cfg = small_config(mode, **kw)
        model = models[scheme_for_mode(mode)]
        want = _reference_results(cfg, model, grid, _SEEDS, keep_steps)
        assert _engine_results(cfg, model, grid, _SEEDS, keep_steps) == want
        # the cases reach the mode-specific branches they are meant to cover
        if mode == MODE_FIXED:
            assert 0 < sum(r["m_threshold"] is not None for r in want) < len(want)
        if mode == MODE_LADDER:
            assert 0 < sum(r["pruned"] for r in want) < len(want)

    @pytest.mark.parametrize("mode", (MODE_LADDER, MODE_OPTIMAL))
    def test_tail_rows_beyond_n_max(self, grid, block, mode):
        model = make_model(scheme_for_mode(mode), 4.0, n_max=2)
        cfg = small_config(mode, phi_true=1.2, measurements=150)
        want = _reference_results(cfg, model, grid, _SEEDS, True)
        assert _engine_results(cfg, model, grid, _SEEDS, True) == want
        counts = [Outcome.parse_label(s["outcome"]).n for r in want for s in r["steps"]]
        assert any(n is not None and n > 2 for n in counts)

    def test_residual_mass_error_fails_only_its_trial(self, grid, block):
        model = make_model(
            Scheme.OPTIMAL, 4.0, n_max=10, residual_policy=POLICY_RENORMALIZE, residual_tol=1e-3
        )
        cfg = small_config(MODE_OPTIMAL, phi_true=1.6)
        want = _reference_results(cfg, model, grid, _SEEDS, False)
        assert _engine_results(cfg, model, grid, _SEEDS, False) == want
        failed = [r for r in want if isinstance(r, tuple)]
        assert 0 < len(failed) < len(want)
        assert all(f[0] is ResidualMassError for f in failed)

    def test_degenerate_row_fails_only_its_trial(self, photon_model, grid, block):
        # a log table whose pair:9 row is -inf everywhere: a trial that draws
        # it has no finite posterior left
        tables = LikelihoodGrid(photon_model, grid)
        poisoned = tables._log_table.copy()
        poisoned[9] = -np.inf
        poisoned.setflags(write=False)
        tables._log_table = poisoned
        cfg = small_config(MODE_LADDER, measurements=150)
        with np.errstate(invalid="ignore"):
            want = _reference_results(cfg, photon_model, grid, _SEEDS, False, tables)
            got = _engine_results(cfg, photon_model, grid, _SEEDS, False, tables)
        assert got == want
        failed = [r for r in want if isinstance(r, tuple)]
        assert 0 < len(failed) < len(want)
        assert all(f[0] is DegenerateRowError and "pair:9" in f[1] for f in failed)

    def test_run_trial_is_one_seed_of_run_trials(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        one = run_trial(cfg, models[Scheme.OPTIMAL], grid, 5, keep_steps=False)
        (batch,) = protocols.run_trials(cfg, models[Scheme.OPTIMAL], grid, [5])
        assert one.to_dict() == batch.to_dict()

    def test_run_trial_raises_the_trial_error(self, grid):
        model = make_model(
            Scheme.OPTIMAL, 4.0, n_max=10, residual_policy=POLICY_RENORMALIZE, residual_tol=1e-3
        )
        cfg = small_config(MODE_OPTIMAL, phi_true=1.6)
        with pytest.raises(ResidualMassError, match="leaks"):
            run_trial(cfg, model, grid, _SEEDS[8])

    def test_empty_seed_list(self, models, grid):
        assert protocols.run_trials(small_config(MODE_OPTIMAL), models[Scheme.OPTIMAL], grid, []) == []


_LAW_MODELS: dict = {}


def _law_model(scheme, policy):
    key = (scheme, policy)
    if key not in _LAW_MODELS:
        _LAW_MODELS[key] = make_model(
            scheme, 4.0, n_max=8, residual_policy=policy, residual_tol=1e-3
        )
    return _LAW_MODELS[key]


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from((Scheme.PHOTON_NUMBER, Scheme.OPTIMAL)),
    policy=st.sampled_from((POLICY_EXACT_TAIL, POLICY_RENORMALIZE)),
    offset=st.one_of(
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.sampled_from((0.0, -0.0, 1e-300, math.pi)),
    ),
    seed=st.integers(0, 2**64 - 1),
    draws=st.integers(1, 12),
)
def test_cached_law_draws_as_sample(scheme, policy, offset, seed, draws):
    # one law reused for every draw, sample, and the old per-draw sampler
    # agree on each outcome (or error) and leave the Generator in one state
    model = _law_model(scheme, policy)
    law = outcome_law(model, offset)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    for _ in range(draws):
        got = []
        for draw, rng in zip(
            (law.draw, lambda r: sample(model, offset, r), lambda r: _reference_sample(model, offset, r)),
            rngs,
        ):
            try:
                got.append(draw(rng))
            except ResidualMassError as exc:
                got.append(str(exc))
        assert got[0] == got[1] == got[2]
        if isinstance(got[0], Outcome):
            assert outcome_of_code(scheme, got[0].code()) == got[0]
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]
