"""Protocol state-machine tests: replay, schedules, and threshold bookkeeping."""
import inspect
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su11sim.protocols as protocols
from su11sim import (
    MODE_FIELDS,
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    DegenerateRowError,
    PhaseGrid,
    ProtocolConfig,
    SU11Error,
    make_model,
    run_trial,
    scheme_for_mode,
)
from su11sim.measurement import (
    LikelihoodGrid,
    Outcome,
    Scheme,
    detection_asymmetry,
    outcome_law,
    outcome_of_code,
    pair_ratio,
    sample,
    shared_grid_tables,
)
from su11sim.posterior import (
    PEAK_HEIGHT_FLOOR,
    PEAK_MIN_SEPARATION,
    Posterior,
    density,
    detect_peaks,
    log_step,
    map_estimate,
    posterior_mean,
    posterior_variance,
    prune_secondary,
    uniform_posterior,
)
from su11sim.protocols import RIVAL_HEIGHT_RATIO, StepRecord, TrialRecord


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

    @pytest.mark.parametrize("mode, field", [(MODE_OPTIMAL, "measurements"), (MODE_LADDER, "pre_rounds")])
    def test_boolean_counts_rejected(self, mode, field):
        # True is an int equal to 1, which both fields would otherwise accept
        with pytest.raises(ValueError, match=f"^{field} must"):
            small_config(mode, **{field: True})

    def test_only_the_paper_parameters_are_fields(self):
        assert [f.name for f in fields(ProtocolConfig)] == [
            "mode", "measurements", "phi_true", "fixed_theta",
            "pre_rounds", "ramp_cap_fraction", "final_fraction",
        ]

    def test_scheme_for_mode(self):
        assert scheme_for_mode(MODE_FIXED) is Scheme.PHOTON_NUMBER
        assert scheme_for_mode(MODE_LADDER) is Scheme.PHOTON_NUMBER
        assert scheme_for_mode(MODE_OPTIMAL) is Scheme.OPTIMAL


# the retired settings a record's config and a campaign's protocol still
# write, each at its one value
ECHOES = {
    "initial_theta": None,
    "peak_min_separation": 0.02,
    "peak_height_floor": 0.1,
    "rival_height_ratio": 0.5,
}


class TestRetiredSettings:
    def test_echoes_are_the_constants(self):
        assert (PEAK_MIN_SEPARATION, PEAK_HEIGHT_FLOOR, RIVAL_HEIGHT_RATIO) == (0.02, 0.1, 0.5)
        defaults = inspect.signature(detect_peaks).parameters
        assert defaults["min_separation"].default == PEAK_MIN_SEPARATION
        assert defaults["height_ratio_floor"].default == PEAK_HEIGHT_FLOOR

    @pytest.mark.parametrize("mode", (MODE_FIXED, MODE_LADDER, MODE_OPTIMAL))
    def test_to_dict_writes_each_at_its_value(self, mode):
        cfg = small_config(mode)
        assert cfg.to_dict() == asdict(cfg) | ECHOES

    @pytest.mark.parametrize("keep", (True, False), ids=["given", "omitted"])
    @pytest.mark.parametrize("key", sorted(ECHOES))
    def test_from_dict_takes_each_at_its_value_or_omitted(self, key, keep):
        cfg = small_config(MODE_FIXED)
        d = cfg.to_dict()
        if not keep:
            del d[key]
        assert ProtocolConfig.from_dict(d) == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("initial_theta", 0.3),
            ("initial_theta", math.pi / 2),
            ("peak_min_separation", 0.0),
            ("peak_min_separation", 0.03),
            ("peak_min_separation", math.nan),
            ("peak_height_floor", 0.0),
            ("peak_height_floor", 1.0),
            ("rival_height_ratio", 0.25),
            ("rival_height_ratio", True),
            ("rival_height_ratio", None),
        ],
    )
    def test_from_dict_refuses_any_other_value_by_name(self, key, value):
        d = small_config(MODE_OPTIMAL).to_dict() | {key: value}
        want = f"{key} must be {ECHOES[key]!r}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ProtocolConfig.from_dict(d)

    def test_from_dict_refuses_what_is_no_object(self):
        with pytest.raises(ValueError, match="protocol must be a JSON object"):
            ProtocolConfig.from_dict([ECHOES])

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d.pop("mode"), "missing key(s) 'mode'"),
            (lambda d: d.update(bogus=1), "unknown key(s) 'bogus'"),
            (lambda d: d.update(pre_rounds="x"), "pre_rounds must be an integer"),
        ],
        ids=["missing", "unknown", "mistyped"],
    )
    def test_from_dict_names_a_bad_key(self, edit, named):
        d = small_config(MODE_LADDER).to_dict()
        edit(d)
        with pytest.raises(ValueError, match=re.escape(named)):
            ProtocolConfig.from_dict(d)


# (mode, field, value): a field of another mode away from its default, or
# at its default's value in another type
FOREIGN = [
    (MODE_OPTIMAL, "fixed_theta", 0.3),
    (MODE_OPTIMAL, "pre_rounds", 3),
    (MODE_OPTIMAL, "pre_rounds", 100.0),
    (MODE_OPTIMAL, "ramp_cap_fraction", 0.9),
    (MODE_OPTIMAL, "final_fraction", math.nan),
    (MODE_FIXED, "pre_rounds", True),
    (MODE_FIXED, "ramp_cap_fraction", "0.5"),
    (MODE_FIXED, "final_fraction", 0.5),
    (MODE_LADDER, "fixed_theta", 0.7),
]


class TestModeFields:
    def test_each_mode_reads_only_its_own(self):
        assert MODE_FIELDS == {
            MODE_FIXED: ("fixed_theta",),
            MODE_LADDER: ("pre_rounds", "ramp_cap_fraction", "final_fraction"),
            MODE_OPTIMAL: (),
        }

    @pytest.mark.parametrize("mode, key, value", FOREIGN)
    def test_config_names_a_foreign_field(self, mode, key, value):
        want = f"{key} is not read in {mode} mode"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            small_config(mode, **{key: value})

    @pytest.mark.parametrize("mode, key, value", FOREIGN)
    def test_from_dict_names_a_foreign_key(self, mode, key, value):
        d = small_config(mode).to_dict() | {key: value}
        want = f"{key} is not read in {mode} mode and must stay"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            ProtocolConfig.from_dict(d)


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
    def test_record_replays_from_its_config_and_seed(self, mode, models, grid):
        # replay is a rerun: the record's embedded config, model, grid and seed
        rec = run_trial(small_config(mode), models[scheme_for_mode(mode)], grid, 55)
        d = rec.to_dict()
        again = run_trial(
            ProtocolConfig.from_dict(d["config"]),
            make_model(d["scheme"], d["mean_photons"]),
            PhaseGrid(lo=d["grid"]["lo"], hi=d["grid"]["hi"], n_points=d["grid"]["n_points"]),
            d["seed"],
        )
        assert again.to_json() == rec.to_json()

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
        log_w = uniform_posterior(grid).log_weights.copy()
        first = None
        for s in rec.steps:
            log_step(log_w, tables.log_row(s.outcome, j))
            report = detect_peaks(Posterior(grid, log_w), PEAK_MIN_SEPARATION, RIVAL_HEIGHT_RATIO)
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
            if k > 1 and abs(map_k - prev_map) > PEAK_MIN_SEPARATION:
                map_jumps += 1
            prev_map = map_k
            report = detect_peaks(Posterior(grid, log_w), PEAK_MIN_SEPARATION, RIVAL_HEIGHT_RATIO)
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
            peaks=asdict(detect_peaks(post, PEAK_MIN_SEPARATION, PEAK_HEIGHT_FLOOR)),
        )
        assert got == expected
        # theta 0.745 is censored within 400 steps for seeds 0 and 1 and
        # breaks at step 399 for seed 2; zero offset never breaks
        assert (m_threshold is None) == (theta == 0.75 or (theta == 0.745 and seed < 2))
        if m_threshold is None:
            # the screen rules out a rival at every step, so full peak
            # detection runs only for the end-of-trial report
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
        # the first measurement, at the grid midpoint, is already at zero offset
        phi = grid.midpoint
        cfg = small_config(MODE_OPTIMAL, phi_true=phi, measurements=200)
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


# -- the engine against the serial loop it replaced --------------------------
#
# _reference_sample and _reference_trial are the per-draw sampler and the
# step loop that production used before run_trials cached outcome laws, read
# rows from the stacked table's windows and drew uniforms in chunks. The
# arithmetic is unchanged, so records must be equal, not merely close.


def _reference_sample(model, delta_phi, rng):
    u = float(delta_phi)

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
            if k > 1 and abs(state["map"] - prev_map) > PEAK_MIN_SEPARATION:
                map_jumps += 1
            prev_map = state["map"]
            if m_threshold is None:
                report = detect_peaks(
                    Posterior(grid, log_w), PEAK_MIN_SEPARATION, RIVAL_HEIGHT_RATIO
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
        j = grid.index_of(grid.midpoint)
        for k in range(1, config.measurements + 1):
            measure(k, j)
            j = grid.index_of(state["map"])

    post = Posterior(grid, log_w)
    report = detect_peaks(post, PEAK_MIN_SEPARATION, PEAK_HEIGHT_FLOOR)
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


def _engine_results(config, model, grid, seeds, keep_steps):
    return [
        (type(r), str(r)) if isinstance(r, SU11Error) else r.to_dict()
        for r in protocols.run_trials(config, model, grid, seeds, keep_steps=keep_steps)
    ]


_SEEDS = list(range(1000, 1017))


def _fixed_codes(config, model, grid, seed, n):
    # the first n outcome codes a fixed-mode trial of this seed draws
    j = grid.index_of(config.fixed_theta)
    law = outcome_law(model, grid.snap(config.phi_true) - float(grid.points[j]))
    uniform = protocols._uniform_source(np.random.default_rng(seed))
    return [law.draw_code(uniform) for _ in range(n)]


def _poison_pair_9(model, grid, monkeypatch):
    # a log table whose pair:9 row is -inf everywhere, served to the engine:
    # a trial that draws it has no finite posterior left
    tables = LikelihoodGrid(model, grid)
    poisoned = tables._log_table.copy()
    poisoned[9] = -np.inf
    poisoned.setflags(write=False)
    tables._log_table = poisoned
    monkeypatch.setattr(protocols, "shared_grid_tables", lambda model, grid: tables)
    return tables


@pytest.fixture(params=(1, 7, protocols.CHUNK), ids=lambda c: f"C{c}")
def chunk(request, monkeypatch):
    # records must not depend on how many uniforms a trial draws at a time
    monkeypatch.setattr(protocols, "CHUNK", request.param)
    return request.param


class TestStepEngine:
    @pytest.mark.parametrize("keep_steps", (True, False))
    @pytest.mark.parametrize(
        "mode, kw",
        [
            (MODE_FIXED, dict(fixed_theta=0.72, measurements=200)),
            (MODE_LADDER, dict(phi_true=0.3, measurements=400, pre_rounds=60)),
            (MODE_OPTIMAL, dict(measurements=200)),
        ],
    )
    def test_records_match_serial_loop(self, models, grid, chunk, mode, kw, keep_steps):
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
    def test_tail_rows_beyond_n_max(self, grid, chunk, mode):
        model = make_model(scheme_for_mode(mode), 4.0, n_max=2)
        cfg = small_config(mode, phi_true=1.2, measurements=150)
        want = _reference_results(cfg, model, grid, _SEEDS, True)
        assert _engine_results(cfg, model, grid, _SEEDS, True) == want
        # labels read "kind" or "kind:n"
        labels = [s["outcome"].partition(":") for r in want for s in r["steps"]]
        assert any(n and int(n) > 2 for _, _, n in labels)

    def test_degenerate_row_fails_only_its_trial(self, photon_model, grid, chunk, monkeypatch):
        tables = _poison_pair_9(photon_model, grid, monkeypatch)
        cfg = small_config(MODE_LADDER, measurements=150)
        with np.errstate(invalid="ignore"):
            want = _reference_results(cfg, photon_model, grid, _SEEDS, False, tables)
            got = _engine_results(cfg, photon_model, grid, _SEEDS, False)
        assert got == want
        failed = [r for r in want if isinstance(r, tuple)]
        assert 0 < len(failed) < len(want)
        assert all(f[0] is DegenerateRowError and "pair:9" in f[1] for f in failed)

    def test_run_trial_is_one_seed_of_run_trials(self, models, grid):
        cfg = small_config(MODE_OPTIMAL)
        one = run_trial(cfg, models[Scheme.OPTIMAL], grid, 5, keep_steps=False)
        (batch,) = protocols.run_trials(cfg, models[Scheme.OPTIMAL], grid, [5])
        assert one.to_dict() == batch.to_dict()

    def test_run_trial_raises_the_trial_error(self, photon_model, grid, monkeypatch):
        _poison_pair_9(photon_model, grid, monkeypatch)
        cfg = small_config(MODE_LADDER, measurements=150)
        with np.errstate(invalid="ignore"):
            results = protocols.run_trials(cfg, photon_model, grid, _SEEDS)
            seed = next(s for s, r in zip(_SEEDS, results) if isinstance(r, SU11Error))
            with pytest.raises(DegenerateRowError, match="pair:9"):
                run_trial(cfg, photon_model, grid, seed)

    def test_empty_seed_list(self, models, grid):
        assert protocols.run_trials(small_config(MODE_OPTIMAL), models[Scheme.OPTIMAL], grid, []) == []

    # -- fixed-mode trials walking the prefix tree of their outcome codes ----

    @pytest.mark.parametrize("keep_steps", (True, False))
    def test_repeated_seeds_share_their_whole_path(self, models, grid, keep_steps):
        cfg = small_config(MODE_FIXED, fixed_theta=0.72, measurements=200)
        model = models[Scheme.PHOTON_NUMBER]
        seeds = [1003, 1001, 1003, 1003, 1001, 1010, 1003]
        want = _reference_results(cfg, model, grid, seeds, keep_steps)
        assert _engine_results(cfg, model, grid, seeds, keep_steps) == want
        assert want[0] == want[2] != want[1] == want[4]

    @pytest.mark.parametrize("keep_steps", (True, False))
    def test_zero_offset_paths_are_all_vacuum(self, models, grid, keep_steps):
        cfg = small_config(MODE_FIXED, fixed_theta=0.75, measurements=150)
        model = models[Scheme.PHOTON_NUMBER]
        assert {c for seed in _SEEDS for c in _fixed_codes(cfg, model, grid, seed, 150)} == {0}
        want = _reference_results(cfg, model, grid, _SEEDS, keep_steps)
        assert _engine_results(cfg, model, grid, _SEEDS, keep_steps) == want

    def test_zero_offset_seeds_run_one_path(self, models, grid, monkeypatch):
        # every trial draws the same all-vacuum path, so only the first runs
        # its steps; the others resume from its state after the last step
        calls = []

        def counted(log_w, log_row):
            calls.append(1)
            return log_step(log_w, log_row)

        monkeypatch.setattr(protocols, "log_step", counted)
        cfg = small_config(MODE_FIXED, fixed_theta=0.75, measurements=150)
        results = protocols.run_trials(cfg, models[Scheme.PHOTON_NUMBER], grid, _SEEDS[:5])
        assert len(calls) == 150
        assert [r.seed for r in results] == _SEEDS[:5]

    @pytest.mark.parametrize("keep_steps", (True, False))
    def test_paths_diverging_at_step_one(self, models, grid, keep_steps):
        # at theta = 0 the offset is 0.75 and v = 0.76: first codes spread
        cfg = small_config(MODE_FIXED, fixed_theta=0.0, measurements=60)
        model = models[Scheme.PHOTON_NUMBER]
        firsts = [_fixed_codes(cfg, model, grid, seed, 1)[0] for seed in _SEEDS]
        assert len(set(firsts)) >= 4 and len(set(firsts)) < len(firsts)
        want = _reference_results(cfg, model, grid, _SEEDS, keep_steps)
        assert _engine_results(cfg, model, grid, _SEEDS, keep_steps) == want

    @pytest.mark.parametrize("keep_steps", (True, False))
    def test_degenerate_row_on_a_shared_prefix(self, photon_model, grid, monkeypatch, keep_steps):
        # at theta = 0 seeds 150, 172 and 484 draw codes 0, 9 first, and
        # seeds 3, 25, 111 and 113 draw 0, 0: all seven share the state after
        # step 1, and the first three fail at step 2 on the poisoned pair:9
        # row (25 and 1001 draw pair 9 later, off any shared prefix)
        tables = _poison_pair_9(photon_model, grid, monkeypatch)
        cfg = small_config(MODE_FIXED, fixed_theta=0.0, measurements=20)
        seeds = [3, 150, 25, 1001, 172, 111, 484, 113, 150]
        heads = {seed: _fixed_codes(cfg, photon_model, grid, seed, 2) for seed in seeds}
        assert {s for s in seeds if heads[s] == [0, 9]} == {150, 172, 484}
        assert {s for s in seeds if heads[s] == [0, 0]} == {3, 25, 111, 113}
        with np.errstate(invalid="ignore"):
            want = _reference_results(cfg, photon_model, grid, seeds, keep_steps, tables)
            got = _engine_results(cfg, photon_model, grid, seeds, keep_steps)
        assert got == want
        for seed, result in zip(seeds, want):
            if heads[seed] == [0, 9]:
                assert result == (
                    DegenerateRowError, "outcome pair:9 at step 2 leaves zero posterior mass"
                )
        finished = [seed for seed, r in zip(seeds, want) if isinstance(r, dict)]
        assert finished == [3, 111, 113]

    @pytest.mark.parametrize("keep_steps", (True, False))
    @pytest.mark.parametrize(
        "fit, blocks_run",
        [(3, [(3, 100), (3, 100), (2, 100)]), (1.5, [(1, 0)] * 8)],
        ids=["three-fit", "one-fits"],
    )
    def test_blocks_under_a_small_byte_budget(
        self, models, grid, monkeypatch, keep_steps, fit, blocks_run
    ):
        # a budget of three trials' codes and states splits the seeds into
        # blocks, and repeats fall both within a block and across blocks;
        # where two trials do not fit, each draws as it goes, sharing nothing
        cfg = small_config(MODE_FIXED, fixed_theta=0.745, measurements=100)
        model = models[Scheme.PHOTON_NUMBER]
        monkeypatch.setattr(protocols, "WALK_BYTES", int(fit * 8 * (100 + grid.n_points)))
        blocks = []

        def spied(codes):
            blocks.append(codes.shape)
            return walk(codes)

        walk = protocols._prefix_walk
        monkeypatch.setattr(protocols, "_prefix_walk", spied)
        seeds = [1000, 1001, 1000, 1002, 1003, 1001, 1000, 1004]
        want = _reference_results(cfg, model, grid, seeds, keep_steps)
        assert _engine_results(cfg, model, grid, seeds, keep_steps) == want
        assert blocks == blocks_run


def _domain_phase(lo, hi, n_points):
    # anywhere in [lo, hi), with the first and last cells and both edges drawn often
    spacing = (hi - lo) / n_points
    edges = (lo, lo + 0.49 * spacing, hi - spacing, math.nextafter(hi, lo))
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from((MODE_FIXED, MODE_LADDER, MODE_OPTIMAL)),
    domain=st.sampled_from(((0.0, math.pi), (-0.5 * math.pi, 0.5 * math.pi))),
    n_points=st.integers(64, 256),
    measurements=st.integers(2, 40),
    keep_steps=st.booleans(),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
)
def test_engine_matches_serial_loop_over_the_domain(
    models, data, mode, domain, n_points, measurements, keep_steps, seeds
):
    grid = PhaseGrid(*domain, n_points)
    phase = _domain_phase(*domain, n_points)
    kw = dict(measurements=measurements, phi_true=data.draw(phase, label="phi_true"))
    if mode == MODE_FIXED:
        kw["fixed_theta"] = data.draw(phase, label="fixed_theta")
    elif mode == MODE_LADDER:
        kw["pre_rounds"] = data.draw(st.integers(1, measurements - 1), label="pre_rounds")
    cfg = ProtocolConfig(mode=mode, **kw)
    model = models[scheme_for_mode(mode)]
    want = _reference_results(cfg, model, grid, seeds, keep_steps)
    assert _engine_results(cfg, model, grid, seeds, keep_steps) == want


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from((MODE_FIXED, MODE_LADDER, MODE_OPTIMAL)),
    seeds=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    cuts=st.lists(st.integers(0, 6), max_size=3),
)
def test_results_do_not_depend_on_how_seeds_are_split(models, mode, seeds, cuts):
    # what a split of one campaign cell into trial-range tasks relies on
    grid = PhaseGrid(n_points=256)
    cfg = small_config(mode, measurements=60)
    model = models[scheme_for_mode(mode)]
    whole = _engine_results(cfg, model, grid, seeds, True)
    bounds = sorted({0, len(seeds), *(min(c, len(seeds)) for c in cuts)})
    parts = [
        r for a, b in zip(bounds, bounds[1:]) for r in _engine_results(cfg, model, grid, seeds[a:b], True)
    ]
    assert parts == whole


class TestUniformSource:
    def test_yields_successive_generator_floats(self):
        source = protocols._uniform_source(np.random.default_rng(2024))
        rng = np.random.default_rng(2024)
        n = 2 * protocols.CHUNK + 17  # across two chunk boundaries
        assert [source() for _ in range(n)] == [rng.random() for _ in range(n)]

    @pytest.mark.parametrize("offset", (0.3, 1.0))
    def test_optimal_draws_across_chunk_boundaries(self, optimal_model, offset):
        # an optimal draw takes one uniform for plus or minus and two for a
        # null count, so draws straddle the chunk boundaries at varying places
        law = outcome_law(optimal_model, offset)
        source = protocols._uniform_source(np.random.default_rng(7))
        used = []

        def counted():
            used.append(1)
            return source()

        rng = np.random.default_rng(7)
        n = 3 * protocols.CHUNK
        got = [law.draw_code(counted) for _ in range(n)]
        assert got == [sample(optimal_model, offset, rng).code() for _ in range(n)]
        assert 2 * protocols.CHUNK < n < len(used) < 2 * n


_LAW_MODELS: dict = {}


def _law_model(scheme):
    if scheme not in _LAW_MODELS:
        _LAW_MODELS[scheme] = make_model(scheme, 4.0, n_max=8)
    return _LAW_MODELS[scheme]


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from((Scheme.PHOTON_NUMBER, Scheme.OPTIMAL)),
    offset=st.one_of(
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.sampled_from((0.0, -0.0, 1e-300, math.pi)),
    ),
    seed=st.integers(0, 2**64 - 1),
    draws=st.integers(1, 12),
)
def test_cached_law_draws_as_sample(scheme, offset, seed, draws):
    # one law reused for every draw, sample, the old per-draw sampler and the
    # law on the engine's chunked uniform source agree on each outcome; the
    # first three leave the Generator in one state
    model = _law_model(scheme)
    law = outcome_law(model, offset)
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    source = protocols._uniform_source(rngs[3])
    drawers = (
        lambda r: outcome_of_code(scheme, law.draw_code(r.random)),
        lambda r: sample(model, offset, r),
        lambda r: _reference_sample(model, offset, r),
        lambda r: outcome_of_code(scheme, law.draw_code(source)),
    )
    for _ in range(draws):
        got = [draw(rng) for draw, rng in zip(drawers, rngs)]
        assert got[0] == got[1] == got[2] == got[3]
        assert outcome_of_code(scheme, got[0].code()) == got[0]
    states = [rng.bit_generator.state for rng in rngs[:3]]
    assert states[0] == states[1] == states[2]
