"""Campaign harness tests: seed derivation, worker equivalence, censored stats."""
import gc
import math
import os
import pickle
import weakref

import pytest

from su11sim import (
    CampaignConfig,
    CampaignError,
    MODE_FIXED,
    MODE_OPTIMAL,
    PhaseGrid,
    ProtocolConfig,
    SU11Error,
    derive_seed,
    make_model,
    run_campaign,
    run_trials,
    threshold_scan,
)
from su11sim.ensemble import ThresholdRow, _censored_quartile
import su11sim.ensemble as ensemble_mod
import su11sim.measurement as measurement_mod


def tiny_campaign(**kw) -> CampaignConfig:
    base = dict(
        protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=60),
        mean_photons=(4.0,),
        phi_true=(0.5, 0.75),
        trials=4,
    )
    base.update(kw)
    return CampaignConfig(**base)


class TestSeedDerivation:
    def test_frozen_values(self):
        assert derive_seed(7, 0, 0) == 11241344834629033336
        assert derive_seed(7, 0, 1) == 17770702679626417888
        assert derive_seed(7, 3, 2) == 668567293345086073
        assert derive_seed(8, 0, 0) == 14114189058501281454

    def test_distinct_across_block(self):
        seeds = {
            derive_seed(7, c, t) for c in range(8) for t in range(256)
        }
        assert len(seeds) == 8 * 256

    def test_sensitive_to_each_index(self):
        assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
        assert derive_seed(7, 0, 0) != derive_seed(7, 1, 0)
        assert derive_seed(7, 0, 0) != derive_seed(6, 0, 0)


class TestCampaignConfig:
    def test_cell_ordering_phi_outer(self):
        cfg = tiny_campaign(mean_photons=(2.0, 4.0), phi_true=(0.25, 0.75))
        assert cfg.cells() == [
            (0, 0.25, 2.0),
            (1, 0.25, 4.0),
            (2, 0.75, 2.0),
            (3, 0.75, 4.0),
        ]

    def test_round_trip(self):
        # grids compare by identity (they key shared caches), so the
        # serialization contract is dict-level fidelity
        cfg = tiny_campaign(label="smoke")
        again = CampaignConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_residual_policy_is_a_fixed_echo(self):
        # the JSON still names the one sampling law; configs may omit it,
        # and any other law is refused by name
        d = tiny_campaign().to_dict()
        assert d["residual_policy"] == "exact_tail"
        bare = {k: v for k, v in d.items() if k != "residual_policy"}
        assert CampaignConfig.from_dict(bare).to_dict() == d
        with pytest.raises(ValueError, match="residual_policy"):
            CampaignConfig.from_dict({**d, "residual_policy": "renormalize"})

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_campaign(trials=0)
        with pytest.raises(ValueError):
            tiny_campaign(mean_photons=())
        with pytest.raises(ValueError):
            tiny_campaign(mean_photons=(-1.0,))
        with pytest.raises(ValueError):
            tiny_campaign(phi_true=(math.nan,))

    @pytest.mark.parametrize("field", ("trials", "master_seed", "n_max"))
    def test_boolean_integers_rejected(self, field):
        # True is an int equal to 1: one trial, seed 1 or a one-pair table
        with pytest.raises(ValueError, match=field):
            tiny_campaign(**{field: True})


class TestRunCampaign:
    def test_worker_count_does_not_change_results(self):
        cfg = tiny_campaign()
        serial = run_campaign(cfg, workers=1)
        parallel = run_campaign(cfg, workers=2)
        assert serial.to_dict() == parallel.to_dict()
        assert [t.seed for t in serial.trials] == [t.seed for t in parallel.trials]

    def test_summaries_and_stats_shape(self):
        cfg = tiny_campaign()
        res = run_campaign(cfg, workers=1)
        assert len(res.cells) == 2
        assert len(res.trials) == 8
        assert res.failures == ()
        for cell in res.cells:
            assert cell.trials == 4
            assert cell.mse >= 0.0
            assert cell.mse_ci_low <= cell.mse <= cell.mse_ci_high
            assert cell.qcrb == pytest.approx(1.0 / (60 * 24.0), rel=1e-12)
        for t in res.trials:
            assert t.seed == derive_seed(cfg.master_seed, t.cell_index, t.trial_index)
            assert 0.0 <= t.rival_ratio <= 1.0

    def test_failure_fraction_guard(self, monkeypatch):
        def explode(config, model, grid, seeds, **kw):
            return [SU11Error("synthetic failure") for _ in seeds]

        monkeypatch.setattr(ensemble_mod, "run_trials", explode)
        with pytest.raises(CampaignError):
            run_campaign(tiny_campaign(), workers=1)


class TestModelCache:
    """Cells that share n-bar share one model, and only for one call."""

    @pytest.fixture
    def built(self, monkeypatch):
        refs = []
        make_model = ensemble_mod.make_model

        def counting(*args, **kw):
            model = make_model(*args, **kw)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(ensemble_mod, "make_model", counting)
        # reference counting alone must free the models: a cycle would keep
        # them until a full collection
        gc.disable()
        yield refs
        gc.enable()

    @pytest.mark.parametrize("nbars, builds", [((4.0,), 1), ((4.0, 8.0), 2)])
    def test_one_build_per_nbar_freed_on_return(self, built, nbars, builds):
        cfg = tiny_campaign(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=20),
            mean_photons=nbars,
            phi_true=(0.25, 0.5, 0.75, 1.0),
            trials=2,
        )
        result = run_campaign(cfg, workers=1)
        assert len(result.cells) == 4 * len(nbars)
        assert len(built) == builds
        assert ensemble_mod._MODELS == {}
        assert all(ref() is None for ref in built)

    def test_models_freed_when_the_campaign_fails(self, built, monkeypatch):
        def explode(config, model, grid, seeds, **kw):
            return [SU11Error("synthetic failure") for _ in seeds]

        monkeypatch.setattr(ensemble_mod, "run_trials", explode)
        cfg = tiny_campaign(phi_true=(0.75,))
        with pytest.raises(CampaignError):
            run_campaign(cfg, workers=1)
        assert len(built) == 1
        assert ensemble_mod._MODELS == {}
        assert built[0]() is None

    def test_cells_unpickled_apart_share_one_table(self, built, monkeypatch):
        # a pool worker gets each cell's config, and so its grid, unpickled anew
        grids = []

        class CountingGrid(measurement_mod.LikelihoodGrid):
            def __init__(self, model, grid):
                super().__init__(model, grid)
                grids.append(grid)

        monkeypatch.setattr(measurement_mod, "LikelihoodGrid", CountingGrid)
        cfg = tiny_campaign(phi_true=(0.5,), trials=2)
        try:
            for cell in range(3):
                ensemble_mod._run_cell(pickle.loads(pickle.dumps(cfg)), (cell, 0.5, 4.0))
        finally:
            ensemble_mod._MODELS.clear()
        assert len(built) == 1
        assert len(grids) == 1

    def test_threshold_scan_builds_one_model_freed_on_return(self, built):
        res = threshold_scan((0.6, 0.7), 0.75, 4.0, 2, 20, grid=PhaseGrid(n_points=256))
        assert len(res.rows) == 2
        assert len(built) == 1
        assert ensemble_mod._MODELS == {}
        assert built[0]() is None

    def test_failed_threshold_scan_raises_and_frees_its_model(self, built, monkeypatch):
        def explode(config, model, grid, seeds, **kw):
            return [SU11Error("synthetic failure") for _ in seeds]

        monkeypatch.setattr(ensemble_mod, "run_trials", explode)
        with pytest.raises(CampaignError, match="synthetic failure"):
            threshold_scan((0.6, 0.7), 0.75, 4.0, 2, 20, grid=PhaseGrid(n_points=256))
        assert len(built) == 1
        assert ensemble_mod._MODELS == {}
        assert built[0]() is None

    def test_pooled_cells_build_one_table_per_worker(self, tmp_path, monkeypatch):
        # the pool forks, so each build appends its process id to a file
        log = tmp_path / "builds"

        class LoggingGrid(measurement_mod.LikelihoodGrid):
            def __init__(self, model, grid):
                super().__init__(model, grid)
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")

        monkeypatch.setattr(measurement_mod, "LikelihoodGrid", LoggingGrid)
        cfg = tiny_campaign(phi_true=(0.25, 0.5, 0.75, 1.0), trials=2)
        assert len(run_campaign(cfg, workers=2).cells) == 4
        pids = log.read_text().split()
        assert 1 <= len(pids) <= 2
        assert len(set(pids)) == len(pids)


class TestThresholdScan:
    def test_small_scan_contract(self):
        res = threshold_scan(
            thetas=(0.50, 0.65),
            phi_true=0.75,
            mean_photons=4.0,
            trials=6,
            max_measurements=300,
        )
        assert [r.theta for r in res.rows] == [
            pytest.approx(0.50), pytest.approx(0.65)
        ]
        for row in res.rows:
            assert row.trials == 6
            assert 0 <= row.censored <= 6
            if row.median is not None:
                assert 1 <= row.median <= 300
        d = res.to_dict()
        assert d["schema"] == "su11sim/threshold-scan/v1"
        assert len(d["rows"]) == 2

    def test_rows_match_a_per_theta_reference_loop(self):
        # theta position is the cell index of every trial seed
        thetas, phi, nbar, trials, steps, master = (0.6, 0.72), 0.75, 4.0, 5, 80, 11
        grid = PhaseGrid(n_points=512)
        res = threshold_scan(thetas, phi, nbar, trials, steps, master_seed=master, grid=grid)
        model = make_model("photon", nbar)
        expected = []
        for ci, theta in enumerate(thetas):
            cfg = ProtocolConfig(mode=MODE_FIXED, measurements=steps, phi_true=phi, fixed_theta=theta)
            seeds = [derive_seed(master, ci, t) for t in range(trials)]
            values = [rec.m_threshold for rec in run_trials(cfg, model, grid, seeds)]
            expected.append(
                ThresholdRow(
                    theta=theta,
                    trials=trials,
                    censored=values.count(None),
                    median=_censored_quartile(values, 0.5),
                    q25=_censored_quartile(values, 0.25),
                    q75=_censored_quartile(values, 0.75),
                )
            )
        assert res.rows == tuple(expected)
        assert any(row.censored for row in res.rows)  # the censored path is exercised

    def test_replay_stability(self):
        kw = dict(
            thetas=(0.55,), phi_true=0.75, mean_photons=4.0, trials=4,
            max_measurements=200,
        )
        assert threshold_scan(**kw).to_dict() == threshold_scan(**kw).to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_scan((0.7, 0.6), 0.75, 4.0, 2, 100)  # not increasing
        with pytest.raises(ValueError):
            threshold_scan((0.5, 0.8), 0.75, 4.0, 2, 100)  # theta past phi
        with pytest.raises(ValueError):
            threshold_scan((), 0.75, 4.0, 2, 100)
        # the checks a CampaignConfig makes, each naming its argument
        kw = dict(thetas=(0.7,), phi_true=0.75, mean_photons=4.0, trials=2, max_measurements=20)
        for name, value in [
            ("trials", True),
            ("tail_tol", "x"),
            ("master_seed", 1.5),
            ("master_seed", True),
            ("n_max", True),
            ("mean_photons", "4"),
            ("phi_true", math.nan),
            ("thetas", (0.6, math.nan)),
            ("thetas", ("0.7",)),
        ]:
            with pytest.raises(ValueError, match=name):
                threshold_scan(**(kw | {name: value}))


class TestCensoredQuartile:
    def test_plain_order_statistics(self):
        assert _censored_quartile([4, 1, 3, 2], 0.5) == 2
        assert _censored_quartile([4, 1, 3, 2], 0.25) == 1
        assert _censored_quartile([4, 1, 3, 2], 0.75) == 3
        assert _censored_quartile([9], 0.5) == 9

    def test_censored_values_sort_high(self):
        assert _censored_quartile([None, 5, None, 2], 0.25) == 2
        assert _censored_quartile([None, 5, None, 2], 0.75) is None
        assert _censored_quartile([None, None, None], 0.5) is None
