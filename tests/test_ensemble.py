"""Campaign harness tests: seed derivation, worker equivalence, censored stats."""
import math

import pytest

from su11sim import (
    CampaignConfig,
    CampaignError,
    MODE_OPTIMAL,
    ProtocolConfig,
    SU11Error,
    derive_seed,
    run_campaign,
    threshold_scan,
)
from su11sim.ensemble import _censored_quartile
import su11sim.ensemble as ensemble_mod


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

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_campaign(trials=0)
        with pytest.raises(ValueError):
            tiny_campaign(mean_photons=())
        with pytest.raises(ValueError):
            tiny_campaign(mean_photons=(-1.0,))
        with pytest.raises(ValueError):
            tiny_campaign(phi_true=(math.nan,))


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
