"""Campaign harness tests: seed derivation, worker equivalence, censored stats."""
import gc
import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
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
    TruncationError,
    WorkerError,
    make_model,
    run_campaign,
    threshold_scan,
)
from su11sim.ensemble import derive_seed
from su11sim.tmsq import OpaParams, build_schmidt_table
from su11sim.protocols import run_trial, run_trials
from su11sim.ensemble import ThresholdRow, _censored_quartile
import su11sim.ensemble as ensemble_mod
import su11sim.measurement as measurement_mod
import su11sim.tmsq as tmsq


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
        cfg = tiny_campaign()
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

    def test_tail_tol_is_a_fixed_echo(self):
        # the table tolerance is no setting: the JSON still writes its one
        # value, configs may omit it, and any other value is refused by name
        d = tiny_campaign().to_dict()
        assert d["tail_tol"] == tmsq.TAIL_TOL == 1e-12
        bare = {k: v for k, v in d.items() if k != "tail_tol"}
        assert CampaignConfig.from_dict(bare).to_dict() == d
        for value in (1e-8, "x", True):
            with pytest.raises(ValueError, match="tail_tol"):
                CampaignConfig.from_dict({**d, "tail_tol": value})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_model("photon", 4.0, tail_tol=1e-12),
            lambda: build_schmidt_table(OpaParams.from_mean_photons(4.0), tail_tol=1e-12),
            lambda: threshold_scan((0.7,), 0.75, 4.0, 2, 20, tail_tol=1e-12),
            lambda: tiny_campaign(tail_tol=1e-12),
        ],
        ids=["make_model", "build_schmidt_table", "threshold_scan", "CampaignConfig"],
    )
    def test_tail_tol_is_no_argument(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument 'tail_tol'"):
            call()

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

    def test_limits_out_of_range_raise_before_any_trial(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("trials ran")

        monkeypatch.setattr(ensemble_mod, "_run_cells", no_cells)
        with pytest.raises(ValueError, match="mean photon number 1e-160"):
            run_campaign(tiny_campaign(mean_photons=(4.0, 1e-160)), workers=1)

    def test_failure_fraction_guard(self, monkeypatch):
        def explode(config, model, grid, seeds, **kw):
            return [SU11Error("synthetic failure") for _ in seeds]

        monkeypatch.setattr(ensemble_mod, "run_trials", explode)
        with pytest.raises(CampaignError):
            run_campaign(tiny_campaign(), workers=1)

    def test_a_cell_whose_trials_all_fail_reads_nan(self, monkeypatch):
        def explode(config, model, grid, seeds, **kw):
            return [SU11Error("synthetic failure") for _ in seeds]

        monkeypatch.setattr(ensemble_mod, "run_trials", explode)
        monkeypatch.setattr(ensemble_mod, "_MAX_FAILURE_FRACTION", 1.0)
        cfg = tiny_campaign()
        res = run_campaign(cfg, workers=1)
        assert res.trials == ()
        assert len(res.failures) == len(cfg.cells()) * cfg.trials
        stats = ("mse", "mse_ci_low", "mse_ci_high", "bias",
                 "mean_posterior_variance", "median_posterior_variance")
        for cell, (_, phi, _) in zip(res.cells, cfg.cells()):
            assert cell.failures == cell.trials == cfg.trials
            assert cell.phi_true_snapped == cfg.grid.snap(phi)
            assert all(math.isnan(getattr(cell, name)) for name in stats)


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
        # a spawned child unpickles the configs, and so their grids, apart from the caller's
        grids = []

        class CountingGrid(measurement_mod.LikelihoodGrid):
            def __init__(self, model, grid, *log_table):
                super().__init__(model, grid, *log_table)
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

    def test_pooled_cells_use_the_callers_models_and_tables(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        # four cells over two n-bar at two workers: one model and one table
        # per n-bar, all built in the calling process. The caller and its
        # child share no memory, so each build and each cell taken appends
        # its kind and process id to a file
        log = tmp_path / "builds"

        def note(kind):
            with open(log, "a") as fh:
                fh.write(f"{kind} {os.getpid()}\n")

        make_model = ensemble_mod.make_model
        run_cell = ensemble_mod._run_cell
        caller = os.getpid()

        def logged_model(*args, **kw):
            note("model")
            return make_model(*args, **kw)

        class LoggingGrid(measurement_mod.LikelihoodGrid):
            def __init__(self, *args):
                super().__init__(*args)
                note("table")

        def logged_cell(config, cell):
            if os.getpid() == caller:
                time.sleep(0.3)  # so that the child takes a cell
            note("cell")
            return run_cell(config, cell)

        monkeypatch.setattr(ensemble_mod, "make_model", logged_model)
        monkeypatch.setattr(measurement_mod, "LikelihoodGrid", LoggingGrid)
        monkeypatch.setattr(ensemble_mod, "_run_cell", logged_cell)
        usable_cpus(2)
        cfg = tiny_campaign(mean_photons=(4.0, 8.0), phi_true=(0.5, 0.75), trials=2)
        assert len(run_campaign(cfg, workers=2).cells) == 4
        notes = [line.split() for line in log.read_text().splitlines()]
        builds = [(kind, int(pid)) for kind, pid in notes if kind != "cell"]
        assert sorted(builds) == [("model", caller)] * 2 + [("table", caller)] * 2
        assert {int(pid) for kind, pid in notes if kind == "cell"} - {caller}


def log_takes(monkeypatch, log):
    """Patch _run_cell to append "pid cell" to `log` for each cell a process
    takes; forked children inherit the patch."""
    run_cell = ensemble_mod._run_cell

    def logged(config, cell):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {cell[0]}\n")
        return run_cell(config, cell)

    monkeypatch.setattr(ensemble_mod, "_run_cell", logged)
    return log


def read_takes(log) -> list[tuple[int, int]]:
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


class TestCostliestFirst:
    """Every process takes cells in descending n-bar; outputs stay in cell order."""

    @staticmethod
    def campaign() -> CampaignConfig:
        return tiny_campaign(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=30),
            mean_photons=(0.5, 8.0, 2.0),
            phi_true=(0.5, 0.75),
            trials=2,
            grid=PhaseGrid(n_points=256),
        )

    def test_results_do_not_depend_on_the_worker_count(self):
        cfg = self.campaign()
        results = [run_campaign(cfg, workers=w) for w in (1, 2, 3)]
        assert [c.cell_index for c in results[1].cells] == list(range(6))
        assert [(c.phi_true, c.mean_photons) for c in results[2].cells] == [
            (phi, nbar) for phi in cfg.phi_true for nbar in cfg.mean_photons
        ]
        assert results[1].to_dict() == results[0].to_dict() == results[2].to_dict()
        assert results[1].trials == results[0].trials == results[2].trials

    def test_pool_gets_cells_in_descending_nbar(self, tmp_path, monkeypatch):
        log = log_takes(monkeypatch, tmp_path / "takes")
        cfg = self.campaign()
        serial = run_campaign(cfg, workers=1)
        # n-bar 8 in both phi rows, then 2, then 0.5; ties keep cell order
        order = [1, 4, 2, 5, 0, 3]
        assert [cell for _, cell in read_takes(log)] == order
        log.unlink()
        pooled = run_campaign(cfg, workers=2)
        takes = read_takes(log)
        assert sorted(cell for _, cell in takes) == list(range(6))
        for pid in {pid for pid, _ in takes}:
            mine = [order.index(cell) for p, cell in takes if p == pid]
            assert mine == sorted(mine)
        assert [c.cell_index for c in pooled.cells] == list(range(6))
        assert pooled.to_dict() == serial.to_dict()


class TestChildProcesses:
    """The caller runs cells itself next to at most min(workers, cells,
    usable CPUs) - 1 children, whose every failure surfaces in the caller."""

    @pytest.fixture(autouse=True)
    def nothing_left_running(self):
        # a hang fails the test after a minute instead of stalling the suite
        def timed_out(signum, frame):
            raise TimeoutError("_run_cells hangs")

        threads = threading.active_count()
        handler = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @pytest.fixture
    def starts(self, monkeypatch):
        # the child processes started
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
        return started

    @staticmethod
    def in_children(monkeypatch, usable_cpus, action):
        """Runs `action` instead of each cell a child takes; the caller's own
        cells wait first, so that a child takes one."""
        usable_cpus(8)
        caller = os.getpid()
        run_cell = ensemble_mod._run_cell

        def split(config, cell):
            if os.getpid() != caller:
                return action(config, cell)
            time.sleep(0.3)
            return run_cell(config, cell)

        monkeypatch.setattr(ensemble_mod, "_run_cell", split)

    def test_a_childs_exception_reaches_the_caller(self, monkeypatch, usable_cpus):
        def fault(config, cell):
            raise LookupError(f"synthetic fault in cell {cell[0]}")

        self.in_children(monkeypatch, usable_cpus, fault)
        with pytest.raises(LookupError, match=r"synthetic fault in cell \d"):
            run_campaign(tiny_campaign(), workers=2)

    def test_a_child_that_dies_raises_and_leaves_nothing(self, monkeypatch, usable_cpus):
        self.in_children(monkeypatch, usable_cpus, lambda config, cell: os._exit(3))
        with pytest.raises(WorkerError, match="exited with code 3"):
            run_campaign(tiny_campaign(), workers=2)
        assert ensemble_mod._MODELS == {}

    def test_outputs_larger_than_a_pipe_come_back_whole(self, monkeypatch, usable_cpus):
        # about 106 pickled bytes per trial: each cell's summaries outgrow
        # a 64 KiB pipe, so the child's queue must buffer them
        cfg = tiny_campaign(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=2),
            trials=800,
            grid=PhaseGrid(n_points=64),
        )
        serial = run_campaign(cfg, workers=1)
        assert len(pickle.dumps(serial.trials[:800])) > 65536
        self.in_children(monkeypatch, usable_cpus, ensemble_mod._run_cell)
        pooled = run_campaign(cfg, workers=2)
        assert pooled.to_dict() == serial.to_dict()
        assert pooled.trials == serial.trials

    def test_workers_beyond_the_cells_start_one_child_fewer(self, starts, usable_cpus):
        usable_cpus(8)
        cfg = tiny_campaign(phi_true=(0.25, 0.5, 0.75))
        pooled = run_campaign(cfg, workers=8)
        assert len(starts) == 2
        assert pooled.to_dict() == run_campaign(cfg, workers=1).to_dict()

    def test_more_processes_than_cores_take_each_cell_once(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        # a take lost to a race would run one cell twice or skip one
        log = log_takes(monkeypatch, tmp_path / "takes")
        usable_cpus(8)
        cfg = tiny_campaign(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=2),
            phi_true=tuple(0.05 * k for k in range(1, 41)),
            trials=1,
            grid=PhaseGrid(n_points=64),
        )
        result = run_campaign(cfg, workers=4)
        assert sorted(cell for _, cell in read_takes(log)) == list(range(40))
        assert [c.cell_index for c in result.cells] == list(range(40))

    def test_processes_capped_at_the_usable_cpus(self, monkeypatch, starts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = tiny_campaign(phi_true=(0.25, 0.5, 0.75))
        pooled = run_campaign(cfg, workers=8)
        assert starts == []
        assert pooled.to_dict() == run_campaign(cfg, workers=1).to_dict()

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert tmsq._usable_cpus() == 3

    def test_a_model_error_raises_before_any_child_starts(self, starts, usable_cpus):
        # n-bar 56 needs a deeper Schmidt table than the pair cap allows
        usable_cpus(8)
        cfg = tiny_campaign(mean_photons=(4.0, 56.0), phi_true=(0.5, 0.75))
        with pytest.raises(TruncationError, match="pair ladder capped at 4096"):
            run_campaign(cfg, workers=2)
        assert starts == []
        assert ensemble_mod._MODELS == {}

    def test_a_pass_threads_exception_raises_before_any_child_starts(
        self, monkeypatch, starts, usable_cpus
    ):
        # two n-bar on 256 points: eight 32-offset blocks over eight threads
        usable_cpus(8)
        block = tmsq.amplitude_block
        taken = []
        lock = threading.Lock()

        def faulty(*args):
            with lock:
                taken.append(threading.current_thread())
                third = len(taken) == 3
            if third:
                raise LookupError("synthetic fault in the third block")
            return block(*args)

        monkeypatch.setattr(tmsq, "amplitude_block", faulty)
        threads = threading.active_count()
        cfg = tiny_campaign(mean_photons=(4.0, 32.0), grid=PhaseGrid(n_points=256))
        with pytest.raises(LookupError, match="third block"):
            run_campaign(cfg, workers=2)
        assert starts == []
        assert threading.active_count() == threads
        assert ensemble_mod._MODELS == {}

    def test_no_child_is_forked_while_a_pass_thread_runs(self, monkeypatch, usable_cpus):
        # three processes on four usable CPUs: three pass threads besides
        # the caller, whatever the processes, all ended before either child
        # starts, and none left when the call returns
        cfg = tiny_campaign(mean_photons=(4.0, 8.0, 32.0), phi_true=(0.75,), trials=2)
        serial = run_campaign(cfg, workers=1)
        usable_cpus(4)
        events = []
        thread_start = threading.Thread.start
        process_start = multiprocessing.process.BaseProcess.start

        def thread_started(thread):
            events.append("thread")
            thread_start(thread)

        def process_started(process):
            events.append(("child", threading.active_count()))
            process_start(process)

        monkeypatch.setattr(threading.Thread, "start", thread_started)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", process_started)
        threads = threading.active_count()
        pooled = run_campaign(cfg, workers=3)
        assert events == ["thread"] * 3 + [("child", threads)] * 2
        assert threading.active_count() == threads
        assert pooled.to_dict() == serial.to_dict()

    def test_spawned_children_give_the_same_result(self, monkeypatch, starts, usable_cpus):
        # spawned children get only their arguments, none of the caller's memory
        usable_cpus(8)
        cfg = tiny_campaign(phi_true=(0.25, 0.5, 0.75), trials=2)
        default = run_campaign(cfg, workers=2)
        spawn = multiprocessing.get_context("spawn")
        kinds = [multiprocessing.get_context().Process, spawn.Process]
        monkeypatch.setattr(ensemble_mod.multiprocessing, "get_context", lambda: spawn)
        assert run_campaign(cfg, workers=2).to_dict() == default.to_dict()
        assert [type(p) for p in starts] == kinds


def fresh_pass_call(name: str, grid: PhaseGrid):
    """A call of `name` that builds one fresh n-bar 4 table on `grid`."""
    if name == "threshold_scan":
        return threshold_scan((0.6,), 0.75, 4.0, 1, 5, grid=grid)
    if name == "run_campaign":
        cfg = tiny_campaign(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=5),
            phi_true=(0.75,),
            trials=1,
            grid=grid,
        )
        return run_campaign(cfg, workers=1)
    cfg = ProtocolConfig(mode=MODE_OPTIMAL, measurements=5, phi_true=0.75)
    return run_trial(cfg, make_model("optimal", 4.0), grid, 3)


PASS_CALLS = ("threshold_scan", "run_campaign", "run_trial")


class TestPassThreads:
    """A table pass runs on min(usable CPUs, blocks) threads, whatever the
    processes: one process and one cell build on every usable CPU."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        threads = threading.active_count()
        yield
        assert threading.active_count() == threads

    @pytest.mark.parametrize("name", PASS_CALLS)
    @pytest.mark.parametrize(
        "cpus, n_points, helpers",
        # at two CPUs n-bar 4 takes 128-offset blocks, so 64 points are one
        ((2, 4096, 1), (2, 64, 0), (1, 4096, 0)),
    )
    def test_helper_threads_started(self, name, cpus, n_points, helpers, monkeypatch, usable_cpus):
        usable_cpus(cpus)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        fresh_pass_call(name, PhaseGrid(n_points=n_points))
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("name", PASS_CALLS)
    def test_a_pass_threads_exception_leaves_no_thread(self, name, monkeypatch, usable_cpus):
        # the calling thread waits until the helper has taken a block
        usable_cpus(2)
        entered = threading.Event()
        block = tmsq.amplitude_block

        def faulty(*args):
            if threading.current_thread() is threading.main_thread():
                entered.wait(10)
                return block(*args)
            entered.set()
            raise LookupError("synthetic fault in a pass thread")

        monkeypatch.setattr(tmsq, "amplitude_block", faulty)
        with pytest.raises(LookupError, match="pass thread"):
            fresh_pass_call(name, PhaseGrid())
        assert entered.is_set()


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
            ("master_seed", 1.5),
            ("master_seed", True),
            ("n_max", True),
            ("mean_photons", "4"),
            ("phi_true", math.nan),
            ("thetas", (0.6, math.nan)),
            ("thetas", ("0.7",)),
            ("max_measurements", 0),
            ("max_measurements", True),
            ("max_measurements", 20.0),
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
