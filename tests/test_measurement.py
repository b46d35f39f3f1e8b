"""Detection-model tests.

The central oracle here is the O(p_max^2) cosine double sum over the raw
coefficient table: the production path regroups it into a separable O(p_max)
amplitude evaluation, and the two must agree to 1e-10. Everything else
(geometric pair law, two-outcome closed forms, tail accounting) is checked
against independent closed-form expressions.
"""
import functools
import gc
import math
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11sim import PhaseGrid, make_model, outcome_of_code, outcome_probabilities
from su11sim.measurement import (
    LikelihoodGrid,
    Outcome,
    Scheme,
    detection_asymmetry,
    likelihood,
    pair_ratio,
    pmf,
    sample,
    shared_grid_tables,
)
from su11sim.ensemble import CampaignConfig, run_campaign
from su11sim.measurement import _grid_log_tables
from su11sim.posterior import LOG_FLOOR
from su11sim.protocols import MODE_OPTIMAL, ProtocolConfig
import su11sim.measurement as measurement_mod
import su11sim.tmsq as tmsq_mod

U_SWEEP = (-math.pi, -1.2, -0.3, -0.05, 0.0, 0.05, 0.3, 0.75, 1.2, math.pi)


def brute_force_pair_prob(table, n: int, u: float) -> float:
    """Direct double sum over retained Fock indices, cosine form."""
    g = table.coeffs[:, 0] * table.coeffs[:, n]
    p = np.arange(table.p_max + 1)
    cos_mat = np.cos(np.subtract.outer(p, p) * u)
    return float(g @ cos_mat @ g)


def residual(model, u: float) -> float:
    """Probability mass outside the outcome codes 0..n_max at one offset."""
    return 1.0 - float(outcome_probabilities(model, [u])[0].sum())


def closed_form_pair_ratio(nbar: float, u: float) -> float:
    x = math.tanh(math.asinh(math.sqrt(nbar / 2.0))) ** 2
    dsq = 1.0 - 2.0 * x * math.cos(u) + x * x
    return 2.0 * x * (1.0 - math.cos(u)) / dsq


def chunked_probabilities(model, u: np.ndarray) -> np.ndarray:
    """Test oracle: outcome_probabilities as it was built before the
    bounded phase-matrix blocks, with complex-exponential amplitudes and
    one product per 1024 offsets (a lone last offset takes the
    matrix-vector path)."""
    m = np.arange(model.table.p_max + 1)[None, :]
    probs = np.empty((len(u), model.n_max + 1))
    for start in range(0, len(u), 1024):
        amps = np.exp(1j * u[start : start + 1024, None] * m) @ model.table.pair_kernel
        block = probs[start : start + len(amps)]
        block[:] = np.abs(amps) ** 2
        if model.scheme is Scheme.OPTIMAL:
            mean = 0.5 * (block[:, 0] + block[:, 1])
            cross = np.imag(amps[:, 0] * np.conj(amps[:, 1]))
            np.maximum(mean + cross, 0.0, out=block[:, 0])
            np.maximum(mean - cross, 0.0, out=block[:, 1])
    return probs


def full_offset_log_table(model, grid: PhaseGrid) -> np.ndarray:
    """Test oracle: LikelihoodGrid's log table built the way it was before
    the mirrored build, from all 2N - 1 offsets."""
    n = grid.n_points
    u = (np.arange(2 * n - 1, dtype=np.float64) - (n - 1)) * grid.spacing
    log_table = np.ascontiguousarray(chunked_probabilities(model, u).T)
    with np.errstate(divide="ignore"):
        np.log(log_table, out=log_table)
    return np.maximum(log_table, LOG_FLOOR)


@functools.lru_cache(maxsize=None)
def model_at(scheme: Scheme, nbar: float):
    return make_model(scheme, nbar)


class TestPairScheme:
    def test_matches_brute_force_double_sum(self, photon_model):
        for u in np.linspace(-math.pi, math.pi, 21):
            for n in range(11):
                want = brute_force_pair_prob(photon_model.table, n, float(u))
                got = likelihood(photon_model, Outcome.pair(n), float(u))
                assert abs(got - want) < 1e-10

    def test_geometric_law(self, photon_model):
        for u in U_SWEEP:
            v = pair_ratio(photon_model.params, u)
            for n in (0, 1, 2, 5, 16, 17, 40):
                want = (1.0 - v) * v**n
                got = likelihood(photon_model, Outcome.pair(n), u)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_vacuum_certain_at_zero_offset(self, photon_model):
        assert likelihood(photon_model, Outcome.pair(0), 0.0) == pytest.approx(1.0, abs=1e-9)
        assert pair_ratio(photon_model.params, 0.0) == 0.0

    def test_pair_ratio_closed_form(self, photon_model):
        for u in U_SWEEP:
            assert pair_ratio(photon_model.params, u) == pytest.approx(
                closed_form_pair_ratio(4.0, u), rel=1e-13, abs=1e-15
            )

    def test_evenness_exact(self, photon_model):
        for u in (0.05, 0.3, 0.75, 1.2, math.pi / 2):
            for n in (0, 1, 3, 16, 25):
                assert likelihood(photon_model, Outcome.pair(n), u) == likelihood(
                    photon_model, Outcome.pair(n), -u
                )

    def test_scheme_mismatch_rejected(self, photon_model):
        with pytest.raises(ValueError):
            likelihood(photon_model, Outcome.plus(), 0.1)


class TestOptimalScheme:
    def test_equal_split_at_zero_offset(self, optimal_model):
        assert likelihood(optimal_model, Outcome.plus(), 0.0) == pytest.approx(0.5, abs=1e-9)
        assert likelihood(optimal_model, Outcome.minus(), 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_split(self, optimal_model):
        # p_pm = (1 - v^2 -+ S) / 2 with S the detection asymmetry
        for u in U_SWEEP:
            v = pair_ratio(optimal_model.params, u)
            gap = detection_asymmetry(optimal_model.params, u)
            p_plus = likelihood(optimal_model, Outcome.plus(), u)
            p_minus = likelihood(optimal_model, Outcome.minus(), u)
            assert p_plus == pytest.approx(0.5 * (1.0 - v * v - gap), abs=1e-12)
            assert p_minus == pytest.approx(0.5 * (1.0 - v * v + gap), abs=1e-12)

    def test_mirror_property(self, optimal_model):
        for u in (0.05, 0.3, 0.75, 1.2):
            assert likelihood(optimal_model, Outcome.plus(), -u) == pytest.approx(
                likelihood(optimal_model, Outcome.minus(), u), abs=1e-14
            )

    def test_null_outcomes_follow_pair_law(self, optimal_model):
        for u in (0.3, 0.75):
            v = pair_ratio(optimal_model.params, u)
            for n in (2, 3, 10, 17, 30):
                got = likelihood(optimal_model, Outcome.null(n), u)
                assert got == pytest.approx((1.0 - v) * v**n, rel=1e-9, abs=1e-12)

    def test_asymmetry_closed_form(self, optimal_model):
        r = optimal_model.params.squeeze_r
        x = math.tanh(r) ** 2
        for u in U_SWEEP:
            dsq = 1.0 - 2.0 * x * math.cos(u) + x * x
            want = 2.0 * (math.tanh(r) / math.sinh(r) ** 2) * x * (1.0 - x) ** 2
            want *= math.sin(u) / dsq**2
            assert detection_asymmetry(optimal_model.params, u) == pytest.approx(
                want, rel=1e-12, abs=1e-15
            )


class TestOutcomeProbabilities:
    """The one table route against the closed forms and its other readers."""

    @staticmethod
    def closed_forms(model, u: np.ndarray) -> np.ndarray:
        v = pair_ratio(model.params, u)[:, None]
        n = np.arange(model.n_max + 1)[None, :]
        want = (1.0 - v) * v**n
        if model.scheme is Scheme.OPTIMAL:
            gap = detection_asymmetry(model.params, u)
            null_mass = v[:, 0] ** 2
            want[:, 0] = 0.5 * (1.0 - null_mass - gap)
            want[:, 1] = 0.5 * (1.0 - null_mass + gap)
        return want

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    @pytest.mark.parametrize("n_offsets", (1, 1024 + 1, 2 * 1024 + 300))
    def test_matches_closed_forms(self, scheme, n_offsets, photon_model, optimal_model):
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        u = np.linspace(-math.pi, math.pi, n_offsets) if n_offsets > 1 else np.array([0.3])
        got = outcome_probabilities(model, u)
        assert got.shape == (n_offsets, model.n_max + 1)
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - self.closed_forms(model, u))) < 1e-10

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    def test_chunked_rows_equal_single_rows(self, scheme, photon_model, optimal_model):
        # a row of a multi-chunk call equals the same offset on its own
        # (up to the ulp the one-row product may take) and never moves
        # with its position relative to the chunk boundary
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        u = np.linspace(-3.0, 3.0, 1024 + 5)
        whole = outcome_probabilities(model, u)
        head = outcome_probabilities(model, u[:1024])
        assert np.array_equal(whole[:1024], head)
        for j in (0, 1024 - 1, 1024, 1024 + 4):
            alone = outcome_probabilities(model, u[j : j + 1])[0]
            assert np.max(np.abs(whole[j] - alone)) < 1e-15

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    @pytest.mark.parametrize("n_offsets", (129, 257, 1025, 1153, 4096, 4097))
    def test_blocks_keep_the_chunked_bits(self, scheme, n_offsets, photon_model, optimal_model):
        # 1025 and 4097 end in a lone offset, whose one-row product takes
        # BLAS's matrix-vector path and so other bits; the blocks must keep
        # it exactly there and make no other one-row product (257 ends one
        # offset past nbar 4's 256-offset blocks, a split that would)
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        u = np.linspace(0.0, math.pi, n_offsets)
        assert np.array_equal(outcome_probabilities(model, u), chunked_probabilities(model, u))

    def test_empty_and_bad_shapes(self, photon_model):
        assert outcome_probabilities(photon_model, []).shape == (0, photon_model.n_max + 1)
        with pytest.raises(ValueError):
            outcome_probabilities(photon_model, np.zeros((2, 2)))

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    def test_likelihood_reads_the_table_exactly(self, scheme, photon_model, optimal_model):
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        for u in U_SWEEP:
            row = outcome_probabilities(model, [u])[0]
            for c in range(model.n_max + 1):
                assert likelihood(model, outcome_of_code(scheme, c), u) == row[c]

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    def test_pmf_is_code_ordered_table_then_tail(self, scheme, photon_model, optimal_model):
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        u = 1.2
        outcomes, probs = pmf(model, u)
        assert [o.code() for o in outcomes] == list(range(len(outcomes)))
        assert len(outcomes) > model.n_max + 1
        assert np.array_equal(probs[: model.n_max + 1], outcome_probabilities(model, [u])[0])
        for o, p in zip(outcomes[model.n_max + 1 :], probs[model.n_max + 1 :]):
            assert p == likelihood(model, o, u)

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    def test_grid_log_table_is_log_of_the_table(self, scheme, photon_model, optimal_model, grid):
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        tables = shared_grid_tables(model, grid)
        n = grid.n_points
        offsets = (np.arange(2 * n - 1, dtype=np.float64) - (n - 1)) * grid.spacing
        with np.errstate(divide="ignore"):
            want = np.maximum(np.log(outcome_probabilities(model, offsets).T), LOG_FLOOR)
        assert np.array_equal(tables.log_windows()[:, 0], want[:, n - 1 :])
        for j in (0, 1234, n - 1):
            for c in range(model.n_max + 1):
                log_row = tables.log_row(outcome_of_code(scheme, c), j)
                assert np.array_equal(log_row, want[c, n - 1 - j : 2 * n - 1 - j])


class TestMirroredGridBuild:
    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    @pytest.mark.parametrize("nbar", (0.5, 4.0, 32.0))
    @pytest.mark.parametrize("n_points", (512, 999, 4096))
    def test_log_table_bit_identical_to_full_offset_build(self, scheme, nbar, n_points):
        model = model_at(scheme, nbar)
        grid = PhaseGrid(n_points=n_points)
        got = LikelihoodGrid(model, grid)._log_table
        assert np.array_equal(got, full_offset_log_table(model, grid))

    def test_build_transient_memory_stays_bounded(self):
        # n-bar 32 builds to p_max 3672; one 1024-offset phase matrix with
        # its angles once took about 88 MiB
        tracemalloc.start()
        try:
            LikelihoodGrid(make_model("photon", 32), PhaseGrid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pass_transient_memory_stays_bounded(self, usable_cpus):
        # the four tables a pass keeps take 4 x 17 x 8191 doubles (4.3 MiB)
        # and its one phase block 33 x 3673 complex (1.8 MiB) at n-bar 32.
        # A whole amplitude and probability array per model would add
        # 6.4 MiB, and the 128-offset blocks of earlier builds 5.5 MiB
        usable_cpus(1)
        models = [make_model("photon", nbar) for nbar in (8.0, 16.0, 24.0, 32.0)]
        tracemalloc.start()
        try:
            shared_grid_tables(models[0], PhaseGrid(), *models[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_two_thread_pass_transient_memory_stays_bounded(self, usable_cpus):
        # the one-thread pass above plus what the second thread holds at
        # once: its own phase block, 33 x 3673 complex (1.8 MiB), and the
        # complex copy of the deepest kernel, 3673 x 17 (0.95 MiB), that
        # numpy makes for each of its products
        usable_cpus(2)
        models = [make_model("photon", nbar) for nbar in (8.0, 16.0, 24.0, 32.0)]
        tracemalloc.start()
        try:
            shared_grid_tables(models[0], PhaseGrid(), *models[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20 + 33 * 3673 * 16 + 3673 * 17 * 16

    def test_two_cpus_share_the_phase_memory_of_one(self, usable_cpus):
        # the two CPUs split the 2 MiB phase budget: two buffers of 129
        # offsets against one of 257 at n-bar 4 (p_max 475), one phase row
        # more. What the second thread may hold besides, while the first is
        # in its product, is at most its own complex copy of the kernel,
        # 476 x 17, as its amplitudes and probabilities are half as long,
        # and its own objects (its Thread and locks, and the 476-entry
        # arange of a block; about 7 KiB together), here given 16 KiB
        model = make_model("photon", 4.0)
        row = (model.table.p_max + 1) * 16
        peaks = {}
        for cpus in (1, 2):
            usable_cpus(cpus)
            tracemalloc.start()
            try:
                _grid_log_tables([model], PhaseGrid())
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + row + row * (model.n_max + 1) + 16 * 2**10


@functools.lru_cache(maxsize=None)
def pass_models() -> tuple:
    """Both schemes at four n-bar, for the passes over several models."""
    return tuple(
        model_at(scheme, nbar)
        for scheme in (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL)
        for nbar in (0.5, 4.0, 16.0, 32.0)
    )


class TestOnePass:
    """One pass over several models builds each model's table as it would be
    built alone, and computes each block of phase factors once."""

    @pytest.mark.parametrize("n_points", (64, 999, 1025, 1153, 4097))
    def test_tables_bit_identical_to_one_model_builds(self, n_points):
        # 1025 and 4097 points end in a lone non-negative offset
        grid = PhaseGrid(n_points=n_points)
        models = pass_models()
        for model, log_table in zip(models, _grid_log_tables(models, grid)):
            got = LikelihoodGrid(model, grid, log_table)._log_table
            assert np.array_equal(got, LikelihoodGrid(model, grid)._log_table), model

    @pytest.mark.parametrize("n_points", (64, 999, 1025, 1153, 4097))
    def test_tables_do_not_depend_on_the_thread_count(self, n_points, usable_cpus):
        # the filled half of each table, compared as bytes
        grid = PhaseGrid(n_points=n_points)
        models = pass_models()
        usable_cpus(1)
        want = [t[:, n_points - 1 :].tobytes() for t in _grid_log_tables(models, grid)]
        for threads in (2, 3):
            usable_cpus(threads)
            got = _grid_log_tables(models, grid)
            assert [t[:, n_points - 1 :].tobytes() for t in got] == want, threads

    def test_a_pass_threads_exception_reaches_the_caller(self, monkeypatch, usable_cpus):
        # the calling thread waits until the other thread has taken a block
        usable_cpus(2)
        entered = threading.Event()
        block = tmsq_mod.amplitude_block

        def faulty(*args):
            if threading.current_thread() is threading.main_thread():
                entered.wait(10)
                return block(*args)
            entered.set()
            raise LookupError("synthetic fault in a pass thread")

        monkeypatch.setattr(tmsq_mod, "amplitude_block", faulty)
        threads = threading.active_count()
        with pytest.raises(LookupError, match="pass thread"):
            _grid_log_tables(pass_models(), PhaseGrid(n_points=256))
        assert entered.is_set()
        assert threading.active_count() == threads

    def test_shared_tables_fill_every_model_once(self, monkeypatch):
        calls = []
        build = measurement_mod._grid_log_tables

        def counting(models, grid):
            calls.append(len(models))
            return build(models, grid)

        monkeypatch.setattr(measurement_mod, "_grid_log_tables", counting)
        grid = PhaseGrid(n_points=64)
        first, second = make_model("photon", 1.0), make_model("photon", 2.0)
        tables = shared_grid_tables(first, grid, second, first)
        assert calls == [2]
        assert shared_grid_tables(second, grid, first) is second._grid_tables[grid]
        assert shared_grid_tables(first, grid) is tables
        assert calls == [2]

    def test_campaign_fills_each_phase_block_once(self, monkeypatch, usable_cpus):
        # four n-bar on one grid, on two threads: the blocks of both, taken
        # together, cover the N non-negative offsets once, from offset 0, in
        # the 32-offset blocks that the deepest table (nbar 32, p_max 3672)
        # sets, each over all four tables
        blocks = []
        block = tmsq_mod.amplitude_block

        def counting(tables, delta_phis, rows, buf):
            blocks.append((rows.start, rows.stop, len(tables)))
            return block(tables, delta_phis, rows, buf)

        monkeypatch.setattr(tmsq_mod, "amplitude_block", counting)
        usable_cpus(2)
        cfg = CampaignConfig(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=5),
            mean_photons=(4.0, 8.0, 16.0, 32.0),
            phi_true=(0.5, 0.75),
            trials=1,
            grid=PhaseGrid(n_points=256),
        )
        run_campaign(cfg, workers=2)
        assert sorted(blocks) == [(start, start + 32, 4) for start in range(0, 256, 32)]


class TestPmfAndResidual:
    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    @pytest.mark.parametrize("u", (0.0, 0.05, 0.75, math.pi))
    def test_unit_mass(self, scheme, u, photon_model, optimal_model):
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        _, probs = pmf(model, u)
        assert abs(float(np.sum(probs)) - 1.0) < 1e-9
        assert np.all(probs >= 0.0)
        assert np.all(np.isfinite(probs))

    def test_outcome_order_deterministic(self, photon_model):
        o1, _ = pmf(photon_model, 0.6)
        o2, _ = pmf(photon_model, 0.6)
        assert [o.label() for o in o1] == [o.label() for o in o2]

    def test_residual_is_geometric_remainder(self, photon_model):
        n_max = photon_model.table.n_max
        for u in (0.0, 0.05, 0.75):
            v = pair_ratio(photon_model.params, u)
            assert residual(photon_model, u) == pytest.approx(
                v ** (n_max + 1), rel=1e-10, abs=1e-15
            )


class TestSampling:
    def test_zero_offset_always_vacuum(self, photon_model):
        rng = np.random.default_rng(11)
        draws = {sample(photon_model, 0.0, rng).label() for _ in range(2000)}
        assert draws == {"pair:0"}

    def test_zero_offset_optimal_split(self, optimal_model):
        rng = np.random.default_rng(12)
        labels = [sample(optimal_model, 0.0, rng).label() for _ in range(10_000)]
        frac_plus = labels.count("plus") / len(labels)
        assert abs(frac_plus - 0.5) < 0.02
        assert set(labels) == {"plus", "minus"}

    @pytest.mark.parametrize("scheme", (Scheme.PHOTON_NUMBER, Scheme.OPTIMAL))
    def test_frequencies_match_pmf(self, scheme, photon_model, optimal_model):
        # Pearson chi-square against the model's own pmf, rare bins lumped
        model = photon_model if scheme is Scheme.PHOTON_NUMBER else optimal_model
        u = 0.75
        rng = np.random.default_rng(21)
        n_draws = 10_000
        counts: dict[str, int] = {}
        for _ in range(n_draws):
            lab = sample(model, u, rng).label()
            counts[lab] = counts.get(lab, 0) + 1
        outcomes, probs = pmf(model, u)
        expected = {o.label(): p * n_draws for o, p in zip(outcomes, probs)}
        chi2 = 0.0
        dof = -1
        lump_obs = lump_exp = 0.0
        for lab, exp_n in expected.items():
            obs = counts.pop(lab, 0)
            if exp_n < 5.0:
                lump_obs += obs
                lump_exp += exp_n
                continue
            chi2 += (obs - exp_n) ** 2 / exp_n
            dof += 1
        lump_obs += sum(counts.values())
        lump_exp += max(n_draws - sum(expected.values()), 0.0)
        if lump_exp > 0.0:
            chi2 += (lump_obs - lump_exp) ** 2 / lump_exp
            dof += 1
        # dof > 30 here, so chi2 ~ dof +- few sqrt(2 dof); 4 sigma guard
        assert chi2 < dof + 4.0 * math.sqrt(2.0 * dof)

    def test_exact_tail_reaches_beyond_table(self, photon_model):
        # v(pi) = 0.96 at nbar = 4, so counts past n_max = 16 are common
        rng = np.random.default_rng(41)
        top = max(sample(photon_model, math.pi, rng).n for _ in range(500))
        assert top > photon_model.table.n_max


class TestLikelihoodCurve:
    def test_on_grid_matches_pointwise(self, photon_model, optimal_model, grid):
        j = 1234
        theta = float(grid.points[j])
        for model, outcome in (
            (photon_model, Outcome.pair(0)),
            (photon_model, Outcome.pair(3)),
            (photon_model, Outcome.pair(22)),
            (optimal_model, Outcome.plus()),
            (optimal_model, Outcome.minus()),
            (optimal_model, Outcome.null(2)),
        ):
            curve = np.exp(shared_grid_tables(model, grid).log_row(outcome, j))
            sub = slice(0, grid.n_points, 128)
            want = [
                likelihood(model, outcome, float(p) - theta) for p in grid.points[sub]
            ]
            assert np.max(np.abs(curve[sub] - np.array(want))) < 1e-12

    def test_photon_curve_symmetric_about_theta(self, photon_model, grid):
        j = 2048
        curve = shared_grid_tables(photon_model, grid).log_row(Outcome.pair(2), j)
        k = np.arange(1, 1000)
        assert np.array_equal(curve[j + k], curve[j - k])

    def test_optimal_curves_mirror(self, optimal_model, grid):
        j = 2048
        tables = shared_grid_tables(optimal_model, grid)
        plus = np.exp(tables.log_row(Outcome.plus(), j))
        minus = np.exp(tables.log_row(Outcome.minus(), j))
        k = np.arange(1, 1000)
        assert np.max(np.abs(plus[j + k] - minus[j - k])) < 1e-14

    def test_photon_probabilities_even_in_offset(self, photon_model, grid):
        # separate evaluations at +u and -u; the grid's rows above are even
        # by construction, since LikelihoodGrid mirrors its table
        u = np.arange(1, 1000) * grid.spacing
        assert np.array_equal(
            outcome_probabilities(photon_model, u), outcome_probabilities(photon_model, -u)
        )

    def test_optimal_probabilities_mirror(self, optimal_model, grid):
        u = np.arange(1, 1000) * grid.spacing
        swapped = [1, 0, *range(2, optimal_model.n_max + 1)]
        assert np.array_equal(
            outcome_probabilities(optimal_model, u)[:, swapped],
            outcome_probabilities(optimal_model, -u),
        )

    def test_rows_are_read_only_views_or_copies(self, photon_model, grid):
        tables = shared_grid_tables(photon_model, grid)
        log_row = tables.log_row(Outcome.pair(0), 100)
        assert not log_row.flags.writeable

    def test_shared_tables_cached(self, photon_model, grid):
        assert shared_grid_tables(photon_model, grid) is shared_grid_tables(
            photon_model, grid
        )

    def test_shared_tables_keyed_by_grid_value(self, photon_model, grid):
        # a spawned child unpickles a new grid for its cells; it must find
        # the table that the original grid built
        tables = shared_grid_tables(photon_model, grid)
        assert shared_grid_tables(photon_model, pickle.loads(pickle.dumps(grid))) is tables
        assert shared_grid_tables(photon_model, PhaseGrid()) is tables
        assert shared_grid_tables(photon_model, PhaseGrid(n_points=256)) is not tables

    def test_shared_tables_freed_with_their_model(self, grid):
        # reference counting alone must free the cached tables: a cycle
        # between model and tables would keep them until a full collection
        gc.disable()
        try:
            model = make_model(Scheme.PHOTON_NUMBER, 0.5)
            tables = weakref.ref(shared_grid_tables(model, grid))
            assert tables().model is model
            del model
            assert tables() is None
        finally:
            gc.enable()


class TestOutcomeType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Outcome.pair(-1)
        with pytest.raises(ValueError):
            Outcome.null(1)
        with pytest.raises(ValueError):
            Outcome(kind="bogus")
        with pytest.raises(ValueError):
            Outcome(kind="plus", n=3)

    @pytest.mark.parametrize("flag", (True, False))
    def test_a_bool_is_no_pair_count(self, flag):
        with pytest.raises(ValueError):
            Outcome.pair(flag)


class TestModelFactory:
    def test_mean_photons_shortcut_matches_params(self, photon_model):
        assert photon_model.params.mean_photons == pytest.approx(4.0, rel=1e-12)


@given(
    u=st.floats(min_value=-math.pi, max_value=math.pi),
    n=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_pair_likelihood_is_probability(photon_model, u, n):
    p = likelihood(photon_model, Outcome.pair(n), u)
    assert 0.0 <= p <= 1.0
    assert p == likelihood(photon_model, Outcome.pair(n), -u)


@given(u=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=60, deadline=None)
def test_pair_ratio_stays_in_unit_interval(photon_model, u):
    v = pair_ratio(photon_model.params, u)
    assert 0.0 <= v < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the table route squares an amplitude that rounds above 1 at "
    "offset 0; a clamp at 1 changes photon artifacts at nbar = 0.5 and 3, so it waits for "
    "the batch sign-off",
)
def test_no_probability_above_one_at_zero_offset():
    assert (outcome_probabilities(make_model("photon", 3.0), np.array([0.0])) <= 1.0).all()
