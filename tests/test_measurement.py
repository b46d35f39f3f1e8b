"""Detection-model tests.

The central oracle here is the O(p_max^2) cosine double sum over the raw
coefficient table: the production path regroups it into a separable O(p_max)
amplitude evaluation, and the two must agree to 1e-10. Everything else
(geometric pair law, two-outcome closed forms, tail accounting) is checked
against independent closed-form expressions.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11sim import (
    Outcome,
    PhaseGrid,
    POLICY_RENORMALIZE,
    ResidualMassError,
    Scheme,
    detection_asymmetry,
    likelihood,
    likelihood_curve,
    make_model,
    pair_ratio,
    pmf,
    residual_mass,
    sample,
    shared_grid_tables,
)

U_SWEEP = (-math.pi, -1.2, -0.3, -0.05, 0.0, 0.05, 0.3, 0.75, 1.2, math.pi)


def brute_force_pair_prob(table, n: int, u: float) -> float:
    """Direct double sum over retained Fock indices, cosine form."""
    g = table.coeffs[:, 0] * table.coeffs[:, n]
    p = np.arange(table.p_max + 1)
    cos_mat = np.cos(np.subtract.outer(p, p) * u)
    return float(g @ cos_mat @ g)


def closed_form_pair_ratio(nbar: float, u: float) -> float:
    x = math.tanh(math.asinh(math.sqrt(nbar / 2.0))) ** 2
    dsq = 1.0 - 2.0 * x * math.cos(u) + x * x
    return 2.0 * x * (1.0 - math.cos(u)) / dsq


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
            assert residual_mass(photon_model, u) == pytest.approx(
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

    def test_renormalize_policy_small_offset(self):
        model = make_model(Scheme.PHOTON_NUMBER, 4.0, residual_policy=POLICY_RENORMALIZE)
        rng = np.random.default_rng(31)
        labels = [sample(model, 0.05, rng).label() for _ in range(2000)]
        v = pair_ratio(model.params, 0.05)
        frac0 = labels.count("pair:0") / len(labels)
        assert abs(frac0 - (1.0 - v)) < 4.0 * math.sqrt(v * (1.0 - v) / 2000)

    def test_renormalize_policy_hard_error_on_leak(self):
        model = make_model(Scheme.PHOTON_NUMBER, 4.0, residual_policy=POLICY_RENORMALIZE)
        assert residual_mass(model, 0.75) > model.residual_tol
        with pytest.raises(ResidualMassError):
            sample(model, 0.75, np.random.default_rng(0))

    def test_exact_tail_reaches_beyond_table(self, photon_model):
        # v(pi) = 0.96 at nbar = 4, so counts past n_max = 16 are common
        rng = np.random.default_rng(41)
        top = max(sample(photon_model, math.pi, rng).n for _ in range(500))
        assert top > photon_model.table.n_max


class TestLikelihoodCurve:
    def test_on_grid_matches_pointwise(self, photon_model, optimal_model, grid):
        theta = float(grid.points[1234])
        for model, outcome in (
            (photon_model, Outcome.pair(0)),
            (photon_model, Outcome.pair(3)),
            (photon_model, Outcome.pair(22)),
            (optimal_model, Outcome.plus()),
            (optimal_model, Outcome.minus()),
            (optimal_model, Outcome.null(2)),
        ):
            curve = likelihood_curve(model, outcome, grid, theta)
            sub = slice(0, grid.n_points, 128)
            want = [
                likelihood(model, outcome, float(p) - theta) for p in grid.points[sub]
            ]
            assert np.max(np.abs(curve[sub] - np.array(want))) < 1e-12

    def test_off_grid_matches_pointwise(self, photon_model, grid):
        theta = float(grid.points[70]) + 0.3 * grid.spacing
        curve = likelihood_curve(photon_model, Outcome.pair(1), grid, theta)
        want = [likelihood(photon_model, Outcome.pair(1), float(p) - theta) for p in grid.points]
        assert np.max(np.abs(curve - np.array(want))) == 0.0

    def test_photon_curve_symmetric_about_theta(self, photon_model, grid):
        j = 2048
        theta = float(grid.points[j])
        curve = likelihood_curve(photon_model, Outcome.pair(2), grid, theta)
        k = np.arange(1, 1000)
        assert np.array_equal(curve[j + k], curve[j - k])

    def test_optimal_curves_mirror(self, optimal_model, grid):
        j = 2048
        plus = likelihood_curve(optimal_model, Outcome.plus(), grid, float(grid.points[j]))
        minus = likelihood_curve(optimal_model, Outcome.minus(), grid, float(grid.points[j]))
        k = np.arange(1, 1000)
        assert np.max(np.abs(plus[j + k] - minus[j - k])) < 1e-14

    def test_rows_are_read_only_views_or_copies(self, photon_model, grid):
        tables = shared_grid_tables(photon_model, grid)
        log_row = tables.log_row(Outcome.pair(0), 100)
        assert not log_row.flags.writeable
        row = tables.row(Outcome.pair(0), 100)
        row[0] = -1.0  # copies are caller-owned
        assert tables.row(Outcome.pair(0), 100)[0] != -1.0

    def test_log_row_consistent_with_row(self, optimal_model, grid):
        tables = shared_grid_tables(optimal_model, grid)
        for outcome in (Outcome.plus(), Outcome.minus(), Outcome.null(2), Outcome.null(20)):
            row = tables.row(outcome, 777)
            log_row = tables.log_row(outcome, 777)
            mask = row > 1e-300
            assert np.max(np.abs(np.log(row[mask]) - log_row[mask])) < 1e-12

    def test_shared_tables_cached(self, photon_model, grid):
        assert shared_grid_tables(photon_model, grid) is shared_grid_tables(
            photon_model, grid
        )

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
    def test_label_round_trip(self):
        for o in (Outcome.pair(0), Outcome.pair(7), Outcome.plus(), Outcome.minus(), Outcome.null(4)):
            assert Outcome.parse_label(o.label()) == o

    def test_validation(self):
        with pytest.raises(ValueError):
            Outcome.pair(-1)
        with pytest.raises(ValueError):
            Outcome.null(1)
        with pytest.raises(ValueError):
            Outcome(kind="bogus")
        with pytest.raises(ValueError):
            Outcome(kind="plus", n=3)


class TestModelFactory:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            make_model(Scheme.PHOTON_NUMBER, 4.0, residual_policy="fold")

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
