"""Benchmark arithmetic, Fisher information, and error-propagation tests."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from su11sim import (
    CampaignConfig,
    DerivativeCheckError,
    MODE_OPTIMAL,
    ProtocolConfig,
    benchmarks,
    quantum_fisher,
    run_campaign,
)
from su11sim.analysis import _checked_derivative, error_propagation_variance, fisher_information
from su11sim.checks import _chi_square_tail
from su11sim.tmsq import OpaParams, build_schmidt_table


class TestBenchmarks:
    def test_reference_point(self):
        b = benchmarks(1000, 4.0)
        assert b.qcrb == pytest.approx(1.0 / 24000.0, rel=1e-12)
        assert b.heisenberg == pytest.approx(6.25e-5, rel=1e-12)
        assert b.shot_noise == pytest.approx(2.5e-4, rel=1e-12)

    def test_criterion_11_ceiling_below_its_target(self):
        # criterion 11 asks for 90 of 100 MAP estimates within 0.01 rad at
        # M = 1000, nbar = 4; an unbiased Gaussian estimator at the QCRB
        # lands there only with probability erf(0.01 / sqrt(2 qcrb))
        qcrb = benchmarks(1000, 4.0).qcrb
        ceiling = math.erf(0.01 / math.sqrt(2.0 * qcrb))
        assert ceiling == pytest.approx(0.879, abs=5e-4)
        assert ceiling < 0.90

    def test_validation(self):
        with pytest.raises(ValueError):
            benchmarks(0, 4.0)
        with pytest.raises(ValueError):
            benchmarks(1000, -1.0)

    @pytest.mark.parametrize("nbar", (math.nan, math.inf))
    def test_non_finite_mean_photons_named_as_such(self, nbar):
        with pytest.raises(ValueError, match="a finite positive number, got"):
            benchmarks(1000, nbar)

    @pytest.mark.parametrize(
        "measurements, nbar",
        # 1e-160: the Heisenberg limit overflows to inf; 1e-320: nbar^2 is 0;
        # 1e200: nbar^2 overflows; 10**400 measurements overflow any product
        [(1000, 1e-160), (1000, 1e-320), (1000, 1e200), (10**400, 4.0)],
        ids=["nbar-1e-160", "nbar-1e-320", "nbar-1e200", "measurements-1e400"],
    )
    def test_limits_outside_the_double_range_raise(self, measurements, nbar):
        with pytest.raises(ValueError, match=re.escape(f"mean photon number {nbar!r}")):
            benchmarks(measurements, nbar)

    def test_qcrb_approaches_heisenberg_at_large_photon_number(self):
        b = benchmarks(1, 1e6)
        assert b.qcrb / b.heisenberg == pytest.approx(1.0, abs=1e-5)

    @given(
        m=st.integers(min_value=1, max_value=10_000),
        nbar=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_ordering_above_unit_photon_number(self, m, nbar):
        b = benchmarks(m, nbar)
        assert 0.0 < b.qcrb <= b.heisenberg <= b.shot_noise

    def test_quantum_fisher_matches_squeeze_identity(self):
        # nbar (nbar + 2) must equal 4 sinh^2 r cosh^2 r under nbar = 2 sinh^2 r
        for nbar in (0.5, 2.0, 4.0, 6.0, 8.0, 20.0):
            r = math.asinh(math.sqrt(nbar / 2.0))
            assert quantum_fisher(nbar) == pytest.approx(
                4.0 * math.sinh(r) ** 2 * math.cosh(r) ** 2, rel=1e-12
            )


class TestFisherInformation:
    def test_optimal_saturates_bound_at_zero(self, optimal_model):
        f = fisher_information(optimal_model, 0.0)
        assert f == pytest.approx(24.0, rel=1e-3)

    def test_photon_near_zero_approaches_bound(self, photon_model):
        f = fisher_information(photon_model, 1e-3)
        assert f == pytest.approx(24.0, rel=1e-2)

    def test_photon_exactly_zero_is_removable_point(self, photon_model):
        # even likelihoods have zero slope at zero offset, so the pointwise
        # value collapses even though the limit is the full 24
        assert fisher_information(photon_model, 0.0) == 0.0

    def test_never_exceeds_quantum_bound(self, optimal_model, photon_model):
        for model in (optimal_model, photon_model):
            for u in (0.05, 0.15, 0.3, 0.5):
                assert fisher_information(model, u) <= 24.0 * 1.001

    def test_frozen_midrange_value(self, optimal_model):
        assert fisher_information(optimal_model, 0.3) == pytest.approx(
            12.181553276978496, rel=1e-6
        )


class TestErrorPropagation:
    def test_frozen_excess_ratios(self, optimal_model):
        q1 = benchmarks(1, 4.0).qcrb
        got_small = error_propagation_variance(optimal_model, 0.01, 1) / q1
        got_mid = error_propagation_variance(optimal_model, 0.05, 1) / q1
        assert got_small == pytest.approx(1.004917, rel=1e-4)
        assert got_mid == pytest.approx(1.133814, rel=1e-4)

    def test_quadratic_excess_tracks_coefficient(self, optimal_model):
        q1 = benchmarks(1, 4.0).qcrb
        for u in (0.005, 0.01, 0.02):
            ratio = error_propagation_variance(optimal_model, u, 1) / q1
            assert (ratio - 1.0) / u**2 == pytest.approx(49.0, rel=0.05)

    def test_measurements_scale_out(self, optimal_model):
        v1 = error_propagation_variance(optimal_model, 0.05, 1)
        v1000 = error_propagation_variance(optimal_model, 0.05, 1000)
        assert v1000 == pytest.approx(v1 / 1000.0, rel=1e-12)

    def test_preconditions(self, optimal_model, photon_model):
        with pytest.raises(ValueError):
            error_propagation_variance(photon_model, 0.05, 1)
        with pytest.raises(ValueError):
            error_propagation_variance(optimal_model, 0.5, 1)
        with pytest.raises(ValueError):
            error_propagation_variance(optimal_model, 0.05, 0)


class TestCheckedDerivative:
    def test_smooth_function(self):
        d = _checked_derivative(math.sin, 0.3, 1e-5)
        assert d == pytest.approx(math.cos(0.3), rel=1e-9)

    def test_discontinuity_detected(self):
        with pytest.raises(DerivativeCheckError):
            _checked_derivative(lambda x: float(np.sign(x)), 0.0, 1e-5)


_COUNTS = {
    "benchmarks": lambda model: benchmarks(True, 4.0),
    "error_propagation_variance": lambda model: error_propagation_variance(model, 1e-3, True),
    "build_schmidt_table": lambda model: build_schmidt_table(
        OpaParams.from_mean_photons(4.0), n_max=True
    ),
    "run_campaign": lambda model: run_campaign(
        CampaignConfig(
            protocol=ProtocolConfig(mode=MODE_OPTIMAL, measurements=5),
            mean_photons=(4.0,), phi_true=(0.75,), trials=1,
        ),
        workers=True,
    ),
}


@pytest.mark.parametrize("call", _COUNTS.values(), ids=_COUNTS.keys())
def test_a_bool_is_no_count(call, optimal_model):
    # True is an int, but no number of measurements, pairs or workers
    with pytest.raises(ValueError):
        call(optimal_model)


def test_verifys_chi_square_tail_matches_scipy():
    # SciPy is only the oracle: verify computes the tail itself
    x = np.geomspace(0.01, 200.0, 300)
    for dof in range(1, 61):
        ours = np.array([_chi_square_tail(dof, float(v)) for v in x])
        np.testing.assert_allclose(ours, chdtrc(dof, x), rtol=1e-12, atol=0.0, err_msg=f"dof={dof}")
        assert _chi_square_tail(dof, 0.0) == 1.0
