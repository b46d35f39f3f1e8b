"""Precision benchmarks and information-theoretic diagnostics.

The quantum Cramer-Rao bound for this interferometer sits a factor
(nbar + 2)/nbar below the Heisenberg scaling 1/(M nbar^2), because the
phase generator acting on the twin-beam state has variance
nbar (nbar + 2) / 4 per shot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DerivativeCheckError
from .measurement import LikelihoodModel, Outcome, Scheme, likelihood, pmf

_LINEAR_WINDOW = 0.2


@dataclass(frozen=True)
class Benchmarks:
    """Single-run variance limits for M measurements at fixed mean photons."""

    mean_photons: float
    measurements: int
    qcrb: float
    heisenberg: float
    shot_noise: float


def quantum_fisher(mean_photons: float) -> float:
    """Per-shot quantum Fisher information nbar (nbar + 2) of the probe."""
    if not (math.isfinite(mean_photons) and mean_photons > 0.0):
        raise ValueError(
            f"mean photon number must be a finite positive number, got {mean_photons!r}"
        )
    return mean_photons * (mean_photons + 2.0)


def benchmarks(measurements: int, mean_photons: float) -> Benchmarks:
    """The three limits; ValueError if any is not a finite positive double."""
    if not (type(measurements) is int and measurements >= 1):
        raise ValueError(f"measurements must be an integer >= 1, got {measurements!r}")
    qfi = quantum_fisher(mean_photons)
    try:
        b = Benchmarks(
            mean_photons=mean_photons,
            measurements=measurements,
            qcrb=1.0 / (measurements * qfi),
            heisenberg=1.0 / (measurements * mean_photons**2),
            shot_noise=1.0 / (measurements * mean_photons),
        )
        finite = all(0.0 < v < math.inf for v in (b.qcrb, b.heisenberg, b.shot_noise))
    except (OverflowError, ZeroDivisionError):  # a product left the double range
        finite = False
    if not finite:
        raise ValueError(
            f"mean photon number {mean_photons!r} with {measurements} measurements puts "
            f"a variance limit outside the range of finite positive doubles"
        )
    return b


def _checked_derivative(f, u: float, step: float) -> float:
    """Central difference with a step-halving consistency guard.

    The estimate at step/2 must agree with the estimate at step to 0.1%
    (relative to the larger magnitude); disagreement signals a step that is
    too coarse or catastrophic cancellation, and raises instead of
    returning a silently wrong number.
    """
    d1 = (f(u + step) - f(u - step)) / (2.0 * step)
    d2 = (f(u + 0.5 * step) - f(u - 0.5 * step)) / step
    scale = max(abs(d1), abs(d2), 1e-30)
    if abs(d2 - d1) > 1e-3 * scale:
        raise DerivativeCheckError(
            f"central differences at steps {step:g} and {step / 2:g} disagree "
            f"({d1:.6e} vs {d2:.6e}); no trustworthy derivative at offset {u:.4f}"
        )
    return d2


def fisher_information(model: LikelihoodModel, delta_phi: float) -> float:
    """Classical Fisher information of the detection scheme at one offset.

    Sums (dp/du)^2 / p over every outcome with probability above 1e-14,
    with derivatives from guarded central differences at step 1e-5. Note
    the pair-count scheme has a removable 0/0 at zero offset: the pointwise
    value reported there is 0 even though the limit from either side is
    positive.
    """
    u = float(delta_phi)
    outcomes, probs = pmf(model, u)
    total = 0.0
    for outcome, p in zip(outcomes, probs):
        dp = _checked_derivative(lambda w: likelihood(model, outcome, w), u, 1e-5)
        total += dp * dp / p
    return total


def error_propagation_variance(
    model: LikelihoodModel, delta_phi: float, measurements: int
) -> float:
    """Phase variance of the two-outcome signal via the slope quotient.

    Propagates the variance of the plus/minus difference signal through its
    mean slope: Var(phi) = Var(signal) / (M * slope^2). Only defined for
    the optimal scheme inside the linear-response window |offset| <= 0.2.
    """
    if model.scheme is not Scheme.OPTIMAL:
        raise ValueError("error propagation applies to the optimal scheme only")
    u = float(delta_phi)
    if abs(u) > _LINEAR_WINDOW:
        raise ValueError(
            f"offset {u!r} outside the linear-response window |u| <= {_LINEAR_WINDOW}"
        )
    if not (type(measurements) is int and measurements >= 1):
        raise ValueError(f"measurements must be an integer >= 1, got {measurements!r}")
    r = model.params.squeeze_r
    lam = 2.0 * math.sinh(r) * math.cosh(r)

    def signal_mean(w: float) -> float:
        p_plus = likelihood(model, Outcome.plus(), w)
        p_minus = likelihood(model, Outcome.minus(), w)
        return lam * (p_plus - p_minus)

    def signal_second_moment(w: float) -> float:
        p_plus = likelihood(model, Outcome.plus(), w)
        p_minus = likelihood(model, Outcome.minus(), w)
        return lam * lam * (p_plus + p_minus)

    mean = signal_mean(u)
    var_signal = signal_second_moment(u) - mean * mean
    slope = _checked_derivative(signal_mean, u, 1e-5)
    if abs(slope) < 1e-12:
        raise DerivativeCheckError(
            f"signal slope vanishes at offset {u:.4f}; variance quotient undefined"
        )
    return var_signal / (measurements * slope * slope)
