"""Twin-beam ladder of a vacuum-seeded optical parametric amplifier.

The interferometer considered here is built from two phase-conjugate
parametric amplifiers enclosing a phase shift. Seeded by vacuum, every state
reachable inside the device stays on the twin-pair ladder |n, n>, so the full
simulation reduces to real coefficient tables over pair number. This module
builds those tables and the complex detection amplitudes derived from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TruncationError

HARD_PAIR_CAP = 4096


@dataclass(frozen=True)
class OpaParams:
    """Parametric amplifier settings.

    squeeze_r is the amplifier gain parameter (dimensionless, positive).
    pump_phase only rotates the internal amplitudes; it cancels in every
    probability this package computes and is retained for reporting.
    """

    squeeze_r: float
    pump_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.squeeze_r) and self.squeeze_r > 0.0):
            raise ValueError(
                f"squeeze_r must be finite and positive, got {self.squeeze_r!r}"
            )
        if not math.isfinite(self.pump_phase):
            raise ValueError(f"pump_phase must be finite, got {self.pump_phase!r}")

    @property
    def mean_photons(self) -> float:
        """Mean photon number over both arms after the first amplifier."""
        return 2.0 * math.sinh(self.squeeze_r) ** 2

    @classmethod
    def from_mean_photons(cls, nbar: float, pump_phase: float = 0.0) -> "OpaParams":
        """Invert mean_photons = 2 sinh^2 r for the gain parameter."""
        if not (math.isfinite(nbar) and nbar > 0.0):
            raise ValueError(f"mean photon number must be positive, got {nbar!r}")
        return cls(squeeze_r=math.asinh(math.sqrt(nbar / 2.0)), pump_phase=pump_phase)


@dataclass(frozen=True, eq=False)
class SchmidtTable:
    """Real coefficient table of the twin-pair ladder.

    coeffs[m, n] couples m circulating pairs to n detected pairs; column 0 is
    the vacuum-seed profile tanh^m(r)/cosh(r). pair_kernel[m, n] is the
    product coeffs[m, 0] * coeffs[m, n] that enters every detection
    amplitude. Both arrays are read-only. tail_bound is an upper bound on
    the probability mass omitted by truncating the ladder at p_max.
    """

    params: OpaParams
    p_max: int
    n_max: int
    tail_tol: float
    tail_bound: float
    coeffs: np.ndarray
    pair_kernel: np.ndarray


def _coeff_matrix(r: float, p_max: int, n_max: int) -> np.ndarray:
    """Evaluate the ladder coefficients with signed log-gamma accumulation.

    Each entry is an alternating k-sum of binomial terms. Magnitudes are
    accumulated in log space so large m stays finite; signs are applied
    after exponentiation. For n <= 16 the terms are modest and the direct
    sum loses no significant precision.
    """
    lnt = math.log(math.tanh(r))
    lns = math.log(math.sinh(r))
    lnc = math.log(math.cosh(r))
    m = np.arange(p_max + 1, dtype=np.int64)
    lgf = gammaln(np.arange(max(p_max, n_max) + 2, dtype=np.float64) + 1.0)
    out = np.empty((p_max + 1, n_max + 1), dtype=np.float64)
    for n in range(n_max + 1):
        k = np.arange(n + 1, dtype=np.int64)
        valid = m[:, None] >= k[None, :]
        mk = np.where(valid, m[:, None] - k[None, :], 0)
        logmag = (
            lgf[m][:, None]
            - lgf[mk]
            - lgf[k][None, :]
            + lgf[n]
            - lgf[n - k][None, :]
            - lgf[k][None, :]
            - 2.0 * k[None, :] * lns
            + (m[:, None] + n) * lnt
            - lnc
        )
        signs = np.where((n - k) % 2 == 0, 1.0, -1.0)
        terms = np.where(valid, signs[None, :] * np.exp(logmag), 0.0)
        out[:, n] = terms.sum(axis=1)
    return out


def _vacuum_p_start(x: float, tail_tol: float, n_max: int) -> int:
    # closed-form tail of the vacuum column: sum_{m>p} (1-x) x^m = x^{p+1}
    if x <= 0.0:
        return n_max + 8
    p0 = int(math.ceil(math.log(tail_tol) / math.log(x))) - 1
    return max(p0, n_max + 8)


_STALL_CEILING = 1e-7


def build_schmidt_table(
    params: OpaParams, tail_tol: float = 1e-12, n_max: int = 16
) -> SchmidtTable:
    """Build the coefficient table, growing the ladder until columns close.

    The starting depth comes from the geometric tail of the vacuum column.
    Higher columns spread to larger pair number, so the depth is grown
    geometrically until every column's squared-coefficient sum is within
    tail_tol of one, or until the defect is already below 1e-7 and stops
    improving. The latter happens when it hits the double-precision
    cancellation floor of the alternating coefficient sums (around 1e-10
    for the deepest default column); actual truncation error shrinks like
    x^p once past the column bulk and cannot stall there. The achieved
    closure is recorded as tail_bound. Exceeding the hard cap of 4096
    raises TruncationError, at once if n_max + 8 already does. So does a
    defect that is not finite or exceeds 1, which no exact column can have:
    it is cancellation error in the alternating sums, and that only grows
    with depth.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    if not (isinstance(n_max, int) and n_max >= 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if n_max + 8 > HARD_PAIR_CAP:
        # the start depth n_max + 8 cannot fit under the cap, so no column closes
        raise TruncationError(
            f"n_max {n_max} leaves no room under the pair ladder cap {HARD_PAIR_CAP}; "
            f"reduce n_max to at most {HARD_PAIR_CAP - 8}"
        )
    r = params.squeeze_r
    x = math.tanh(r) ** 2
    p = min(_vacuum_p_start(x, tail_tol, n_max), HARD_PAIR_CAP)
    prev_defect = math.inf
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _coeff_matrix(r, p, n_max)
            defect = float(np.abs(1.0 - (coeffs * coeffs).sum(axis=0)).max())
        if not defect <= 1.0:  # also catches NaN
            raise TruncationError(
                f"the alternating coefficient sums lose all precision at pair depth {p}: "
                f"the worst column's defect reads {defect:.3e}, but an exact one lies "
                f"in [0, 1]; reduce n_max or squeeze_r"
            )
        if defect <= tail_tol:
            break
        if defect <= _STALL_CEILING and defect > 0.5 * prev_defect:
            break  # small and no longer improving: the noise floor, not truncation
        if p >= HARD_PAIR_CAP:
            raise TruncationError(
                f"pair ladder capped at {HARD_PAIR_CAP} but the worst column "
                f"still leaks {defect:.3e} (> tail_tol {tail_tol:.3e}); "
                f"reduce n_max or squeeze_r, or loosen tail_tol"
            )
        prev_defect = defect
        p = min(int(math.ceil(1.5 * p)) + 16, HARD_PAIR_CAP)
    kernel = coeffs[:, :1] * coeffs
    coeffs.setflags(write=False)
    kernel.setflags(write=False)
    tail_bound = max(defect, x ** (p + 1))
    return SchmidtTable(
        params=params,
        p_max=p,
        n_max=n_max,
        tail_tol=tail_tol,
        tail_bound=tail_bound,
        coeffs=coeffs,
        pair_kernel=kernel,
    )


def pair_amplitude_matrix(table: SchmidtTable, delta_phis: np.ndarray) -> np.ndarray:
    """Detection amplitudes on the pair ladder for many phase offsets at once.

    Returns a complex array of shape (len(delta_phis), n_max + 1) whose
    [j, n] entry is the amplitude for n detected pairs at offset
    delta_phis[j]: the sum over m of exp(i m delta_phis[j]) pair_kernel[m, n].

    The phase factors are written as cos and sin straight into the real and
    imaginary parts of one complex matrix, which is cheaper than a complex
    exponential and agrees with it bit for bit (the tests check this). The
    kernel is real and cos and sin are even and odd, so the amplitudes at
    -u are exactly the conjugates of those at u.
    """
    dphi = np.asarray(delta_phis, dtype=np.float64)
    angles = dphi[:, None] * np.arange(table.p_max + 1)
    phases = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases @ table.pair_kernel

