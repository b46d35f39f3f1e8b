"""Twin-beam ladder of a vacuum-seeded optical parametric amplifier.

The interferometer considered here is built from two phase-conjugate
parametric amplifiers enclosing a phase shift. Seeded by vacuum, every state
reachable inside the device stays on the twin-pair ladder |n, n>, so the full
simulation reduces to real coefficient tables over pair number. This module
builds those tables and the complex detection amplitudes derived from them.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

HARD_PAIR_CAP = 4096
# the one truncation tolerance: every table column's squared sum closes to
# within it of one; campaign JSON and the likelihood CSV echo it as tail_tol
TAIL_TOL = 1e-12
# bytes of the phase buffers of one pass, shared by its threads (block_spans):
# 256 offsets a block at p_max 475 (nbar 4) on one thread, 128 on two; no
# block is shorter than the 32 offsets nbar 32 (p_max 3672) takes on one
_BLOCK_BYTES = 2 << 20
_MIN_BLOCK = 32
# offsets per product of the first table builds, whose bits every table keeps
_FIRST_PRODUCT = 1024
# relative rounding allowed to a column's sum of squares in _coeff_matrix
_CLOSURE_SLACK = 1e-9
# Stirling-series coefficients of cephes lgam, highest power first
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


@functools.cache
def _log_factorials() -> np.ndarray:
    """log(n!) for n = 0 ... HARD_PAIR_CAP + 1, read-only, built on first use.

    This is cephes lgam(n + 1), the routine behind scipy.special.gammaln,
    for integer arguments, so it equals gammaln(n + 1.0) bit for bit (the
    tests check every entry). For x = n + 1 < 13 it is the log of the exact
    product n!; from 13 up, Stirling's series with lgam's coefficients.
    lgam takes a shorter series from x = 1000 on; the two corrections differ
    by far less than an ulp of the sum, and one series gives the same bits
    over the whole table. The logs are math.log, the C library's log that
    lgam calls; every other step is one rounded IEEE operation, as in C.
    _coeff_matrix indexes no deeper than HARD_PAIR_CAP + 1.
    """
    x = np.arange(13.0, HARD_PAIR_CAP + 3.0)
    log_x = np.fromiter(map(math.log, range(13, HARD_PAIR_CAP + 3)), np.float64, len(x))
    q = (x - 0.5) * log_x - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    q += poly / x
    table = np.concatenate([[math.log(math.factorial(n)) for n in range(12)], q])
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class OpaParams:
    """Parametric amplifier settings.

    squeeze_r is the amplifier gain parameter (dimensionless, positive).
    """

    squeeze_r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.squeeze_r) and self.squeeze_r > 0.0):
            raise ValueError(
                f"squeeze_r must be finite and positive, got {self.squeeze_r!r}"
            )

    @property
    def mean_photons(self) -> float:
        """Mean photon number over both arms after the first amplifier."""
        return 2.0 * math.sinh(self.squeeze_r) ** 2

    @classmethod
    def from_mean_photons(cls, nbar: float) -> "OpaParams":
        """Invert mean_photons = 2 sinh^2 r for the gain parameter."""
        if not (math.isfinite(nbar) and nbar > 0.0):
            raise ValueError(
                f"mean photon number must be a finite positive number, got {nbar!r}"
            )
        return cls(squeeze_r=math.asinh(math.sqrt(nbar / 2.0)))


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
    tail_bound: float
    coeffs: np.ndarray
    pair_kernel: np.ndarray


def _coeff_matrix(
    r: float, p_max: int, n_max: int, head: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the ladder coefficients with signed log-gamma accumulation.

    Each entry is an alternating k-sum of binomial terms. Magnitudes are
    accumulated in log space so large m stays finite; signs are applied
    after exponentiation. For n <= 16 the terms are modest and the direct
    sum loses no significant precision.

    Row m depends only on (r, m, n), each row being summed on its own. So
    head, the table of a smaller depth at the same r and n_max, becomes the
    first rows as it is, and only the rows below it are evaluated: the
    result equals the table evaluated whole, bit for bit.

    Each column's sum of squares is checked as soon as the column is done.
    An exact column's lies in [0, 1]; one above 2, beyond _CLOSURE_SLACK
    (which covers the summation order build_schmidt_table's own check
    uses), is a defect above 1 that the whole-table check would reject
    anyway, so TruncationError is raised at once rather than after the
    remaining, ever costlier columns (n_max = 1000 took seconds).
    """
    lnt = math.log(math.tanh(r))
    lns = math.log(math.sinh(r))
    lnc = math.log(math.cosh(r))
    p_head = 0 if head is None else len(head)
    m = np.arange(p_head, p_max + 1, dtype=np.int64)
    lgf = _log_factorials()
    out = np.empty((p_max + 1, n_max + 1), dtype=np.float64)
    if head is not None:
        out[:p_head] = head
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
        out[p_head:, n] = terms.sum(axis=1)
        closure = float(out[:, n] @ out[:, n])
        if not closure <= 2.0 * (1.0 + _CLOSURE_SLACK):  # also catches NaN
            raise _precision_lost(p_max, f"column {n}'s", closure - 1.0)
    return out


def _precision_lost(p: int, which: str, defect: float) -> TruncationError:
    return TruncationError(
        f"the alternating coefficient sums lose all precision at pair depth {p}: "
        f"{which} defect reads {defect:.3e}, but an exact one lies "
        f"in [0, 1]; reduce n_max or squeeze_r"
    )


def _vacuum_p_start(x: float, n_max: int) -> int:
    # closed-form tail of the vacuum column: sum_{m>p} (1-x) x^m = x^{p+1}
    if x >= 1.0:  # from a mean photon number between 1e16 and 1e17 on
        raise TruncationError(
            f"tanh^2 r rounds to 1, so the vacuum column has no finite depth "
            f"that holds all but {TAIL_TOL:.0e} of its mass; reduce squeeze_r"
        )
    if x <= 0.0:
        return n_max + 8
    p0 = int(math.ceil(math.log(TAIL_TOL) / math.log(x))) - 1
    return max(p0, n_max + 8)


_STALL_CEILING = 1e-7


def build_schmidt_table(params: OpaParams, n_max: int = 16) -> SchmidtTable:
    """Build the coefficient table, growing the ladder until columns close.

    The starting depth comes from the geometric tail of the vacuum column.
    Higher columns spread to larger pair number, so the depth is grown
    geometrically until every column's squared-coefficient sum is within
    TAIL_TOL of one, or until the defect is already below 1e-7 and stops
    improving. The latter happens when it hits the double-precision
    cancellation floor of the alternating coefficient sums (around 1e-10
    for the deepest default column); actual truncation error shrinks like
    x^p once past the column bulk and cannot stall there. Each depth
    evaluates only the rows below the last depth's table (_coeff_matrix's
    head) and checks its columns whole. The achieved closure is recorded
    as tail_bound. Exceeding the hard cap of 4096 raises TruncationError,
    at once if n_max + 8 already does or if
    tanh^2 r rounds to 1, where no depth holds the vacuum tail. So does a
    defect that is not finite or exceeds 1, which no exact column can have:
    it is cancellation error in the alternating sums, and that only grows
    with depth.
    """
    if not (type(n_max) is int and n_max >= 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if n_max + 8 > HARD_PAIR_CAP:
        # the start depth n_max + 8 cannot fit under the cap, so no column closes
        raise TruncationError(
            f"n_max {n_max} leaves no room under the pair ladder cap {HARD_PAIR_CAP}; "
            f"reduce n_max to at most {HARD_PAIR_CAP - 8}"
        )
    r = params.squeeze_r
    x = math.tanh(r) ** 2
    p = min(_vacuum_p_start(x, n_max), HARD_PAIR_CAP)
    prev_defect = math.inf
    coeffs = None
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _coeff_matrix(r, p, n_max, head=coeffs)
            defect = float(np.abs(1.0 - (coeffs * coeffs).sum(axis=0)).max())
        if not defect <= 1.0:  # also catches NaN
            raise _precision_lost(p, "the worst column's", defect)
        if defect <= TAIL_TOL:
            break
        if defect <= _STALL_CEILING and defect > 0.5 * prev_defect:
            break  # small and no longer improving: the noise floor, not truncation
        if p >= HARD_PAIR_CAP:
            raise TruncationError(
                f"pair ladder capped at {HARD_PAIR_CAP} but the worst column "
                f"still leaks {defect:.3e} (> {TAIL_TOL:.0e}); reduce n_max or squeeze_r"
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
        tail_bound=tail_bound,
        coeffs=coeffs,
        pair_kernel=kernel,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def block_spans(tables, n_offsets: int, threads: int):
    """The row blocks of a pass (amplitude_pass) over n_offsets offsets.

    Returns (spans, shape): spans are the consecutive slices of the offsets
    that the blocks cover, from offset 0, and shape is the (rows, columns)
    of a complex phase buffer that holds any one block's phase factors, out
    to the deepest p_max among the tables.

    A block's offsets number the largest power of two, from _MIN_BLOCK to
    _FIRST_PRODUCT, whose phase factors for `threads` blocks fit in about
    _BLOCK_BYTES: short rows come in long blocks, which cost less per
    offset, and deep ones in short blocks, which bound the memory. A lone
    row takes BLAS's matrix-vector path, whose bits differ from those of a
    product over two or more rows. The first tables, built _FIRST_PRODUCT
    offsets a product, had one exactly when the offsets number 1 (mod
    _FIRST_PRODUCT), where the block size, which divides _FIRST_PRODUCT,
    leaves one too. So a one-row remainder stays alone there and joins the
    block before it elsewhere, and every table keeps its bits.
    """
    columns = max(t.p_max for t in tables) + 1
    block = _FIRST_PRODUCT
    while block > _MIN_BLOCK and threads * block * columns * 16 > _BLOCK_BYTES:
        block //= 2
    starts = list(range(0, n_offsets, block))
    if n_offsets % block == 1 and n_offsets % _FIRST_PRODUCT != 1:
        starts.pop()
    spans = [slice(a, b) for a, b in zip(starts, starts[1:] + [n_offsets])]
    return spans, (min(n_offsets, block + 1), columns)


def amplitude_block(tables, delta_phis: np.ndarray, rows: slice, buf: np.ndarray) -> list:
    """The amplitudes of one block of block_spans: for each table in order,
    the (rows, n_max + 1) complex amplitudes of pair_amplitude_matrix at
    delta_phis[rows]. buf is a phase buffer of block_spans' shape; its
    contents are overwritten.

    The phase factors are written as cos and sin into the real and
    imaginary parts of buf, which is cheaper than a complex exponential and
    agrees with it bit for bit (the tests check this). The angles go
    straight into the imaginary part, whose cos fills the real part before
    its sin overwrites it in place, so no separate angle matrix is made.
    Each table multiplies the first p_max + 1 columns by its pair_kernel.
    A column does not depend on how far the buffer reaches, and nothing
    here depends on which blocks went before, so a block keeps its bits
    whatever tables share its pass and whichever thread computes it. The
    kernel is real and cos and sin are even and odd, so the amplitudes at
    -u are exactly the conjugates of those at u.
    """
    phases = buf[: rows.stop - rows.start]
    np.multiply(delta_phis[rows, None], np.arange(buf.shape[1]), out=phases.imag)
    np.cos(phases.imag, out=phases.real)
    np.sin(phases.imag, out=phases.imag)
    return [phases[:, : t.p_max + 1] @ t.pair_kernel for t in tables]


def amplitude_pass(tables, delta_phis, use) -> None:
    """The one pass: use(rows, amps) is called once per block of
    block_spans, in no fixed order, where rows is the slice of delta_phis
    the block covers and amps is amplitude_block's list for it; `use` must
    write each block to its own place.

    The pass runs on min(_usable_cpus(), blocks) threads, the caller
    included, so a pass of no block or one starts no thread. Their phase
    buffers, one each, are made before any thread starts, and the threads
    take blocks from one shared iterator. A block's bits depend neither on
    the blocks before it nor on its thread, so the result is the same for
    any thread count. The first exception of any thread is raised here
    once every thread has ended; the others take no further block.
    """
    dphi = np.asarray(delta_phis, dtype=np.float64)
    cpus = _usable_cpus()
    spans, shape = block_spans(tables, len(dphi), cpus)
    bufs = [np.empty(shape, dtype=np.complex128) for _ in range(min(cpus, len(spans)))]
    spans = iter(spans)
    take = threading.Lock()
    errors = []

    def run(buf) -> None:
        try:
            while not errors:
                with take:
                    rows = next(spans, None)
                if rows is None:
                    return
                use(rows, amplitude_block(tables, dphi, rows, buf))
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(buf,)) for buf in bufs[1:]]
    for helper in helpers:
        helper.start()
    try:
        for buf in bufs[:1]:
            run(buf)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def pair_amplitude_matrix(table: SchmidtTable, delta_phis: np.ndarray) -> np.ndarray:
    """Detection amplitudes on the pair ladder for many phase offsets at once.

    Returns a complex array of shape (len(delta_phis), n_max + 1) whose
    [j, n] entry is the amplitude for n detected pairs at offset
    delta_phis[j]: the sum over m of exp(i m delta_phis[j]) pair_kernel[m, n].
    This is the one-table case of amplitude_pass; block_spans and
    amplitude_block say how the blocks and their bits go.
    """
    out = np.empty((len(delta_phis), table.n_max + 1), dtype=np.complex128)

    def store(rows, amps) -> None:
        (out[rows],) = amps

    amplitude_pass([table], delta_phis, store)
    return out
