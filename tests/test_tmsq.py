"""Coefficient-table tests against an arbitrary-precision oracle.

The production table builds coefficients with signed log-gamma accumulation
in double precision; the oracle below re-evaluates the same alternating sum
in 60-digit mpmath arithmetic, so any systematic error in the log-domain
bookkeeping would show up as a block-wide mismatch.
"""
import functools
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from su11sim import TruncationError
from su11sim.measurement import pair_ratio
from su11sim.tmsq import OpaParams, build_schmidt_table, pair_amplitude_matrix
import su11sim.tmsq as tmsq
from su11sim.tmsq import _coeff_matrix

NBAR_SWEEP = (2.0, 4.0, 6.0, 8.0)


def oracle_coeff(r: float, m: int, n: int) -> float:
    """High-precision signed coefficient via direct summation."""
    with mpmath.workdps(60):
        rr = mpmath.mpf(r)
        t, c, s = mpmath.tanh(rr), mpmath.cosh(rr), mpmath.sinh(rr)
        acc = mpmath.mpf(0)
        for k in range(min(m, n) + 1):
            term = (
                mpmath.binomial(m, k)
                * mpmath.binomial(n, k)
                * s ** (-2 * k)
                * (-1) ** (n - k)
            )
            acc += term
        return float(t ** (m + n) / c * acc)


class TestCoefficientValues:
    def test_frozen_spot_values(self):
        table = build_schmidt_table(OpaParams.from_mean_photons(4.0))
        # closed forms at sinh^2 r = 2: 1/sqrt(3) and -1/(3 sqrt(3))
        assert table.coeffs[0, 0] == pytest.approx(0.5773502691896257, abs=5e-16)
        assert table.coeffs[1, 1] == pytest.approx(-0.1924500897298752, abs=5e-16)
        assert table.coeffs[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=5e-16)
        assert table.coeffs[1, 1] == pytest.approx(-1.0 / (3.0 * math.sqrt(3.0)), abs=5e-16)

    @pytest.mark.parametrize("nbar", (2.0, 4.0, 8.0))
    def test_block_matches_mpmath_oracle(self, nbar):
        r = OpaParams.from_mean_photons(nbar).squeeze_r
        got = _coeff_matrix(r, 40, 8)
        want = np.array([[oracle_coeff(r, m, n) for n in range(9)] for m in range(41)])
        # cancellation in the alternating k-sum scales with the magnitude
        # of the largest term, hence the relative component of the bound
        assert np.max(np.abs(got - want) - 1e-8 * np.abs(want)) < 1e-12

    def test_vacuum_column_closed_form(self):
        for nbar in NBAR_SWEEP:
            params = OpaParams.from_mean_photons(nbar)
            table = build_schmidt_table(params)
            r = params.squeeze_r
            m = np.arange(table.p_max + 1)
            want = np.tanh(r) ** m / np.cosh(r)
            assert np.max(np.abs(table.coeffs[:, 0] - want)) < 1e-13

    def test_vacuum_mass_within_tail_bound(self):
        for nbar in NBAR_SWEEP:
            table = build_schmidt_table(OpaParams.from_mean_photons(nbar))
            mass = float(np.sum(table.coeffs[:, 0] ** 2))
            assert 1.0 - table.tail_bound <= mass <= 1.0 + 1e-13


class TestOrthonormality:
    @pytest.mark.parametrize("nbar", NBAR_SWEEP)
    def test_gram_identity_low_block(self, nbar):
        table = build_schmidt_table(OpaParams.from_mean_photons(nbar))
        block = table.coeffs[:, :11]
        gram = block.T @ block
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def single_amplitudes(table, dphi: float) -> np.ndarray:
    """Amplitudes for 0..n_max pairs at one offset (a one-row matrix)."""
    return pair_amplitude_matrix(table, np.array([float(dphi)]))[0]


class TestAmplitudes:
    def test_zero_offset_returns_vacuum(self):
        table = build_schmidt_table(OpaParams.from_mean_photons(4.0))
        a = single_amplitudes(table, 0.0)
        assert np.max(np.abs(a.imag)) < 1e-15
        assert abs(a[0].real - 1.0) < 1e-8
        assert np.max(np.abs(a[1:])) < 1e-8

    def test_matrix_row_equals_single_amplitude(self):
        table = build_schmidt_table(OpaParams.from_mean_photons(4.0))
        dphis = np.array([-0.3, 0.0, 0.05, 1.2])
        mat = pair_amplitude_matrix(table, dphis)
        for i, u in enumerate(dphis):
            assert np.max(np.abs(mat[i] - single_amplitudes(table, float(u)))) < 1e-14

    @pytest.mark.parametrize("dphi", (0.05, 0.75, math.pi))
    def test_row_mass_accounts_for_tail(self, dphi):
        # total output mass is 1; the part beyond column n_max is the
        # geometric remainder v^(n_max+1) of the pair-ratio law
        params = OpaParams.from_mean_photons(4.0)
        table = build_schmidt_table(params)
        a = single_amplitudes(table, dphi)
        mass = float(np.sum(np.abs(a) ** 2))
        remainder = pair_ratio(params, dphi) ** (table.n_max + 1)
        assert abs(mass + remainder - 1.0) < 1e-9

    def test_truncation_defect_monotone_in_depth(self):
        params = OpaParams.from_mean_photons(4.0)
        r = params.squeeze_r
        u = 0.05
        remainder = pair_ratio(params, u) ** 17
        prev = math.inf
        for p in (30, 60, 120, 240, 480):
            coeffs = _coeff_matrix(r, p, 16)
            kernel = coeffs[:, :1] * coeffs
            row = np.exp(1j * u * np.arange(p + 1)) @ kernel
            defect = abs(float(np.sum(np.abs(row) ** 2)) + remainder - 1.0)
            assert defect <= prev + 1e-14
            prev = defect


def exp_pair_amplitude_matrix(table, delta_phis) -> np.ndarray:
    """Test oracle: the complex-exponential amplitude build that the real
    cos/sin build replaced, kept to show the two agree bit for bit. It takes
    one product per 1024 offsets, as the first table builds did, so a lone
    last offset takes the matrix-vector path."""
    dphi = np.asarray(delta_phis, dtype=np.float64)
    m = np.arange(table.p_max + 1)[None, :]
    chunks = [dphi[start : start + 1024] for start in range(0, len(dphi), 1024)]
    products = [np.exp(1j * u[:, None] * m) @ table.pair_kernel for u in chunks]
    return np.concatenate(products) if products else np.empty((0, table.n_max + 1), complex)


@functools.lru_cache(maxsize=None)
def table_at(nbar: float):
    return build_schmidt_table(OpaParams.from_mean_photons(nbar))


EDGE_OFFSETS = (0.0, 1e-12, -1e-12, math.pi, -math.pi)


class TestRealTrigAmplitudes:
    @pytest.mark.parametrize("nbar", (0.5, 4.0, 32.0))
    @pytest.mark.parametrize("rows", (1024, 1025, 1153, 130, 257))
    def test_bit_identical_to_complex_exp(self, nbar, rows):
        # blocks of 32 (nbar 32), 256 (nbar 4) or 512 offsets (nbar 0.5)
        # equal one product, whatever their remainder; 1025 offsets end in
        # a lone row, as in a 1024-offset product, and 1153 in a 33-row
        # block at nbar 32
        table = table_at(nbar)
        u = np.concatenate([EDGE_OFFSETS, np.linspace(-3.1, 3.1, rows - len(EDGE_OFFSETS))])
        assert np.array_equal(
            pair_amplitude_matrix(table, u), exp_pair_amplitude_matrix(table, u)
        )

    @pytest.mark.parametrize("nbar", (0.5, 4.0, 32.0))
    def test_single_rows_bit_identical_to_complex_exp(self, nbar):
        # one-row products take the matrix-vector kernel
        table = table_at(nbar)
        for u in EDGE_OFFSETS:
            assert np.array_equal(
                pair_amplitude_matrix(table, [u]), exp_pair_amplitude_matrix(table, [u])
            )

    @pytest.mark.parametrize("cpus", (1, 2))
    @pytest.mark.parametrize("rows", (1025, 1153, 130))
    def test_one_pass_over_several_tables_keeps_each_tables_bits(
        self, rows, cpus, usable_cpus
    ):
        # each table multiplies the first p_max + 1 columns of phase blocks
        # that reach the deepest table's p_max
        usable_cpus(cpus)
        tables = [table_at(nbar) for nbar in (0.5, 4.0, 16.0, 32.0)]
        u = np.concatenate([EDGE_OFFSETS, np.linspace(-3.1, 3.1, rows - len(EDGE_OFFSETS))])
        parts = [np.empty((rows, table.n_max + 1), complex) for table in tables]

        def store(span, amps):
            for part, amp in zip(parts, amps):
                part[span] = amp

        tmsq.amplitude_pass(tables, u, store)
        for table, part in zip(tables, parts):
            assert np.array_equal(part, exp_pair_amplitude_matrix(table, u))

    @pytest.mark.parametrize("nbar", (0.5, 4.0, 32.0))
    def test_negated_offsets_give_exact_conjugates(self, nbar):
        # what lets LikelihoodGrid fill its negative offsets by mirroring
        table = table_at(nbar)
        u = np.arange(1025) * (math.pi / 1024)
        assert np.array_equal(
            pair_amplitude_matrix(table, -u), np.conj(pair_amplitude_matrix(table, u))
        )


class TestAmplitudePass:
    @pytest.mark.parametrize(
        "nbar, cpus, block",
        # nbar 4 (p_max 475) splits the 2 MiB among the CPUs; nbar 32
        # (p_max 3672) keeps its 32-offset blocks at any CPU count
        ((4.0, 1, 256), (4.0, 2, 128), (4.0, 4, 64), (32.0, 1, 32), (32.0, 2, 32),
         (32.0, 8, 32)),
    )
    def test_the_cpus_share_the_phase_budget(self, nbar, cpus, block):
        spans, shape = tmsq.block_spans([table_at(nbar)], 4096, cpus)
        assert [(s.start, s.stop) for s in spans] == [
            (a, a + block) for a in range(0, 4096, block)
        ]
        assert shape == (block + 1, table_at(nbar).p_max + 1)

    @pytest.mark.parametrize("n_offsets", (0, 1, 64))
    def test_a_pass_of_no_block_or_one_starts_no_thread(
        self, n_offsets, usable_cpus, monkeypatch
    ):
        # at two usable CPUs, nbar 4 takes 128-offset blocks
        usable_cpus(2)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        blocks = []
        u = np.linspace(-1.0, 1.0, n_offsets)
        tmsq.amplitude_pass([table_at(4.0)], u, lambda rows, amps: blocks.append(rows))
        assert started == []
        assert blocks == ([slice(0, n_offsets)] if n_offsets else [])
        assert pair_amplitude_matrix(table_at(4.0), u).shape == (n_offsets, 17)
        assert started == []


class TestValidation:
    def test_rejects_bad_squeeze(self):
        with pytest.raises(ValueError):
            OpaParams(squeeze_r=0.0)
        with pytest.raises(ValueError):
            OpaParams(squeeze_r=-1.0)
        with pytest.raises(ValueError):
            OpaParams.from_mean_photons(0.0)

    @pytest.mark.parametrize("nbar", (math.nan, math.inf, -math.inf))
    def test_non_finite_mean_photons_named_as_such(self, nbar):
        with pytest.raises(ValueError, match="a finite positive number, got"):
            OpaParams.from_mean_photons(nbar)

    def test_rejects_bad_build_arguments(self):
        params = OpaParams.from_mean_photons(4.0)
        with pytest.raises(ValueError):
            build_schmidt_table(params, n_max=0)

    def test_depth_cap_raises(self):
        # x -> 1 pushes the required depth far past the hard cap
        with pytest.raises(TruncationError):
            build_schmidt_table(OpaParams.from_mean_photons(1e6))

    @pytest.mark.parametrize("nbar", (1e17, 1e300))
    def test_tanh_squared_rounding_to_one_raises(self, nbar):
        # past n-bar ~ 1e16 tanh^2 r is 1.0 and the vacuum tail has no depth
        params = OpaParams.from_mean_photons(nbar)
        assert math.tanh(params.squeeze_r) ** 2 == 1.0
        with pytest.raises(TruncationError, match="rounds to 1"):
            build_schmidt_table(params)

    def test_n_max_beyond_cap_raises_before_any_build(self, monkeypatch):
        # n_max + 8 > HARD_PAIR_CAP: a build at the cap would take minutes
        # and still leak, so the table is refused before any coefficient
        def no_build(*args):
            raise AssertionError("_coeff_matrix called")

        monkeypatch.setattr(tmsq, "_coeff_matrix", no_build)
        params = OpaParams.from_mean_photons(4.0)
        for n_max in (tmsq.HARD_PAIR_CAP - 7, 5000):
            with pytest.raises(TruncationError, match=f"n_max {n_max} "):
                build_schmidt_table(params, n_max=n_max)

    def test_cancellation_raises_at_the_first_depth(self, monkeypatch):
        # at n-bar 4 the n_max = 64 columns read a defect near 3e8 at the start
        # depth 72, far above the 1 no exact column exceeds; deeper ladders
        # only lose more precision, so the build stops there, silently
        depths = []

        def counting(r, p_max, n_max, head=None):
            depths.append(p_max)
            return _coeff_matrix(r, p_max, n_max, head)

        monkeypatch.setattr(tmsq, "_coeff_matrix", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="precision at pair depth 72"):
                build_schmidt_table(OpaParams.from_mean_photons(4.0), n_max=64)
        assert depths == [72]

    @pytest.mark.parametrize("nbar", (0.05, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0))
    def test_grown_table_equals_the_whole_evaluation(self, nbar, monkeypatch):
        # each larger depth reuses the rows of the last one; the table it
        # ends with is the one evaluated at its final depth in one go
        depths = []

        def growing(r, p_max, n_max, head=None):
            depths.append(p_max)
            return _coeff_matrix(r, p_max, n_max, head)

        monkeypatch.setattr(tmsq, "_coeff_matrix", growing)
        params = OpaParams.from_mean_photons(nbar)
        table = build_schmidt_table(params)
        with np.errstate(over="ignore", invalid="ignore"):
            whole = _coeff_matrix(params.squeeze_r, table.p_max, table.n_max)
        assert whole.tobytes() == table.coeffs.tobytes()
        assert depths[-1] == table.p_max
        if nbar >= 1.0:
            assert len(depths) > 1  # the growth ran, so rows were reused

    @pytest.mark.parametrize("nbar, column", [(4.0, 35), (0.5, 53)])
    def test_hopeless_n_max_raises_at_its_first_bad_column(self, nbar, column):
        # at the start depth 1008 the whole n_max = 1000 table took 22 s
        # to build before its check raised; the first column past the bound
        # stops it at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match=f"depth 1008: column {column}'s defect"):
                build_schmidt_table(OpaParams.from_mean_photons(nbar), n_max=1000)

    def test_column_check_fires_only_where_the_table_check_would(self, monkeypatch):
        # n_max = 64 at n-bar 4 stops at depth 72 on a column past the bound;
        # built without the column check, that column fails the whole-table
        # check too
        r = OpaParams.from_mean_photons(4.0).squeeze_r
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TruncationError, match=r"column \d+'s") as raised:
                _coeff_matrix(r, 72, 64)
            monkeypatch.setattr(tmsq, "_CLOSURE_SLACK", math.inf)
            coeffs = _coeff_matrix(r, 72, 64)
        column = int(re.search(r"column (\d+)'s", str(raised.value)).group(1))
        assert np.abs(1.0 - (coeffs * coeffs).sum(axis=0))[column] > 1.0

    def test_overflowing_sums_raise_without_warnings(self, monkeypatch):
        # the sums themselves overflow at the first depth only from n_max
        # near 580 at n-bar 4, seconds into the build; a stand-in whose last
        # column overflows to inf - inf = NaN keeps the case quick
        def overflowing(r, p_max, n_max, head=None):
            coeffs = _coeff_matrix(r, p_max, n_max, head)
            big = np.exp(coeffs[:, -1] + 1000.0)
            coeffs[:, -1] = big - big
            return coeffs

        monkeypatch.setattr(tmsq, "_coeff_matrix", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="defect reads nan"):
                build_schmidt_table(OpaParams.from_mean_photons(4.0))


class TestParamRelations:
    def test_mean_photons_round_trip(self):
        for nbar in NBAR_SWEEP:
            params = OpaParams.from_mean_photons(nbar)
            assert params.mean_photons == pytest.approx(nbar, rel=1e-12)
            assert params.mean_photons == pytest.approx(
                2.0 * math.sinh(params.squeeze_r) ** 2, rel=1e-14
            )

    @given(st.floats(min_value=0.3, max_value=1.6))
    @settings(max_examples=15, deadline=None)
    def test_small_table_mass_and_gram(self, r):
        table = build_schmidt_table(OpaParams(squeeze_r=r), n_max=6)
        mass = float(np.sum(table.coeffs[:, 0] ** 2))
        assert 1.0 - 2.0 * table.tail_bound <= mass <= 1.0 + 1e-13
        gram = table.coeffs.T @ table.coeffs
        assert np.max(np.abs(gram - np.eye(7))) < 1e-6


class TestLogFactorials:
    def test_bit_identical_to_gammaln_over_the_whole_domain(self):
        # _coeff_matrix indexes log(n!) for n up to HARD_PAIR_CAP + 1
        table = tmsq._log_factorials()
        want = gammaln(np.arange(tmsq.HARD_PAIR_CAP + 2, dtype=np.float64) + 1.0)
        assert table.shape == want.shape
        assert table.dtype == np.float64
        assert np.array_equal(table.view(np.int64), want.view(np.int64))

    def test_built_once_and_read_only(self):
        table = tmsq._log_factorials()
        build_schmidt_table(OpaParams.from_mean_photons(2.0), n_max=6)
        assert tmsq._log_factorials() is table
        assert not table.flags.writeable

    def test_not_built_at_import(self):
        probe = (
            "import su11sim.cli, su11sim.tmsq as t; "
            "print(t._log_factorials.cache_info().currsize == 0)"
        )
        src = os.path.dirname(os.path.dirname(tmsq.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.strip() == "True"
