"""Input-domain sweeps of `limits`, `likelihood` and `run`: each drawn input
gives a clean result or a clean refusal.

A call exits 0 with output whose every number is a finite JSON number, or
exits 1 with one `error:` line on stderr. Anything else (a traceback, a
RuntimeWarning, which tier-1 turns into an error, or Infinity/NaN in the
output) fails the sweep. Mean photon numbers are drawn log-uniform over
[1e-300, 1e300], grid edges over +-1e300 and likelihood offsets over every
finite double, mixed with edges near the usual [0, pi).
"""
import contextlib
import io
import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from su11sim.cli import main

_NBAR = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_EDGE = st.one_of(st.floats(-1e300, 1e300), st.floats(-7.0, 7.0), st.floats(-1e-300, 1e-300))
# offsets over the whole finite double range, where hi - lo and the table's
# phases p_max * offset overflow
_OFFSET = st.one_of(
    _EDGE, st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((1e306, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)),
)
_SWEEP = settings(max_examples=100, deadline=None, database=None)


def _no_constant(name):
    raise ValueError(f"{name} in output")


def _strict_number(text: str) -> float:
    value = json.loads(text, parse_constant=_no_constant)
    assert isinstance(value, (int, float)), text
    return value


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_refusal(code: int, out: str, err: str) -> None:
    assert code == 1, (code, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _check_json(argv: list[str]) -> None:
    code, out, err = _call(argv)
    if code == 0:
        json.loads(out, parse_constant=_no_constant)
    else:
        _check_refusal(code, out, err)


@seed(20)
@given(nbar=_NBAR, measurements=st.integers(1, 10**6))
@_SWEEP
def test_limits_sweep(nbar, measurements):
    _check_json(["limits", "--mean-photons", repr(nbar), "--measurements", str(measurements)])


@seed(20)
@given(
    scheme=st.sampled_from(["photon", "optimal"]), nbar=_NBAR, lo=_OFFSET, hi=_OFFSET,
    points=st.integers(0, 5),
)
@_SWEEP
def test_likelihood_sweep(scheme, nbar, lo, hi, points):
    code, out, err = _call([
        "likelihood", "--scheme", scheme, "--mean-photons", repr(nbar),
        f"--lo={lo!r}", f"--hi={hi!r}", "--points", str(points), "--n-max", "4",
    ])
    if code != 0:
        _check_refusal(code, out, err)
        return
    lines = out.splitlines()
    json.loads(lines[1].removeprefix("# config="), parse_constant=_no_constant)
    assert lines[2] == "delta_phi,outcome,probability"
    for row in lines[3:]:
        delta_phi, _, probability = row.split(",")
        _strict_number(delta_phi)
        assert 0.0 <= _strict_number(probability) <= 1.0, row


@st.composite
def _grid_phases(draw):
    """Sorted grid edges, then the true phase and the fixed feedback phase,
    each an edge, the midpoint or a draw near [0, pi)."""
    lo, hi = sorted(draw(st.lists(_EDGE, min_size=2, max_size=2, unique=True)))
    phase = st.sampled_from([lo, hi, 0.5 * lo + 0.5 * hi]) | st.floats(-7.0, 7.0)
    return lo, hi, draw(phase), draw(phase)


@seed(20)
@given(
    protocol=st.sampled_from(["fixed", "ladder", "optimal"]), nbar=_NBAR,
    grid_phases=_grid_phases(), measurements=st.integers(2, 4),
)
@_SWEEP
def test_run_sweep(protocol, nbar, grid_phases, measurements):
    lo, hi, phi, theta = grid_phases
    _check_json([
        "run", "--protocol", protocol, f"--phi-true={phi!r}", "--mean-photons", repr(nbar),
        "--measurements", str(measurements), f"--theta={theta!r}", "--pre-rounds", "1",
        f"--grid-lo={lo!r}", f"--grid-hi={hi!r}", "--grid-points", "64",
    ])
