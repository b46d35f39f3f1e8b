"""Input-domain sweeps of `limits`, `likelihood`, `run`, `threshold` and
`ensemble`: each drawn input gives a clean result or a clean refusal.

A call exits 0 with output whose every number is a finite JSON number, or
exits 1 with one `error:` line on stderr; `threshold` and `ensemble`, whose
lists may start with a minus sign, may also be refused by argparse (exit 2). Anything
else (a traceback, a RuntimeWarning, which tier-1 turns into an error, or
Infinity/NaN in the output) fails the sweep. Mean photon numbers are drawn
log-uniform over [1e-300, 1e300], grid edges over +-1e300 and likelihood
offsets over every finite double, mixed with edges near the usual [0, pi).
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from su11sim import PhaseGrid
from su11sim.cli import main

_NBAR = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
# log-uniform over the whole range, or over the n-bar a table builds at
_NBAR_OR_BUILD = _NBAR | st.floats(-3.0, 1.7).map(lambda e: 10.0**e)
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
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
    own = {"fixed": [f"--theta={theta!r}"], "ladder": ["--pre-rounds", "1"], "optimal": []}
    _check_json([
        "run", "--protocol", protocol, f"--phi-true={phi!r}", "--mean-photons", repr(nbar),
        "--measurements", str(measurements), *own[protocol],
        f"--grid-lo={lo!r}", f"--grid-hi={hi!r}", "--grid-points", "64",
    ])


_POINTS_64 = PhaseGrid(n_points=64).points.tolist()
_PHI = st.one_of(
    st.sampled_from((0.75, _POINTS_64[1], _POINTS_64[-1], 0.0, math.pi)),
    st.floats(-7.0, 7.0),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)


@st.composite
def _theta_lists(draw, phi):
    """Comma-separated feedback phases: unsorted, repeated, at or past phi,
    on the first or last grid cell, at zero offset, or not numbers; half of
    them sorted into the increasing numbers below phi that a scan runs."""
    number = st.one_of(
        st.sampled_from((0.0, _POINTS_64[0], _POINTS_64[-1], phi, 0.5 * phi,
                         math.nextafter(phi, -math.inf))),
        st.floats(-1.0, 4.0),
    )
    token = st.sampled_from(("nan", "inf", "-inf", "x", "", " ", "1e999", "0x1p-2"))
    values = draw(st.lists(number | token, min_size=1, max_size=4))
    if draw(st.booleans()):
        values = sorted({v for v in values if isinstance(v, float) and v < phi}) or values
    return ",".join(v if isinstance(v, str) else repr(v) for v in values)


@seed(20)
@given(
    data=st.data(), phi=_PHI, trials=st.integers(0, 4), measurements=st.integers(0, 5),
    nbar=_NBAR_OR_BUILD,
)
@settings(_SWEEP, max_examples=200)
def test_threshold_sweep(data, phi, trials, measurements, nbar):
    thetas = data.draw(_theta_lists(phi), label="thetas")
    code, out, err = _call([
        "threshold", "--thetas", thetas, f"--phi-true={phi!r}", "--mean-photons", repr(nbar),
        "--trials", str(trials), "--max-measurements", str(measurements), "--grid-points", "64",
    ])
    if code == 2:  # argparse reads a list starting with "-" as a flag
        assert out == "" and thetas.startswith("-") and "argument --thetas" in err, err
    elif code == 0:
        json.loads(out, parse_constant=_no_constant)
    else:
        _check_refusal(code, out, err)


# the settings campaign JSON still writes at their one value: the protocol's
# and the campaign's
_PROTOCOL_ECHOES = ("initial_theta", "peak_min_separation", "peak_height_floor",
                    "rival_height_ratio")
_CAMPAIGN_ECHOES = ("residual_policy", "tail_tol", "label")
_GRIDS = ((0.0, math.pi), (-0.5 * math.pi, 0.5 * math.pi))


@st.composite
def _phase_lists(draw, lo, hi):
    """Comma-separated true phases: unsorted or repeated, on the first or
    last grid cell, at the edges, or anywhere near them."""
    spacing = (hi - lo) / 64
    edges = (lo, lo + spacing, 0.5 * (lo + hi), hi - spacing, math.nextafter(hi, lo), hi)
    number = st.sampled_from(edges) | st.floats(-7.0, 7.0)
    return ",".join(map(repr, draw(st.lists(number, min_size=1, max_size=4))))


def _edit_echoes(draw, config: dict) -> list[str]:
    """Keep, drop or change each echo key of a campaign config in place;
    the keys whose value changed, in the order from_dict checks them."""
    changed = []
    for key in _CAMPAIGN_ECHOES + _PROTOCOL_ECHOES:
        where = config if key in _CAMPAIGN_ECHOES else config["protocol"]
        old = where[key]
        action = draw(st.sampled_from(("keep", "drop", "change")), label=key)
        if action == "drop":
            del where[key]
        elif action == "change":
            where[key] = draw(st.sampled_from((0.3, 0.0, 1e-8, None, "x", True)), label=f"new {key}")
            if where[key] != old:  # a value equal to the echo (None for None) still loads
                changed.append(key)
    return changed


@seed(20)
@given(
    data=st.data(), mode=st.sampled_from(["fixed", "ladder", "optimal"]),
    grid=st.sampled_from(_GRIDS), nbars=st.lists(_NBAR_OR_BUILD, min_size=1, max_size=2),
    trials=st.integers(1, 3), measurements=st.integers(1, 5), equals_form=st.booleans(),
)
@_SWEEP
def test_ensemble_sweep(data, mode, grid, nbars, trials, measurements, equals_form):
    lo, hi = grid
    phis = data.draw(_phase_lists(lo, hi), label="phi_true")
    theta = data.draw(st.sampled_from((lo, 0.5 * (lo + hi))) | st.floats(-7.0, 7.0), label="theta")
    pre_rounds = data.draw(st.integers(1, 5), label="pre_rounds")
    phi_flag = [f"--phi-true={phis}"] if equals_form else ["--phi-true", phis]
    own = {"fixed": [f"--theta={theta!r}"], "ladder": ["--pre-rounds", str(pre_rounds)],
           "optimal": []}
    argv = [
        "ensemble", "--protocol", mode, *phi_flag,
        f"--mean-photons={','.join(map(repr, nbars))}", "--trials", str(trials),
        "--measurements", str(measurements), *own[mode],
        f"--grid-lo={lo!r}", f"--grid-hi={hi!r}", "--grid-points", "64", "--workers", "1",
    ]
    code, out, err = _call(argv)
    if code == 2:  # argparse reads a list starting with "-" as a flag
        assert out == "" and not equals_form and phis.startswith("-"), err
        assert "argument --phi-true" in err, err
        return
    if code != 0:
        _check_refusal(code, out, err)
        return
    result = json.loads(out, parse_constant=_no_constant)
    config = result["config"]
    changed = _edit_echoes(data.draw, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code, again, err = _call(["ensemble", "--config", str(path), "--workers", "1"])
    if changed:
        _check_refusal(code, again, err)
        assert err.startswith(f"error: {changed[0]} must be "), err
    else:
        assert (code, err) == (0, ""), err
        assert again == out
