"""Smoke runs of the example scripts: tiny arguments, exit code and header."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "fixed_theta_demo.py": (
        ["--measurements", "60"],
        "fixed theta=0.7, phi_true=0.75, nbar=4.0, M=60, seed 7",
    ),
    "ladder_demo.py": (
        ["--measurements", "60", "--pre-rounds", "20"],
        "ladder, phi_true=0.75, nbar=4.0, M=60, M_r=20, seed 7",
    ),
    "scaling_sweep.py": (
        ["--mean-photons", "2,4", "--measurements", "60", "--trials", "2", "--workers", "1"],
        "nbar          mse        qcrb  mse/qcrb  heisenberg  shot noise",
    ),
    "threshold_table.py": (
        ["--max-measurements", "60", "--trials", "2"],
        "phi_true=0.75, nbar=4.0, 2 trials/theta, budget 60, seed 7",
    ),
    "variance_benchmark.py": (
        ["--measurements", "60", "--trials", "2", "--workers", "1"],
        "optimal protocol, nbar=4.0, M=60, 2 trials/phase, seed 7",
    ),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    args, header = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in [line.strip() for line in proc.stdout.splitlines()]
