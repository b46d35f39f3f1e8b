"""Pinned SHA-256 digests of seeded CLI artifacts.

Every seeded JSON/CSV must stay byte-identical for a given (config, seed)
unless a change means to move it. These small runs cover the three step
loops (some trials cross the engine's uniform-chunk boundary), two grid
sizes whose table builds end in a lone offset or a 129-offset chunk, a
two-cell campaign with both CSVs and a threshold scan. An intended change to
any artifact re-records them and says why.

The bytes depend on the platform, so the digests pin one: they were
recorded with NumPy 2.4.6 running its AVX512 loops (X86_V4 found) and
OpenBLAS 0.3.31, a DYNAMIC_ARCH build, on its SkylakeX kernel. Elsewhere
cases fail though the program is not at fault: 3 of 7 under the Haswell
kernel, 6 of 7 under Prescott or with NumPy's AVX512 loops off.
"""
import hashlib

import pytest

from su11sim.cli import main

_RUN = ["run", "--phi-true", "0.75", "--mean-photons", "4", "--grid-points", "512", "--seed", "11"]
_RUN_1 = ["run", "--phi-true", "0.75", "--mean-photons", "4", "--seed", "11"]

_CASES = {
    "run_fixed": (
        _RUN + ["--protocol", "fixed", "--theta", "0.7", "--measurements", "150"],
        ("--out", "--trajectory-out"),
    ),
    "run_ladder": (
        _RUN + ["--protocol", "ladder", "--pre-rounds", "40", "--measurements", "150"],
        ("--out", "--trajectory-out"),
    ),
    "run_optimal": (
        _RUN + ["--protocol", "optimal", "--measurements", "300"],
        ("--out", "--trajectory-out"),
    ),
    "ensemble": (
        [
            "ensemble", "--protocol", "ladder", "--phi-true", "0.3,0.75", "--mean-photons", "4",
            "--trials", "5", "--measurements", "300", "--pre-rounds", "40",
            "--grid-points", "256", "--seed", "5",
        ],
        ("--out", "--cells-csv", "--trials-csv"),
    ),
    # 1025 and 1153 grid points put 1025 and 1153 offsets into the table
    # build: a lone last offset and a 129-offset last chunk (see
    # measurement.outcome_probabilities)
    "run_grid_1025": (
        _RUN_1
        + ["--grid-points", "1025", "--protocol", "ladder", "--pre-rounds", "40", "--measurements", "150"],
        ("--out", "--trajectory-out"),
    ),
    "run_grid_1153": (
        _RUN_1 + ["--grid-points", "1153", "--protocol", "optimal", "--measurements", "300"],
        ("--out", "--trajectory-out"),
    ),
    "threshold": (
        [
            "threshold", "--thetas", "0.65,0.7", "--phi-true", "0.75", "--mean-photons", "4",
            "--trials", "3", "--max-measurements", "120", "--grid-points", "256", "--seed", "3",
        ],
        ("--out",),
    ),
}

_DIGESTS = {
    "ensemble": {
        "--out": "31c7b90e3eef7f58fe8fab0335dfae0eec6b89eeb8c72067180ae7dd20e4ef49",
        "--cells-csv": "fbde28287c5860e29310753fd374f75b3cdb87d2b3d1c469d667203fa1a133b9",
        "--trials-csv": "7e4fc884a216a5096de0766dc6e36ffbe0e49e7e59872ebeece7e3a558641233",
    },
    "run_fixed": {
        "--out": "394d27faf08574ba57fbeed535e6888f75e27286265cd2fba2c04873caca4900",
        "--trajectory-out": "c5e9a0a5338fe5c6ff11bb460c57a428090c71c8b27d7165750a0067b3c28e81",
    },
    "run_ladder": {
        "--out": "0edc4bbb3367c78d5b762f5915cab3df1b79905287a463aa90b31a39cfd8036e",
        "--trajectory-out": "4e0e65eb1e3ca61dcdc951691b3fc2cd0fb59bfab1de45d4d92b59a9d5e7428a",
    },
    "run_optimal": {
        "--out": "bbccb3aec5961220e4e1d378ba6a1c56667ff77ef57be4d14b41c29197c265ab",
        "--trajectory-out": "b311b076504135fc1cc349d867b7762eaa82025db9bf5087e144c417cc46a4b7",
    },
    "run_grid_1025": {
        "--out": "33f133708f2b3d6e655a67cfba54d99c329569ded4bc6df05ac47d940d3caa21",
        "--trajectory-out": "c402322f3cef6000b65ab5dc03d80d7cbdd20932e824447ea3983c1a3545f0c8",
    },
    "run_grid_1153": {
        "--out": "530713bd21ef86a39c8a0d6557c4b5b4c4338994f4d233046ba7705d898a2843",
        "--trajectory-out": "6fa88f09a1970160667761917d7c1393e6160df0495974ff1ebbe5e2fbebb600",
    },
    "threshold": {
        "--out": "c6a902e319e151b4e0f2c1cb9f10a5e3d8348a015cb7c7c7804931b3344b65fa",
    },
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_seeded_artifacts_match_pinned_digests(case, tmp_path, capsys):
    argv, outputs = _CASES[case]
    paths = [tmp_path / f"{case}{flag}" for flag in outputs]
    code = main(argv + [arg for flag, p in zip(outputs, paths) for arg in (flag, str(p))])
    capsys.readouterr()
    assert code == 0
    got = {flag: hashlib.sha256(p.read_bytes()).hexdigest() for flag, p in zip(outputs, paths)}
    assert got == _DIGESTS[case]
