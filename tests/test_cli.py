"""Command-line interface tests, run in-process through main()."""
import argparse
import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import su11sim
from su11sim import make_model, outcome_of_code, outcome_probabilities
import su11sim.cli as cli
from su11sim.cli import build_parser, main


# the retired protocol settings, each written at its one value
PROTOCOL_ECHOES = {
    "initial_theta": None,
    "peak_min_separation": 0.02,
    "peak_height_floor": 0.1,
    "rival_height_ratio": 0.5,
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimits:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            ["limits", "--mean-photons", "4", "--measurements", "1000"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["qcrb"] == pytest.approx(4.1666666666666665e-05)
        assert payload["heisenberg"] == pytest.approx(6.25e-05)
        assert payload["shot_noise"] == pytest.approx(2.5e-04)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "limits.json"
        code, out, _ = run_cli(
            ["limits", "--mean-photons", "4", "--measurements", "10", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["qcrb"] == pytest.approx(1.0 / 240.0)


class TestLikelihood:
    def test_csv_columns_and_tail_row(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            [
                "likelihood", "--scheme", "photon", "--mean-photons", "4",
                "--points", "11", "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("# su11sim/likelihood-curves/v1 version=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "delta_phi,outcome,probability"
        labels = {row.split(",")[1] for row in lines[3:]}
        assert "pair:0" in labels
        assert "tail" in labels

    def test_probabilities_sum_to_one_per_offset(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        run_cli(
            [
                "likelihood", "--scheme", "optimal", "--mean-photons", "2",
                "--points", "7", "--out", str(target),
            ],
            capsys,
        )
        sums: dict[str, float] = {}
        for row in target.read_text().splitlines()[3:]:
            u, _, p = row.split(",")
            sums[u] = sums.get(u, 0.0) + float(p)
        assert len(sums) == 7
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("scheme", ("photon", "optimal"))
    @pytest.mark.parametrize("points", (7, 2500))
    def test_rows_equal_outcome_probabilities(self, scheme, points, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            [
                "likelihood", "--scheme", scheme, "--mean-photons", "4",
                "--points", str(points), "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        model = make_model(scheme, 4.0)
        offsets = np.linspace(-np.pi, np.pi, points)
        want = outcome_probabilities(model, offsets)
        labels = [outcome_of_code(model.scheme, c).label() for c in range(model.n_max + 1)]
        rows = [line.split(",") for line in target.read_text().splitlines()[3:]]
        assert len(rows) == points * (model.n_max + 2)
        for i, u in enumerate(offsets):
            block = rows[i * (model.n_max + 2) : (i + 1) * (model.n_max + 2)]
            assert all(float(r[0]) == u for r in block)
            assert [r[1] for r in block] == labels + ["tail"]
            assert [float(r[2]) for r in block[:-1]] == list(want[i])

    def test_amplitude_blocks_bound_the_memory(self):
        # one product over every offset would need a 2500 x (p_max + 1)
        # complex phase matrix at nbar = 32, about 147 MB; the 128-row blocks
        # take about 8 MB, and the output a few hundred kB more
        model = make_model("photon", 32)
        offsets = np.linspace(-np.pi, np.pi, 2500)
        tracemalloc.start()
        try:
            outcome_probabilities(model, offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "offsets", (["--lo", "nan"], ["--lo", "inf"], ["--hi", "nan"], ["--hi=-inf"])
    )
    def test_non_finite_offsets_exit_one(self, offsets, capsys):
        code, out, err = run_cli(
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", "--points", "3", *offsets],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--lo" in err and "--hi" in err

    @pytest.mark.parametrize(
        "offsets",
        [
            ["--lo=-1e308", "--hi=1e308", "--points", "3"],  # hi - lo overflows
            ["--lo=-1e308", "--hi=1e308", "--points", "0"],
            ["--lo=1e306", "--hi=1e306", "--points", "1"],  # p_max * offset overflows
            ["--lo=0", "--hi=-1.7976931348623157e308", "--points", "2"],
        ],
    )
    def test_overflowing_offsets_exit_one(self, offsets, capsys):
        code, out, err = run_cli(
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", *offsets], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "--lo" in err and "--hi" in err

    def test_only_the_offsets_taken_must_stay_in_range(self, capsys):
        # one point is lo alone, so a huge hi is never turned into a phase
        code, out, err = run_cli(
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", "--lo=0.5",
             "--hi=1.7e308", "--points", "1", "--n-max", "2"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert [row.split(",")[0] for row in out.splitlines()[3:]] == ["0.5"] * 4

    def test_negative_points_exit_one(self, capsys):
        code, out, err = run_cli(
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", "--points", "-1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--points" in err
        assert "Number of samples" not in err


class TestRun:
    def test_record_and_trajectory(self, tmp_path, capsys):
        rec_path = tmp_path / "trial.json"
        traj_path = tmp_path / "trial.csv"
        code, _, _ = run_cli(
            [
                "run", "--protocol", "optimal", "--phi-true", "0.75",
                "--mean-photons", "4", "--measurements", "40",
                "--seed", "11", "--out", str(rec_path),
                "--trajectory-out", str(traj_path),
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(rec_path.read_text())
        assert record["schema"] == "su11sim/trial/v1"
        assert record["seed"] == 11
        assert len(record["steps"]) == 40
        lines = traj_path.read_text().splitlines()
        assert lines[2] == "step,theta,outcome,map"
        assert len(lines) == 3 + 40

    def test_fixed_mode_requires_theta(self, capsys):
        code, _, err = run_cli(
            [
                "run", "--protocol", "fixed", "--phi-true", "0.75",
                "--mean-photons", "4", "--measurements", "10",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            code, _, _ = run_cli(
                [
                    "run", "--protocol", "ladder", "--phi-true", "0.75",
                    "--mean-photons", "4", "--measurements", "150",
                    "--pre-rounds", "30", "--seed", "3", "--out", str(p),
                ],
                capsys,
            )
            assert code == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# the flags each mode does not read, each with a value its own mode would
# take; --pre-rounds 100 and --final-fraction 0.93 are their defaults
_FOREIGN_FLAGS = {
    "fixed": [("--pre-rounds", "30"), ("--ramp-cap", "0.4"), ("--final-fraction", "0.93")],
    "ladder": [("--theta", "0.7")],
    "optimal": [("--theta", "0.7"), ("--pre-rounds", "100"), ("--ramp-cap", "0.4"),
                ("--final-fraction", "0.93")],
}


@pytest.mark.parametrize("command", ["run", "ensemble"])
@pytest.mark.parametrize(
    "mode, flag",
    [(mode, flag) for mode, flags in _FOREIGN_FLAGS.items() for flag in flags],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_a_flag_the_mode_does_not_read_is_a_usage_error(command, mode, flag, capsys):
    own = ["--theta", "0.7"] if mode == "fixed" else []
    argv = [command, "--protocol", mode, "--phi-true", "0.75", "--mean-photons", "4",
            "--measurements", "20", *own, *flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{command}: --protocol {mode} does not read {flag[0]} " in err


class TestEnsembleCommand:
    def test_campaign_json_and_csvs(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        cells = tmp_path / "cells.csv"
        trials = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            [
                "ensemble", "--protocol", "optimal", "--phi-true", "0.5,0.75",
                "--mean-photons", "4", "--trials", "3", "--measurements", "50",
                "--out", str(out), "--cells-csv", str(cells),
                "--trials-csv", str(trials),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "su11sim/campaign/v1"
        assert len(payload["cells"]) == 2
        assert payload["config"]["master_seed"] == 7
        cell_lines = cells.read_text().splitlines()
        assert cell_lines[2].startswith("cell_index,phi_true,")
        assert len(cell_lines) == 3 + 2
        trial_lines = trials.read_text().splitlines()
        assert "rival_ratio" in trial_lines[2]
        assert len(trial_lines) == 3 + 6

    def test_artifacts_identical_for_one_and_two_workers(self, tmp_path, capsys):
        # two cells of 17 trials, run in one process and then spread over two workers
        artifacts = {}
        for workers in (1, 2):
            paths = [tmp_path / f"w{workers}_{name}" for name in ("c.json", "cells.csv", "trials.csv")]
            code, _, _ = run_cli(
                [
                    "ensemble", "--protocol", "ladder", "--phi-true", "0.3,0.75",
                    "--mean-photons", "4", "--trials", "17", "--measurements", "120",
                    "--pre-rounds", "30", "--workers", str(workers),
                    "--out", str(paths[0]), "--cells-csv", str(paths[1]),
                    "--trials-csv", str(paths[2]),
                ],
                capsys,
            )
            assert code == 0
            artifacts[workers] = [p.read_bytes() for p in paths]
        assert artifacts[1] == artifacts[2]
        assert len(artifacts[1][2].decode().splitlines()) == 3 + 2 * 17

    def test_config_file_round_trip(self, tmp_path, capsys):
        out1 = tmp_path / "flags.json"
        run_cli(
            [
                "ensemble", "--protocol", "optimal", "--phi-true", "0.75",
                "--mean-photons", "4", "--trials", "2", "--measurements", "30",
                "--out", str(out1),
            ],
            capsys,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(json.loads(out1.read_text())["config"]))
        out2 = tmp_path / "fromcfg.json"
        code, _, _ = run_cli(
            ["ensemble", "--config", str(cfg_path), "--out", str(out2)], capsys
        )
        assert code == 0
        assert out2.read_bytes() == out1.read_bytes()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--trials", "5"],
            ["--measurements", "50"],
            ["--mean-photons", "4"],  # its default value, still refused
            ["--protocol", "optimal"],
            ["--phi-true", "0.75"],
            ["--theta", "0.7"],
            ["--grid-points", "256"],
            ["--n-max", "16"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_campaign_flag_beside_config_is_a_usage_error(self, flag, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{}")  # never read: the usage error comes first
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--config", str(cfg_path), *flag, "--seed", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag[0]} cannot be given with --config" in err

    def test_label_flag_is_gone(self, capsys):
        # the campaign label is a fixed echo, no setting
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--phi-true", "0.75", "--label", "x"])
        assert exc.value.code == 2
        assert "--label" in capsys.readouterr().err

    def test_config_takes_seed_workers_and_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "protocol": {"mode": "optimal", "measurements": 30},
            "mean_photons": [4.0], "phi_true": [0.75], "trials": 2,
        }))
        paths = [tmp_path / name for name in ("c.json", "cells.csv", "trials.csv")]
        code, _, err = run_cli(
            ["ensemble", "--config", str(cfg_path), "--seed", "3", "--workers", "1",
             "--out", str(paths[0]), "--cells-csv", str(paths[1]), "--trials-csv", str(paths[2])],
            capsys,
        )
        assert (code, err) == (0, "")
        assert json.loads(paths[0].read_text())["config"]["master_seed"] == 3
        assert all(p.stat().st_size > 0 for p in paths[1:])

    @pytest.mark.parametrize("tail_tol", [1e-12, None], ids=["repeated", "omitted"])
    def test_config_may_repeat_or_omit_tail_tol(self, tail_tol, tmp_path, capsys):
        # campaign JSON echoes the one table tolerance; a config gets the same
        # campaign with that value or without the key (other values: below)
        argv = ["--protocol", "optimal", "--phi-true", "0.75", "--mean-photons", "4",
                "--trials", "2", "--measurements", "30"]
        flags_out = tmp_path / "flags.json"
        assert run_cli(["ensemble", *argv, "--out", str(flags_out)], capsys)[0] == 0
        config = json.loads(flags_out.read_text())["config"]
        assert config.pop("tail_tol") == 1e-12
        if tail_tol is not None:
            config["tail_tol"] = tail_tol
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "fromcfg.json"
        assert run_cli(["ensemble", "--config", str(cfg_path), "--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == flags_out.read_bytes()

    @pytest.mark.parametrize("keep", [True, False], ids=["repeated", "omitted"])
    @pytest.mark.parametrize("key", sorted(PROTOCOL_ECHOES))
    def test_config_may_repeat_or_omit_a_protocol_echo(self, key, keep, tmp_path, capsys):
        # campaign JSON echoes each retired protocol setting at its one value;
        # a config gets the same campaign with that value or without the key
        argv = ["--protocol", "fixed", "--theta", "0.7", "--phi-true", "0.75",
                "--mean-photons", "4", "--trials", "2", "--measurements", "30"]
        flags_out = tmp_path / "flags.json"
        assert run_cli(["ensemble", *argv, "--out", str(flags_out)], capsys)[0] == 0
        config = json.loads(flags_out.read_text())["config"]
        assert config["protocol"].pop(key) == PROTOCOL_ECHOES[key]
        if keep:
            config["protocol"][key] = PROTOCOL_ECHOES[key]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "fromcfg.json"
        assert run_cli(["ensemble", "--config", str(cfg_path), "--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == flags_out.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("initial_theta", 0.3),
            ("initial_theta", 1.5707963267948966),  # the midpoint it starts at is no setting either
            ("peak_height_floor", 0.0),
            ("peak_height_floor", 0.25),
            ("peak_min_separation", 0.0),
            ("peak_min_separation", float("nan")),
            ("rival_height_ratio", 1.0),
            ("rival_height_ratio", None),
        ],
    )
    def test_config_with_another_echo_value_exits_one(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "protocol": {"mode": "optimal", "measurements": 1000, key: value},
                    "mean_photons": [4.0],
                    "phi_true": [0.75],
                    "trials": 8,
                }
            )
        )
        code, out, err = run_cli(["ensemble", "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "")
        want = f"error: {key} must be {PROTOCOL_ECHOES[key]!r}, got {value!r}\n"
        assert err == want

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda c: c["protocol"].update(bogus=1), "bogus"),
            (lambda c: c.pop("protocol"), "protocol"),
            (lambda c: c.update(mean_photons=4), "mean_photons"),
            (lambda c: c.update(trials=True), "trials"),
            (lambda c: c["protocol"].update(mode="fixed", fixed_theta="0.7"), "fixed_theta"),
            (lambda c: c.update(tail_tol="x"), "tail_tol"),
            (lambda c: c["protocol"].update(pre_rounds="x"), "pre_rounds"),
            (lambda c: c["protocol"].update(mode="fixed", fixed_theta=0.7, pre_rounds=[1]), "pre_rounds"),
            (lambda c: c["protocol"].update(pre_rounds=30), "pre_rounds is not read"),
            (lambda c: c["protocol"].update(mode="ladder", fixed_theta=0.7), "fixed_theta is not read"),
            (lambda c: c.update(label=5), "label"),
            (lambda c: c.update(label={"a": 1}), "label"),
            (lambda c: c.update(label="x"), "label must be ''"),
            (lambda c: c.update(residual_policy="renormalize"), "residual_policy"),
            (lambda c: c.update(tail_tol=1e-8), "tail_tol must be 1e-12"),
            (lambda c: c.update(tail_tol=True), "tail_tol must be 1e-12"),
        ],
        ids=[
            "unknown-protocol-key", "no-protocol", "scalar-mean-photons", "bool-trials",
            "string-fixed-theta", "string-tail-tol", "string-pre-rounds-optimal",
            "list-pre-rounds-fixed", "foreign-pre-rounds-optimal", "foreign-fixed-theta-ladder",
            "int-label", "object-label", "text-label", "renormalize-policy",
            "loose-tail-tol", "bool-tail-tol",
        ],
    )
    def test_malformed_config_exits_one_naming_the_key(self, edit, named, tmp_path, capsys):
        config = {
            "protocol": {"mode": "optimal", "measurements": 20},
            "mean_photons": [4.0],
            "phi_true": [0.75],
            "trials": 2,
        }
        edit(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_cli(["ensemble", "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("via", ("flag", "config"))
    def test_n_max_beyond_pair_cap_exits_one(self, via, tmp_path, capsys):
        # refused before any table build, which at this depth would take minutes
        argv = ["ensemble", "--protocol", "optimal", "--phi-true", "0.75", "--trials", "2",
                "--measurements", "20", "--n-max", "5000"]
        if via == "config":
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({
                "protocol": {"mode": "optimal", "measurements": 20},
                "mean_photons": [4.0], "phi_true": [0.75], "trials": 2, "n_max": 5000,
            }))
            argv = ["ensemble", "--config", str(cfg_path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "n_max 5000" in err

    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps([{"protocol": {"mode": "optimal"}}]))
        code, out, err = run_cli(["ensemble", "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "JSON object" in err


class TestThresholdCommand:
    def test_scan_json(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, _, _ = run_cli(
            [
                "threshold", "--thetas", "0.55,0.65", "--phi-true", "0.75",
                "--mean-photons", "4", "--trials", "4",
                "--max-measurements", "150", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "su11sim/threshold-scan/v1"
        assert [r["theta"] for r in payload["rows"]] == [0.55, 0.65]

    def test_scan_rows_are_pinned(self, tmp_path, capsys):
        # integers and the input thetas only, so no machine dependence
        out = tmp_path / "scan.json"
        code, _, _ = run_cli(
            [
                "threshold", "--thetas", "0.6,0.72,0.74", "--phi-true", "0.75",
                "--mean-photons", "4", "--trials", "5", "--max-measurements", "80",
                "--grid-points", "512", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["rows"] == [
            {"censored": 0, "median": 9, "q25": 7, "q75": 11, "theta": 0.6, "trials": 5},
            {"censored": 2, "median": 73, "q25": 41, "q75": None, "theta": 0.72, "trials": 5},
            {"censored": 5, "median": None, "q25": None, "q75": None, "theta": 0.74, "trials": 5},
        ]


class TestVerifyCommand:
    def test_fast_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code, _, err = run_cli(["verify", "--fast", "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert "PASS" in err
        assert "FAIL" not in err


SEEDED = ["run", "threshold", "ensemble-flags", "ensemble-config"]


def seeded_argv(command: str, tmp_path) -> list[str]:
    """A seeded command without --seed, writing its JSON to out.json."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "protocol": {"mode": "optimal", "measurements": 10},
                "mean_photons": [4.0],
                "phi_true": [0.75],
                "trials": 1,
            }
        )
    )
    common = ["--phi-true", "0.75", "--mean-photons", "4"]
    argv = {
        "run": ["run", "--protocol", "optimal", "--measurements", "10", *common],
        "threshold": ["threshold", "--thetas", "0.7", "--trials", "1", *common],
        "ensemble-flags": ["ensemble", "--trials", "1", "--measurements", "10", *common],
        "ensemble-config": ["ensemble", "--config", str(cfg_path)],
    }[command]
    return [*argv, "--out", str(tmp_path / "out.json")]


class TestSeedsAndErrors:
    @pytest.mark.parametrize("command", SEEDED)
    def test_env_seed_without_flag_is_a_usage_error(self, command, tmp_path, capsys, monkeypatch):
        # the seed comes from --seed alone, so a run that once read SU11_SEED
        # stops instead of changing its seed unannounced
        monkeypatch.setenv("SU11_SEED", "99")
        with pytest.raises(SystemExit) as exc:
            main(seeded_argv(command, tmp_path))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "SU11_SEED" in err and "--seed" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", SEEDED)
    def test_env_seed_beside_flag_changes_no_byte(self, command, tmp_path, capsys, monkeypatch):
        argv = [*seeded_argv(command, tmp_path), "--seed", "99"]
        out = tmp_path / "out.json"
        monkeypatch.setenv("SU11_SEED", "5")
        assert run_cli(argv, capsys)[0] == 0
        with_env = out.read_bytes()
        monkeypatch.delenv("SU11_SEED")
        assert run_cli(argv, capsys)[0] == 0
        assert out.read_bytes() == with_env

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", "--points", "5"],
            ["run", "--protocol", "optimal", "--phi-true", "0.75", "--mean-photons", "4"],
            ["ensemble", "--phi-true", "0.75"],
        ],
        ids=["likelihood", "run", "ensemble"],
    )
    def test_likelihood_has_no_residual_policy(self, argv, capsys):
        # sampling follows the one exact law, so no subcommand offers the flag
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--residual-policy", "renormalize"])
        assert exc.value.code == 2
        assert "--residual-policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["likelihood", "--scheme", "photon", "--mean-photons", "4", "--points", "5"],
            ["run", "--protocol", "optimal", "--phi-true", "0.75", "--mean-photons", "4"],
            ["ensemble", "--phi-true", "0.75"],
            ["threshold", "--thetas", "0.7", "--phi-true", "0.75", "--mean-photons", "4"],
        ],
        ids=["likelihood", "run", "ensemble", "threshold"],
    )
    def test_no_command_takes_a_tail_tol(self, argv, capsys):
        # every table closes to the one tolerance tmsq.TAIL_TOL
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tail-tol", "1e-12"])
        assert exc.value.code == 2
        assert "--tail-tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--protocol", "optimal", "--phi-true", "0.75", "--mean-photons", "4"],
            ["ensemble", "--phi-true", "0.75"],
        ],
        ids=["run", "ensemble"],
    )
    def test_no_command_takes_an_initial_theta(self, argv, capsys):
        # the optimal mode always starts at the grid midpoint
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--initial-theta", "0.3"])
        assert exc.value.code == 2
        assert "--initial-theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, tail",
        [
            ("threshold", "--thetas",
             ["--phi-true", "0.3", "--mean-photons", "4", "--trials", "1", "--max-measurements", "3"]),
            ("ensemble", "--phi-true",
             ["--mean-photons", "4", "--trials", "1", "--measurements", "3"]),
        ],
        ids=["threshold", "ensemble"],
    )
    def test_list_starting_negative_needs_the_equals_form(self, command, flag, tail, capsys):
        # argparse reads "-0.5,0.1" after a flag as another flag, not a value
        grid = ["--grid-lo=-1", "--grid-hi", "1", "--grid-points", "64"]
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "-0.5,0.1", *tail, *grid])
        assert exc.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        code, out, err = run_cli([command, f"{flag}=-0.5,0.1", *tail, *grid], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["schema"]

    @pytest.mark.parametrize(
        "argv",
        [
            # tanh^2 r rounds to 1
            "run --protocol optimal --phi-true 0.75 --mean-photons 1e17 --measurements 5",
            "likelihood --scheme optimal --mean-photons 1e300",
            # a variance limit outside the double range
            "limits --mean-photons 1e-160 --measurements 1000",
            "limits --mean-photons 1e-320 --measurements 1000",
            "limits --mean-photons 1e200 --measurements 1000",
            "ensemble --phi-true 0.75 --mean-photons 1e-160 --trials 2 --measurements 20 "
            "--grid-points 256",
            # grids wider than one period
            "run --protocol optimal --phi-true 0 --mean-photons 4 --grid-lo=-1e300 "
            "--grid-hi 1e300 --grid-points 64 --measurements 5",
            "run --protocol optimal --phi-true 0 --mean-photons 4 --grid-lo=-1e308 "
            "--grid-hi 1e308 --grid-points 64 --measurements 5",
        ],
        ids=["run-1e17", "likelihood-1e300", "limits-1e-160", "limits-1e-320", "limits-1e200",
             "ensemble-1e-160", "run-grid-1e300", "run-grid-1e308"],
    )
    def test_out_of_domain_input_exits_one_with_one_error_line(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_threshold_names_its_measurement_cap(self, capsys):
        code, out, err = run_cli(
            ["threshold", "--thetas", "0.7", "--phi-true", "0.75", "--mean-photons", "4",
             "--max-measurements", "0"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: max_measurements must be an integer >= 1, got 0\n"

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(
            ["limits", "--mean-photons", "-4", "--measurements", "10"], capsys
        )
        assert code == 1
        assert "error:" in err


class TestImportCost:
    # scipy.special alone was about two thirds of the CLI's start-up; no
    # command imports scipy, which is no runtime dependency
    @staticmethod
    def scipy_modules_after(probe: str) -> list[str]:
        src = os.path.dirname(os.path.dirname(su11sim.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        return json.loads(out.stdout.splitlines()[-1])

    def test_cli_import_loads_no_scipy(self):
        probe = (
            "import json, sys, su11sim.cli\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
        )
        assert self.scipy_modules_after(probe) == []

    def test_commands_load_no_scipy(self, tmp_path):
        small = ["--grid-points", "256", "--seed", "3"]
        calls = [
            ["run", "--protocol", "optimal", "--phi-true", "0.75", "--mean-photons", "2",
             "--measurements", "20", *small],
            ["ensemble", "--protocol", "ladder", "--phi-true", "0.75", "--mean-photons", "2",
             "--trials", "2", "--measurements", "20", "--pre-rounds", "10", "--workers", "1",
             *small],
            ["threshold", "--thetas", "0.7", "--phi-true", "0.75", "--mean-photons", "2",
             "--trials", "2", "--max-measurements", "20", *small],
            ["likelihood", "--scheme", "photon", "--mean-photons", "2", "--points", "5"],
            ["verify", "--fast"],
        ]
        calls = [[*argv, "--out", str(tmp_path / f"{i}.out")] for i, argv in enumerate(calls)]
        probe = (
            "import json, sys\n"
            "from su11sim.cli import main\n"
            f"codes = [main(argv) for argv in {calls!r}]\n"
            "assert codes == [0] * len(codes), codes\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
        )
        assert self.scipy_modules_after(probe) == []
        assert all((tmp_path / f"{i}.out").stat().st_size > 0 for i in range(len(calls)))


def unread_flags(parser: argparse.ArgumentParser, source: str) -> dict[str, list[str]]:
    """Per subcommand, the flags whose dest its func never reads as
    args.<dest>, in its own body or in a module-level function of source
    that it names, directly or indirectly (by AST)."""
    funcs = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }

    def reads(name: str) -> set[str]:
        found, seen, todo = set(), set(), [name]
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for node in ast.walk(funcs[fn]):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == "args":
                        found.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in funcs:
                    todo.append(node.id)
        return found

    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, sub in subparsers.choices.items():
        read = reads(sub.get_default("func").__name__)
        dead = [
            a.dest for a in sub._actions
            if not isinstance(a, argparse._HelpAction) and a.dest not in read
        ]
        if dead:
            unread[command] = dead
    return unread


class TestEveryFlagIsRead:
    def test_each_subcommand_reads_all_its_flags(self):
        assert unread_flags(build_parser(), Path(cli.__file__).read_text()) == {}

    def test_guard_sees_a_dead_flag_behind_a_helper(self):
        def _cmd_probe(args):
            raise AssertionError("never run")

        source = (
            "def _cmd_probe(args):\n"
            "    return _helper(args)\n"
            "def _helper(args):\n"
            "    return args.used\n"
            "def _unrelated(args):\n"
            "    return args.dead\n"
        )
        parser = argparse.ArgumentParser()
        probe = parser.add_subparsers().add_parser("probe")
        probe.add_argument("--used")
        probe.add_argument("--dead")
        probe.set_defaults(func=_cmd_probe)
        assert unread_flags(parser, source) == {"probe": ["dead"]}
