"""Command-line interface tests, run in-process through main()."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import su11sim
import su11sim.measurement as measurement
from su11sim import make_model, outcome_of_code, outcome_probabilities
from su11sim.cli import main


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

    def test_amplitude_blocks_bounded_by_chunk(self, tmp_path, capsys, monkeypatch):
        # one matmul over every offset would need a points x (p_max + 1)
        # complex matrix: 100000 points at nbar = 32 is about 5.9 GB
        blocks = []
        real = measurement.pair_amplitude_matrix

        def spy(table, delta_phis):
            blocks.append(len(delta_phis))
            return real(table, delta_phis)

        monkeypatch.setattr(measurement, "pair_amplitude_matrix", spy)
        code, _, _ = run_cli(
            [
                "likelihood", "--scheme", "photon", "--mean-photons", "0.5",
                "--points", "2500", "--out", str(tmp_path / "curves.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert sum(blocks) == 2500
        assert max(blocks) <= measurement._CHUNK


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
        "field, value",
        [("peak_height_floor", 0.0), ("peak_min_separation", 0.0), ("peak_min_separation", float("nan"))],
    )
    def test_config_with_bad_peak_setting_exits_one(self, field, value, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "protocol": {"mode": "optimal", "measurements": 1000, field: value},
                    "mean_photons": [4.0],
                    "phi_true": [0.75],
                    "trials": 8,
                }
            )
        )
        code, out, err = run_cli(["ensemble", "--config", str(cfg_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err


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
            (lambda c: c.update(label=5), "label"),
            (lambda c: c.update(label={"a": 1}), "label"),
            (lambda c: c.update(residual_policy="renormalize"), "residual_policy"),
        ],
        ids=[
            "unknown-protocol-key", "no-protocol", "scalar-mean-photons", "bool-trials",
            "string-fixed-theta", "string-tail-tol", "string-pre-rounds-optimal",
            "list-pre-rounds-fixed", "int-label", "object-label", "renormalize-policy",
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


class TestSeedsAndErrors:
    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        out_env = tmp_path / "env.json"
        monkeypatch.setenv("SU11_SEED", "99")
        run_cli(
            [
                "run", "--protocol", "optimal", "--phi-true", "0.75",
                "--mean-photons", "4", "--measurements", "10", "--out", str(out_env),
            ],
            capsys,
        )
        monkeypatch.delenv("SU11_SEED")
        out_flag = tmp_path / "flag.json"
        run_cli(
            [
                "run", "--protocol", "optimal", "--phi-true", "0.75",
                "--mean-photons", "4", "--measurements", "10",
                "--seed", "99", "--out", str(out_flag),
            ],
            capsys,
        )
        assert json.loads(out_env.read_text())["seed"] == 99
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_bad_env_seed_is_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("SU11_SEED", "not-a-number")
        code, _, err = run_cli(
            [
                "run", "--protocol", "optimal", "--phi-true", "0.75",
                "--mean-photons", "4", "--measurements", "10",
            ],
            capsys,
        )
        assert code == 1
        assert "SU11_SEED" in err

    @pytest.mark.parametrize("command", ["run", "threshold", "ensemble-flags", "ensemble-config"])
    def test_empty_env_seed_is_reported_by_every_command(self, command, tmp_path, capsys, monkeypatch):
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
        monkeypatch.setenv("SU11_SEED", "")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert "SU11_SEED must be an integer" in err

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

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(
            ["limits", "--mean-photons", "-4", "--measurements", "10"], capsys
        )
        assert code == 1
        assert "error:" in err


class TestImportCost:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats alone costs about a second of start-up on every call
        probe = "import sys, su11sim.cli; print('scipy.stats' in sys.modules)"
        src = os.path.dirname(os.path.dirname(su11sim.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.strip() == "False"
