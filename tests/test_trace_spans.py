"""The benchmark's span tracer still finds every name it wraps.

perfbench/trace_spans.py patches su11sim functions at their import sites
(protocols.detect_peaks, ensemble.run_trial, LikelihoodGrid.log_row, ...).
A renamed or moved name breaks only traced benchmark runs, so a tiny traced
campaign and a tiny traced threshold scan run here.
"""
from pathlib import Path

from su11sim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_ladder_campaign_records_end_of_trial_spans(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from trace_spans import Tracer

    argv = [
        "ensemble", "--protocol", "ladder", "--phi-true", "0.75", "--mean-photons", "4",
        "--trials", "3", "--measurements", "40", "--pre-rounds", "10",
        "--grid-points", "256", "--out", str(tmp_path / "campaign.json"),
    ]
    with Tracer() as tracer:
        code = main(argv)
    capsys.readouterr()
    assert code == 0
    # one end-of-trial report and one pair of moments per trial
    for name in ("posterior.detect_peaks", "posterior.posterior_mean", "posterior.posterior_variance"):
        assert tracer.calls[name] == 3, name


def test_traced_threshold_scan_records_one_model_build(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from trace_spans import Tracer

    argv = [
        "threshold", "--thetas", "0.6,0.7", "--phi-true", "0.75", "--mean-photons", "4",
        "--trials", "2", "--max-measurements", "20", "--grid-points", "256",
        "--out", str(tmp_path / "scan.json"),
    ]
    with Tracer() as tracer:
        code = main(argv)
    capsys.readouterr()
    assert code == 0
    # the scan's model is built in the campaign's cell runner, once for all thetas
    assert tracer.calls["ensemble.threshold_scan"] == 1
    assert tracer.calls["measurement.make_model"] == 1


def test_traced_campaign_books_the_table_pass_to_measurement(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from trace_spans import Tracer

    argv = [
        "ensemble", "--protocol", "optimal", "--phi-true", "0.5,0.75", "--mean-photons", "2,4",
        "--trials", "2", "--measurements", "20", "--grid-points", "256",
        "--out", str(tmp_path / "campaign.json"),
    ]
    with Tracer() as tracer:
        code = main(argv)
    capsys.readouterr()
    assert code == 0
    # one model and one table per n-bar, both tables from the one pass that
    # the campaign's cell runner makes through shared_grid_tables
    assert tracer.calls["measurement.make_model"] == 2
    assert tracer.calls["measurement.grid_build"] == 2
    assert tracer.calls["measurement.shared_grid_tables"] == 1
