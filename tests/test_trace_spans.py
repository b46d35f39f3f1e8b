"""The benchmark's span tracer still finds every name it wraps.

perfbench/trace_spans.py patches su11sim functions at their import sites
(protocols.detect_peaks, ensemble.run_trial, LikelihoodGrid.log_row, ...).
A renamed or moved name breaks only traced benchmark runs, so a tiny traced
campaign runs here.
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
