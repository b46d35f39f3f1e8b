"""Command line front end.

Subcommands: limits, likelihood, run, ensemble, threshold, verify. Outputs
are deterministic JSON or CSV (no timestamps), every file embeds the
configuration that produced it, and the seed comes from --seed alone
(default 7), so the argv fixes every byte. The SU11_SEED environment
variable is not read: a seeded command run with it set and without --seed
exits 2. Exit codes: 0 success, 1 domain or validation failure, 2 usage
error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from ._version import __version__
from .analysis import benchmarks, quantum_fisher
from .checks import run_verify
from .ensemble import (
    CampaignConfig,
    CellStats,
    DEFAULT_MASTER_SEED,
    ThresholdRow,
    TrialSummary,
    run_campaign,
    threshold_scan,
)
from .errors import SU11Error
from .measurement import make_model, outcome_of_code, outcome_probabilities
from .posterior import PhaseGrid
from .protocols import (
    MODE_FIELDS,
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    ProtocolConfig,
    run_trial,
    scheme_for_mode,
)
from .tmsq import TAIL_TOL


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, schema: str, config: dict, header: list[str], rows) -> None:
    fh = sys.stdout if path is None else open(path, "w", newline="")
    try:
        fh.write(f"# {schema} version={__version__}\n")
        fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if path is not None:
            fh.close()


def _csv_cell(value):
    if value is None:
        return ""
    return value


def _write_records(path, schema: str, config: dict, cls, records) -> None:
    """CSV with one column per field of the dataclass cls, in field order."""
    header = [f.name for f in fields(cls)]
    rows = ([_csv_cell(getattr(r, k)) for k in header] for r in records)
    _write_csv(path, schema, config, header, rows)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise SU11Error(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _grid_from_args(args) -> PhaseGrid:
    return PhaseGrid(lo=args.grid_lo, hi=args.grid_hi, n_points=args.grid_points)


class _NoteFlag(argparse.Action):
    """argparse's plain store that also notes the flag on the namespace, so
    that a flag given at its default value still counts as given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.flags_given = [*getattr(namespace, "flags_given", []), self.option_strings[0]]


# with --config the file sets the campaign; only these ensemble flags apply
_BESIDE_CONFIG = ("--config", "--seed", "--workers", "--out", "--cells-csv", "--trials-csv")


def _add_seed_flag(parser, what: str) -> None:
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_MASTER_SEED, action=_NoteFlag,
        help=f"{what} (default {DEFAULT_MASTER_SEED})",
    )


def _add_grid_flags(parser) -> None:
    parser.add_argument("--grid-lo", type=float, default=0.0, help="grid lower edge (default 0)")
    parser.add_argument(
        "--grid-hi", type=float, default=math.pi, help="grid upper edge, exclusive (default pi)"
    )
    parser.add_argument(
        "--grid-points", type=int, default=4096, help="number of grid points (default 4096)"
    )


def _add_table_flags(parser) -> None:
    parser.add_argument(
        "--n-max", type=int, default=16, help="deepest tabulated pair count (default 16)"
    )


# The flags that fill ProtocolConfig: flag -> (field, type, what it sets).
# Only the flags given reach it, so every default is the dataclass's.
# --measurements is read in every mode, each other flag in the one mode
# whose MODE_FIELDS names its field.
_PROTOCOL_FLAGS = {
    "--measurements": ("measurements", int, "measurements per trial"),
    "--theta": ("fixed_theta", float, "feedback phase, required"),
    "--pre-rounds": ("pre_rounds", int, "rough-stage length"),
    "--ramp-cap": ("ramp_cap_fraction", float, "ramp cap as a fraction of the MAP"),
    "--final-fraction": ("final_fraction", float, "lock as a fraction of the rough MAP"),
}


def _add_protocol_flags(p) -> None:
    for flag, (field, kind, text) in _PROTOCOL_FLAGS.items():
        default = getattr(ProtocolConfig, field, None)
        if default is not None:
            text += f" (default {default})"
        modes = [mode for mode, names in MODE_FIELDS.items() if field in names]
        if modes:
            text = f"{modes[0]} mode only: {text}; another mode exits 2 on it"
        p.add_argument(flag, dest=field, type=kind, default=None, help=text)


def _cmd_limits(args) -> int:
    b = benchmarks(args.measurements, args.mean_photons)
    _emit_json(
        {
            "schema": "su11sim/limits/v1",
            "version": __version__,
            "mean_photons": b.mean_photons,
            "measurements": b.measurements,
            "quantum_fisher_per_shot": quantum_fisher(args.mean_photons),
            "qcrb": b.qcrb,
            "heisenberg": b.heisenberg,
            "shot_noise": b.shot_noise,
        },
        args.out,
    )
    return 0


def _cmd_likelihood(args) -> int:
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise SU11Error(f"--lo and --hi must be finite, got {args.lo!r} and {args.hi!r}")
    if not math.isfinite(args.hi - args.lo):
        raise SU11Error(f"--hi - --lo overflows: {args.hi!r} - {args.lo!r}")
    if args.points < 0:
        raise SU11Error(f"--points must be a nonnegative integer, got {args.points!r}")
    model = make_model(args.scheme, args.mean_photons, n_max=args.n_max)
    offsets = np.linspace(args.lo, args.hi, args.points)
    # the table's phases are m * offset for pair counts m up to p_max
    reach = float(np.abs(offsets).max(initial=0.0))
    if not math.isfinite(model.table.p_max * reach):
        raise SU11Error(
            f"--lo and --hi reach offset {reach!r}, whose phase {model.table.p_max} * {reach!r} "
            "overflows"
        )
    table = outcome_probabilities(model, offsets)
    labels = [outcome_of_code(model.scheme, c).label() for c in range(model.n_max + 1)]
    tail = 1.0 - table.sum(axis=1)
    config = {
        "scheme": model.scheme.value,
        "mean_photons": args.mean_photons,
        "n_max": args.n_max,
        "tail_tol": TAIL_TOL,
        "lo": args.lo,
        "hi": args.hi,
        "points": args.points,
    }
    rows = []
    for i, u in enumerate(offsets):
        for j, label in enumerate(labels):
            rows.append([float(u), label, float(table[i, j])])
        rows.append([float(u), "tail", float(max(tail[i], 0.0))])
    _write_csv(
        args.out,
        "su11sim/likelihood-curves/v1",
        config,
        ["delta_phi", "outcome", "probability"],
        rows,
    )
    return 0


def _protocol_fields(args) -> dict:
    """The ProtocolConfig fields that the protocol flags given set."""
    values = {
        "measurements": args.measurements,
        "fixed_theta": args.fixed_theta,
        "pre_rounds": args.pre_rounds,
        "ramp_cap_fraction": args.ramp_cap_fraction,
        "final_fraction": args.final_fraction,
    }
    return {field: v for field, v in values.items() if v is not None}


def _protocol_config_from_args(args, *, phi_true: float | None = None) -> ProtocolConfig:
    return ProtocolConfig(mode=args.protocol, phi_true=phi_true, **_protocol_fields(args))


def _cmd_run(args) -> int:
    config = _protocol_config_from_args(args, phi_true=args.phi_true)
    grid = _grid_from_args(args)
    model = make_model(scheme_for_mode(config.mode), args.mean_photons, n_max=args.n_max)
    record = run_trial(config, model, grid, args.seed)
    _emit_json(record.to_dict(), args.out)
    if args.trajectory_out is not None:
        rows = [
            [s.step, s.theta, s.outcome.label(), s.map_estimate] for s in record.steps
        ]
        _write_csv(
            args.trajectory_out,
            "su11sim/trajectory/v1",
            record.to_dict()["config"] | {"seed": args.seed},
            ["step", "theta", "outcome", "map"],
            rows,
        )
    return 0


def _cmd_ensemble(args) -> int:
    if args.config is not None:
        with open(args.config) as fh:
            config = CampaignConfig.from_dict(json.load(fh))
        if "--seed" in args.flags_given:
            config = replace(config, master_seed=args.seed)
    else:
        if args.phi_true is None:
            raise SU11Error("ensemble needs --phi-true (or --config)")
        protocol = _protocol_config_from_args(args)
        config = CampaignConfig(
            protocol=protocol,
            mean_photons=_parse_float_list(args.mean_photons_list),
            phi_true=_parse_float_list(args.phi_true),
            trials=args.trials,
            master_seed=args.seed,
            grid=_grid_from_args(args),
            n_max=args.n_max,
        )
    result = run_campaign(config, workers=args.workers)
    _emit_json(result.to_dict(), args.out)
    if args.cells_csv is not None:
        _write_records(args.cells_csv, "su11sim/campaign-cells/v1", config.to_dict(),
                       CellStats, result.cells)
    if args.trials_csv is not None:
        _write_records(args.trials_csv, "su11sim/campaign-trials/v1", config.to_dict(),
                       TrialSummary, result.trials)
    return 0


def _cmd_threshold(args) -> int:
    result = threshold_scan(
        _parse_float_list(args.thetas),
        phi_true=args.phi_true,
        mean_photons=args.mean_photons,
        trials=args.trials,
        max_measurements=args.max_measurements,
        master_seed=args.seed,
        grid=_grid_from_args(args),
        n_max=args.n_max,
    )
    _emit_json(result.to_dict(), args.out)
    if args.csv is not None:
        config = {k: v for k, v in result.to_dict().items() if k != "rows"}
        _write_records(args.csv, "su11sim/threshold-scan/v1", config, ThresholdRow, result.rows)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(fast=args.fast)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}: {check['detail']}", file=sys.stderr)
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11sim",
        description=(
            "Adaptive phase estimation in a vacuum-seeded twin-beam interferometer: "
            "exact likelihoods, Bayesian feedback protocols, quantum-limit benchmarks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"su11sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limits", help="print variance benchmarks for one configuration")
    p.add_argument("--mean-photons", type=float, required=True)
    p.add_argument("--measurements", type=int, required=True)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("likelihood", help="dump outcome probability curves to CSV")
    p.add_argument("--scheme", choices=["photon", "optimal"], required=True)
    p.add_argument("--mean-photons", type=float, required=True)
    p.add_argument("--lo", type=float, default=-math.pi, help="lowest offset (default -pi)")
    p.add_argument("--hi", type=float, default=math.pi, help="highest offset (default pi)")
    p.add_argument("--points", type=int, default=201, help="number of offsets (default 201)")
    _add_table_flags(p)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_likelihood)

    p = sub.add_parser("run", help="run a single seeded trial and print its record")
    p.add_argument("--protocol", choices=[MODE_FIXED, MODE_LADDER, MODE_OPTIMAL], required=True)
    p.add_argument("--phi-true", type=float, required=True)
    p.add_argument("--mean-photons", type=float, required=True)
    _add_seed_flag(p, "trial seed")
    _add_protocol_flags(p)
    _add_grid_flags(p)
    _add_table_flags(p)
    p.add_argument("--out", default=None, help="write the trial record JSON here")
    p.add_argument("--trajectory-out", default=None, help="write per-step CSV here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ensemble", help="run a seeded campaign over phase/photon cells")
    p.register("action", None, _NoteFlag)
    p.add_argument(
        "--config", default=None,
        help="campaign JSON; no other campaign flag but --seed may be given with it",
    )
    p.add_argument("--protocol", choices=[MODE_FIXED, MODE_LADDER, MODE_OPTIMAL], default=MODE_OPTIMAL)
    p.add_argument("--phi-true", default=None,
                   help="comma-separated true phases (a first negative needs --phi-true=-0.3,0.2)")
    p.add_argument(
        "--mean-photons",
        dest="mean_photons_list",
        default="4",
        help="comma-separated mean photon numbers (default 4; a first negative needs the = form)",
    )
    p.add_argument("--trials", type=int, default=100)
    _add_seed_flag(p, "master seed")
    _add_protocol_flags(p)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes that run cells, this one included; at most the usable CPUs",
    )
    _add_grid_flags(p)
    _add_table_flags(p)
    p.add_argument("--out", default=None, help="write campaign JSON here instead of stdout")
    p.add_argument("--cells-csv", default=None, help="write per-cell statistics CSV here")
    p.add_argument("--trials-csv", default=None, help="write per-trial estimates CSV here")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("threshold", help="scan ambiguity-breaking time over feedback phases")
    p.add_argument("--thetas", required=True,
                   help="comma-separated feedback phases (a first negative needs --thetas=-0.5,0.1)")
    p.add_argument("--phi-true", type=float, required=True)
    p.add_argument("--mean-photons", type=float, required=True)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--max-measurements", type=int, default=1000)
    _add_seed_flag(p, "master seed")
    _add_grid_flags(p)
    _add_table_flags(p)
    p.add_argument("--out", default=None, help="write scan JSON here instead of stdout")
    p.add_argument("--csv", default=None, help="write scan rows CSV here")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="run the self-verification battery")
    p.add_argument("--fast", action="store_true", help="smaller draw counts and coarser sweeps")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        stray = [f for f in getattr(args, "flags_given", []) if f not in _BESIDE_CONFIG]
        if stray:
            parser.error(
                f"ensemble: {stray[0]} cannot be given with --config, whose file sets the "
                "campaign (only --seed, --workers and the output flags apply)"
            )
    # the seed comes from --seed alone: a run that once read SU11_SEED stops
    # rather than change its seed unannounced
    seed_given = "--seed" in getattr(args, "flags_given", [])
    if hasattr(args, "seed") and not seed_given and "SU11_SEED" in os.environ:
        parser.error(
            f"{args.command}: SU11_SEED is set but no longer read; give the seed as --seed"
        )
    if args.command in ("run", "ensemble"):
        reads = {"measurements", *MODE_FIELDS[args.protocol]}
        foreign = _protocol_fields(args).keys() - reads
        if foreign:
            flag = next(f for f, (field, *_) in _PROTOCOL_FLAGS.items() if field in foreign)
            own = [f for f, (field, *_) in _PROTOCOL_FLAGS.items() if field in reads]
            parser.error(
                f"{args.command}: --protocol {args.protocol} does not read {flag} "
                f"(its protocol flags: {', '.join(own)})"
            )
    try:
        return args.func(args)
    except (SU11Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
