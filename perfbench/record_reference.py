"""Record the reference outputs that run.py checks against.

Runs every workload once per seed 0-99 (full size) plus the tiny size at seed 7
for the smoke test, checks the invariants, and writes reference.json with
each run's artifact SHA-256 and the values the check compares: per-cell
mse/qcrb and median posterior variance, the count of trials whose MAP lies
within 0.01 of the true phase, and the threshold rows. Run it from the root
of a checkout at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run

FULL_SEEDS = list(range(100))


def record(workload: str, size: str, seeds: list[int]) -> dict:
    base = run.WORKLOADS[workload][size]
    workdir = os.path.join(run.WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    runner = run.Runner(time.monotonic() + run.RUN_BUDGET_S)
    entries = {}
    try:
        for seed in seeds:
            argv, paths = run.call_argv(base, seed, workdir)
            runner.deadline = time.monotonic() + run.RUN_BUDGET_S
            reply = runner.call(argv, paths, trace=False)
            problems: list[str] = []
            if reply["rc"] != 0:
                raise run.BenchError(f"{workload} seed {seed}: CLI exit code {reply['rc']}")
            if reply["leftovers"]:
                raise run.BenchError(f"{workload} seed {seed}: still running {reply['leftovers']}")
            digest = run.digest_outputs(base, paths, problems)
            if problems:
                raise run.BenchError(f"{workload} seed {seed}: {problems}")
            entries[str(seed)] = {"sha256": reply["sha256"], "digest": digest}
            print(f"{workload} {size} seed {seed}: {reply['wall_s']:.2f} s", file=sys.stderr)
    finally:
        runner.close()
    return {"argv": base, "seeds": entries}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=run.REFERENCE)
    args = p.parse_args()
    ref = {
        "recorded_at": {"git_commit": run.git_commit(), "src_sha256": run.source_sha256()},
        "rel_tol": run.REL_TOL,
        "workloads": {},
    }
    try:
        for name in run.WORKLOADS:
            ref["workloads"][name] = {
                "full": record(name, "full", FULL_SEEDS),
                "tiny": record(name, "tiny", [7]),
            }
    except run.BenchError as exc:
        print(f"record_reference: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
