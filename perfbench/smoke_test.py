"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke_test.py

It runs every workload at tiny size with tracing off and on, and checks that
the result line has the contract's keys, that the metric names and units are
exactly those in BENCHMARK.json, and that the tiny outputs match the recorded
reference. It then corrupts one reference value and checks that the run
reports output_ok = 0 and correct = false, checks that a process and a thread
left running are found (which fails a call), and finally runs the benchmark in
a directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result. Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import run

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")


def bench_run(workload: str, trace: int, *extra: str, cwd: str = run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def last_two(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(BENCH) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workloads match run.py")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = bench_run(workload, trace)
            tag = f"{workload} trace={trace}"
            if out.returncode != 0:
                check(False, f"{tag}: exit {out.returncode}: {out.stderr.strip()[-300:]}")
                continue
            detail, result = last_two(out)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: metric names and units match BENCHMARK.json")
            check(detail["output_ok"] == 1 and detail["output_identical"] == 1,
                  f"{tag}: outputs match the reference")

    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    cell = ref["workloads"]["optimal_campaign"]["tiny"]["seeds"]["7"]["digest"]["cells"][0]
    cell[0] *= 1.001
    os.makedirs(run.WORK, exist_ok=True)
    corrupt = os.path.join(run.WORK, "corrupt_reference.json")
    with open(corrupt, "w") as fh:
        json.dump(ref, fh)
    out = bench_run("optimal_campaign", 0, "--reference", corrupt)
    detail, result = last_two(out)
    check(out.returncode == 0 and detail["output_ok"] == 0 and not result["correct"]
          and result["failed"] == result["attempted"],
          "corrupted reference value: output_ok = 0, correct = false, every trial failed")

    stray = subprocess.Popen(
        [sys.executable, "-c", "import subprocess, sys, threading, time; "
         "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
         "threading.Thread(target=time.sleep, args=(60,), daemon=True).start(); "
         "print(flush=True); time.sleep(60)"],
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        stray.stdout.readline()
        found = run.leftovers(stray.pid)
    finally:
        os.killpg(stray.pid, signal.SIGKILL)
        stray.wait()
        stray.stdout.close()
    check(any(f.startswith("process") for f in found) and any(f.endswith("threads") for f in found),
          f"a process and a thread left running are found: {found}")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, bare)
    out = bench_run("optimal_campaign", 0, cwd=bare)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "without the sources: nonzero exit and no result line")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
