"""Benchmark of the su11sim CLI: seeded campaign workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload optimal_campaign --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, as a table

Each workload is one `su11sim` CLI command line run through `su11sim.cli.main`
in a child process (runner.py) that imports the package once. With
``--trace 0`` the command is repeated until ``--seconds`` have been measured
and the end-to-end times are means over the calls. With ``--trace 1``
untraced and traced one-worker calls alternate, and the per-layer metrics come
from the spans that trace_spans.py records around the package's functions.

Every call's artifacts (the JSON/CSV files the CLI writes) are checked: the
exit code, invariants that hold for any seed, byte identity across the calls
of a run, and, where reference.json has an entry for the seed, the values
recorded at the seed commit. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_BUDGET_S = 170.0
MIN_CALLS = 2
SETUP_SAMPLES = 5
REL_TOL = 1e-6
# The speed probe's time at the reference CPU speed (speed_probe below).
PROBE_REF_S = 0.035
# Processes the speed probe runs in at once: the cores a workload may keep busy.
PROBE_PROCS = 2
# Largest share of a traced call's wall time that may lie outside its spans.
UNTRACED_TOL = 0.02
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Also for this process: the speed probe imports numpy here and forks.
os.environ.update(BLAS_ENV)

_OPTIMAL_4 = ["--protocol", "optimal", "--phi-true", "0.25,0.5,0.75,1.0", "--mean-photons", "4"]
_LADDER_1 = ["--protocol", "ladder", "--phi-true", "0.75", "--mean-photons", "4", "--pre-rounds"]
# theta = 0.74 is left out: its rival-onset step spreads over the whole
# budget, so the work of a call would swing with the seed (README.md).
_THRESHOLD = ["--thetas", "0.65,0.70,0.745", "--phi-true", "0.75", "--mean-photons", "4"]
_SWEEP = ["--protocol", "optimal", "--phi-true", "0.75", "--mean-photons"]

# Workload name -> {size: CLI argv without --seed and output flags}. The
# reasons for each choice are in README.md; trial counts are sized so one
# call takes 2-4 s on a 2-core machine.
WORKLOADS = {
    "optimal_campaign": {
        "full": ["ensemble", *_OPTIMAL_4, "--measurements", "1000", "--trials", "24", "--workers", "2"],
        "tiny": ["ensemble", *_OPTIMAL_4, "--measurements", "60", "--trials", "3", "--workers", "2"],
    },
    "ladder_cell": {
        "full": ["ensemble", *_LADDER_1, "100", "--measurements", "1000", "--trials", "64", "--workers", "2"],
        "tiny": ["ensemble", *_LADDER_1, "20", "--measurements", "60", "--trials", "3", "--workers", "2"],
    },
    "threshold_scan": {
        "full": ["threshold", *_THRESHOLD, "--max-measurements", "1000", "--trials", "3"],
        "tiny": ["threshold", *_THRESHOLD, "--max-measurements", "60", "--trials", "3"],
    },
    "nbar_sweep": {
        "full": ["ensemble", *_SWEEP, "0.5,1,2,4,8,16,24,32", "--measurements", "1000", "--trials", "2", "--workers", "2"],
        "tiny": ["ensemble", *_SWEEP, "0.5,2", "--measurements", "60", "--trials", "2", "--workers", "2"],
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "tmsq.build.calls": "count",
    "tmsq.build.s": "s",
    "tmsq.p_max": "pairs",
    "tmsq.self_s": "s",
    "measurement.grid.builds": "count",
    "measurement.grid.build_s": "s",
    "measurement.grid.bytes": "bytes",
    "measurement.sample.calls": "count",
    "measurement.sample.us": "us",
    "measurement.log_row.calls": "count",
    "measurement.log_row.us": "us",
    "measurement.log_row.tail_calls": "count",
    "measurement.self_s": "s",
    "posterior.detect_peaks.calls": "count",
    "posterior.detect_peaks.us": "us",
    "posterior.detect_peaks.share": "ratio",
    "posterior.rival_found_ratio": "ratio",
    "posterior.stats.us": "us",
    "posterior.prune.calls": "count",
    "posterior.self_s": "s",
    "protocols.trials": "count",
    "protocols.steps": "count",
    "protocols.trial_ms.p50": "ms",
    "protocols.trial_ms.tail": "ms",
    "protocols.trial_ms.tail_pct": "%",
    "protocols.step_self_us": "us",
    "protocols.self_s": "s",
    "ensemble.cells": "count",
    "ensemble.cell_s.max": "s",
    "ensemble.self_s": "s",
    "ensemble.core_utilization": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}

LAYERS = ("tmsq", "measurement", "posterior", "protocols", "ensemble", "cli")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, dead runner, bad reference)."""


# -- the CLI calls ---------------------------------------------------------

def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _count(text: str) -> int:
    return len([x for x in text.split(",") if x.strip()])


def trials_per_call(argv: list[str]) -> int:
    if argv[0] == "threshold":
        return _count(_flag(argv, "--thetas")) * int(_flag(argv, "--trials"))
    cells = _count(_flag(argv, "--phi-true")) * _count(_flag(argv, "--mean-photons"))
    return cells * int(_flag(argv, "--trials"))


def workers_of(argv: list[str]) -> int:
    return int(_flag(argv, "--workers")) if "--workers" in argv else 1


def one_worker(argv: list[str]) -> list[str]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


def call_seed(seed: int, i: int) -> int:
    """CLI master seed of a run's i-th call: the workload seed, then seeds derived
    from it, so that the calls of one run average over several inputs."""
    if i == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:4], "big")


def call_argv(argv: list[str], seed: int, workdir: str) -> tuple[list[str], list[str]]:
    """Full CLI argv with the seed and output files; also the artifact paths."""
    if argv[0] == "threshold":
        names = {"--out": "scan.json", "--csv": "scan.csv"}
    else:
        names = {"--out": "campaign.json", "--cells-csv": "cells.csv", "--trials-csv": "trials.csv"}
    full = list(argv) + ["--seed", str(seed)]
    paths = []
    for flag, name in names.items():
        path = os.path.join(workdir, name)
        full += [flag, path]
        paths.append(path)
    return full, paths


def runner_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _probe_loop(chunks: int = 20, steps: int = 100) -> float:
    """Seconds for 2000 steps of a fixed loop shaped like one trial step (a
    scalar draw, then add, max, shift, argmax and exp over 4096 points), as
    chunks times the median chunk: a chunk during which the process was not
    running (the host took the virtual CPU away) does not count, because a
    2 ms pause would lengthen this 35 ms probe far more than a 2 s call."""
    import numpy as np

    rng = np.random.default_rng(0)
    log_w = np.zeros(4096)
    dens = np.empty(4096)
    row = rng.random(4096) * -1e-3
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        for _ in range(steps):
            math.log1p(-rng.random())
            log_w += row
            log_w -= log_w.max()
            int(np.argmax(log_w))
            np.exp(log_w, out=dens)
        times.append(time.perf_counter() - t0)
    return chunks * statistics.median(times)


def speed_probe() -> list[float]:
    """A probe of CPU speed: the probe loop's time on each of the first
    PROBE_PROCS CPUs this process may use, all at once (this process on the
    first, a forked copy pinned to each other one), so that each core a
    workload may keep busy is timed. It never runs in a process that has run
    su11sim code."""
    allowed = os.sched_getaffinity(0)
    first, *others = sorted(allowed)[:PROBE_PROCS]
    readers, pids = [], []
    for cpu in others:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                os.sched_setaffinity(0, {cpu})
                os.write(w, repr(_probe_loop()).encode())
            finally:
                os._exit(0)
        os.close(w)
        readers.append(r)
        pids.append(pid)
    os.sched_setaffinity(0, {first})
    try:
        times = [_probe_loop()]
    finally:
        os.sched_setaffinity(0, allowed)
    for r, pid in zip(readers, pids):
        with os.fdopen(r) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return times


class Runner:
    """The child process that imports su11sim.cli once and runs CLI calls.

    The speed probe is timed before and after each call, once the runner is
    idle: a call after which the runner still has a second thread or a
    process in its group fails (see leftovers), so the probe never shares the
    machine with work the call left running.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        probe_before = speed_probe()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=runner_env(),
            cwd=ROOT,
            start_new_session=True,  # its pool workers share its process group
        )
        self._buf = b""
        try:
            self.hello = self._reply()
            self.hello["leftovers"] = leftovers(self.proc.pid)
        except BaseException:
            self.close()
            raise
        self.hello["probe_s"] = probe_before + speed_probe()

    def _reply(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(left, 0.0))
            if not ready:
                raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"runner exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, argv: list[str], artifacts: list[str], trace: bool) -> dict:
        cmd = {"argv": argv, "artifacts": artifacts, "trace": trace}
        probe_before = speed_probe()
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        with MemorySampler(self.proc.pid) as mem:
            reply = self._reply()
        reply["peak_rss_mb"] = mem.peak_mb()
        reply["leftovers"] = leftovers(self.proc.pid)
        reply["probe_s"] = probe_before + speed_probe()
        return reply

    def close(self) -> None:
        """End the runner: EOF on stdin lets it exit; one still busy is killed with its workers."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


# -- resident memory of the runner and its pool workers ----------------------

def _status_field(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _group(pid: int) -> list[int]:
    """The processes other than pid in the process group that pid leads."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name (field 2) may hold spaces; state, ppid and pgrp follow its ')'
        if int(stat.rsplit(")", 1)[1].split()[2]) == pid and int(entry) != pid:
            kids.append(int(entry))
    return kids


def leftovers(pid: int) -> list[str]:
    """What an idle runner still has running: extra threads, or processes in
    its group (pool workers that outlived the call, or children not reaped)."""
    found = [f"process {kid}" for kid in _group(pid)]
    threads = _status_field(pid, "Threads:")
    if threads > 1:
        found.append(f"{threads} threads")
    return found


class MemorySampler:
    """Polls VmHWM of the runner's process group while a call runs.

    Peak = runner's VmHWM + the sum of each pool worker's last seen VmHWM.
    Pool workers live for the whole call, so the last sample before they
    exit (at most one interval earlier) holds their peak.
    """

    INTERVAL_S = 0.1

    def __init__(self, pid: int):
        self.pid = pid
        self.child_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            for kid in _group(self.pid):
                kb = _status_field(kid, "VmHWM:")
                if kb:
                    self.child_kb[kid] = max(kb, self.child_kb.get(kid, 0))

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        return (_status_field(self.pid, "VmHWM:") + sum(self.child_kb.values())) / 1024.0


# -- output checks -----------------------------------------------------------

def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def digest_campaign(argv: list[str], paths: list[str], problems: list[str]) -> dict:
    with open(paths[0]) as fh:
        doc = json.load(fh)
    cells_csv, trials_csv = _read_csv(paths[1]), _read_csv(paths[2])
    n_cells = _count(_flag(argv, "--phi-true")) * _count(_flag(argv, "--mean-photons"))
    trials = int(_flag(argv, "--trials"))
    m = int(_flag(argv, "--measurements"))
    if doc.get("schema") != "su11sim/campaign/v1":
        problems.append(f"campaign schema {doc.get('schema')!r}")
    if doc["failures"]:
        problems.append(f"{len(doc['failures'])} failed trials")
    cells = doc["cells"]
    if len(cells) != n_cells or len(cells_csv) != n_cells:
        problems.append(f"expected {n_cells} cells, got {len(cells)} / {len(cells_csv)} in CSV")
    for c in cells:
        n = c["mean_photons"]
        limits = (1.0 / (m * n * (n + 2.0)), 1.0 / (m * n * n), 1.0 / (m * n))
        if not all(math.isclose(c[k], v, rel_tol=1e-12) for k, v in zip(("qcrb", "heisenberg", "shot_noise"), limits)):
            problems.append(f"cell {c['cell_index']}: limits differ from 1/(M n(n+2)), 1/(M n^2), 1/(M n)")
        if c["trials"] != trials or c["failures"] != 0:
            problems.append(f"cell {c['cell_index']}: trials/failures {c['trials']}/{c['failures']}")
        if not (math.isfinite(c["mse"]) and c["mse_ci_low"] <= c["mse"] <= c["mse_ci_high"] and c["mse"] > 0):
            problems.append(f"cell {c['cell_index']}: mse {c['mse']} outside its interval")
        if not c["median_posterior_variance"] > 0:
            problems.append(f"cell {c['cell_index']}: posterior variance not positive")
    if len(trials_csv) != n_cells * trials:
        problems.append(f"expected {n_cells * trials} trial rows, got {len(trials_csv)}")
    hits = rivals = 0
    for row in trials_csv:
        est, map_est = float(row["estimate"]), float(row["map_estimate"])
        if not (0.0 <= est < math.pi and 0.0 <= map_est < math.pi and float(row["posterior_variance"]) > 0):
            problems.append(f"trial row {row['cell_index']}/{row['trial_index']} out of range")
        phi = cells[int(row["cell_index"])]["phi_true"] if int(row["cell_index"]) < len(cells) else math.nan
        hits += abs(map_est - phi) <= 0.01
        rivals += float(row["rival_ratio"]) > 0.0
    return {
        "cells": [[c["mse"] / c["qcrb"], c["median_posterior_variance"]] for c in cells],
        "hits": hits,
        "rivals": rivals,
    }


def digest_threshold(argv: list[str], paths: list[str], problems: list[str]) -> dict:
    with open(paths[0]) as fh:
        doc = json.load(fh)
    rows_csv = _read_csv(paths[1])
    thetas = [float(x) for x in _flag(argv, "--thetas").split(",")]
    trials = int(_flag(argv, "--trials"))
    m = int(_flag(argv, "--max-measurements"))
    if doc.get("schema") != "su11sim/threshold-scan/v1":
        problems.append(f"scan schema {doc.get('schema')!r}")
    rows = doc["rows"]
    if [r["theta"] for r in rows] != thetas or len(rows_csv) != len(thetas):
        problems.append("scan rows do not match the requested thetas")
    for r in rows:
        n, censored = r["trials"], r["censored"]
        if n != trials or not 0 <= censored <= n:
            problems.append(f"theta {r['theta']}: trials/censored {n}/{censored}")
        for q, frac in (("q25", 0.25), ("median", 0.5), ("q75", 0.75)):
            # type-1 order statistic over values with censored ones sorted last
            if (r[q] is None) != (int(frac * (n - 1)) >= n - censored):
                problems.append(f"theta {r['theta']}: {q} inconsistent with {censored} censored")
            if r[q] is not None and not 1 <= r[q] <= m:
                problems.append(f"theta {r['theta']}: {q}={r[q]} outside [1, {m}]")
        present = [r[q] for q in ("q25", "median", "q75") if r[q] is not None]
        if present != sorted(present):
            problems.append(f"theta {r['theta']}: quartiles out of order")
    return {"rows": [[r["theta"], r["censored"], r["q25"], r["median"], r["q75"]] for r in rows]}


def digest_outputs(argv: list[str], paths: list[str], problems: list[str]) -> dict:
    try:
        if argv[0] == "threshold":
            return digest_threshold(argv, paths, problems)
        return digest_campaign(argv, paths, problems)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
        return {}


def _matches(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return got == want


def load_reference(path: str, workload: str, size: str, argv: list[str]) -> dict:
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference values: {exc}") from exc
    entry = ref["workloads"].get(workload, {}).get(size)
    if entry is None:
        return {}
    if entry["argv"] != argv:
        raise BenchError(f"{path} was recorded for other {workload} inputs: {entry['argv']}")
    return entry["seeds"]


def compare_reference(seeds: dict, seed: int, digest: dict, sha: str | None) -> tuple[int, int | None]:
    """(output_ok, output_identical); identical is None when the seed has no reference."""
    want = seeds.get(str(seed))
    if want is None:
        return 1, None
    ok = set(digest) == set(want["digest"]) and all(
        _matches(digest[k], want["digest"][k]) for k in want["digest"]
    )
    return int(ok), int(sha == want["sha256"])


# -- environment -------------------------------------------------------------

def source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "su11sim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def import_sample(deadline: float) -> dict:
    """A fresh interpreter's import of su11sim.cli: import_s, and the speed probe's
    probe_s timed before and after that interpreter runs."""
    probe_before = speed_probe()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "runner.py"), "--import-only"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=runner_env(), cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if out.returncode != 0:
        raise BenchError(f"importing su11sim.cli failed: {out.stderr.strip()[-500:]}")
    return dict(json.loads(out.stdout), probe_s=probe_before + speed_probe())


# -- one run -----------------------------------------------------------------

def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(traces: list[dict], walls: list[float], overhead: float,
                  utilization: float, output_bytes: int) -> tuple[dict, float]:
    """Per-layer metrics of the traced calls, and untraced_s: the traced wall
    time (timed by the runner outside the tracer) minus the layers' self times."""
    k = len(traces)
    spans: dict[str, list[int]] = {}
    for t in traces:
        for name, (calls, incl, own) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own

    def calls(name):
        return spans.get(name, [0, 0, 0])[0] / k

    def incl_s(name):
        return spans.get(name, [0, 0, 0])[1] / k / 1e9

    def self_s(name):
        return spans.get(name, [0, 0, 0])[2] / k / 1e9

    def per_call_us(name):
        c = spans.get(name, [0, 0, 0])
        return c[1] / c[0] / 1e3 if c[0] else 0.0

    layer_self = {
        layer: sum(self_s(n) for n in spans if n.split(".", 1)[0] == layer) for layer in LAYERS
    }
    wall = sum(walls) / k
    trial_ms = [ns / 1e6 for t in traces for ns in t["trial_ns"]]
    tail, tail_pct = _tail(trial_ms) if trial_ms else (0.0, 0.0)
    trials = len(trial_ms) / k
    steps = sum(t["steps"] for t in traces) / k
    builds = calls("measurement.grid_build")
    peaks = calls("posterior.detect_peaks")
    stats_s = sum(incl_s(f"posterior.{f}") for f in ("density", "posterior_mean", "posterior_variance", "map_estimate"))
    m = {
        "tmsq.build.calls": calls("tmsq.build"),
        "tmsq.build.s": incl_s("tmsq.build"),
        "tmsq.p_max": max(t["p_max"] for t in traces),
        "tmsq.self_s": layer_self["tmsq"],
        "measurement.grid.builds": builds,
        "measurement.grid.build_s": incl_s("measurement.grid_build"),
        "measurement.grid.bytes": max(t["grid_bytes"] for t in traces),
        "measurement.sample.calls": calls("measurement.sample"),
        "measurement.sample.us": per_call_us("measurement.sample"),
        "measurement.log_row.calls": calls("measurement.log_row"),
        "measurement.log_row.us": per_call_us("measurement.log_row"),
        "measurement.log_row.tail_calls": sum(t["tail_rows"] for t in traces) / k,
        "measurement.self_s": layer_self["measurement"],
        "posterior.detect_peaks.calls": peaks,
        "posterior.detect_peaks.us": per_call_us("posterior.detect_peaks"),
        "posterior.detect_peaks.share": incl_s("posterior.detect_peaks") / wall,
        "posterior.rival_found_ratio": sum(t["rivals"] for t in traces) / k / peaks if peaks else 0.0,
        "posterior.stats.us": stats_s / trials * 1e6 if trials else 0.0,
        "posterior.prune.calls": calls("posterior.prune_secondary"),
        "posterior.self_s": layer_self["posterior"],
        "protocols.trials": trials,
        "protocols.steps": steps,
        "protocols.trial_ms.p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "protocols.trial_ms.tail": tail,
        "protocols.trial_ms.tail_pct": tail_pct,
        "protocols.step_self_us": self_s("protocols.run_trial") / steps * 1e6 if steps else 0.0,
        "protocols.self_s": layer_self["protocols"],
        "ensemble.cells": sum(len(t["cell_ns"]) for t in traces) / k,
        "ensemble.cell_s.max": max((ns for t in traces for ns in t["cell_ns"]), default=0) / 1e9,
        "ensemble.self_s": layer_self["ensemble"],
        "ensemble.core_utilization": utilization,
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": overhead,
        "trace.wall_s": wall,
    }
    return m, wall - sum(layer_self.values())


def speed_scaled(samples: list[dict], key: str) -> list[float]:
    """Each call's (or import's) time scaled to the reference CPU speed, as
    measured by the speed probes timed just before and just after it."""
    return [s[key] * PROBE_REF_S / statistics.mean(s["probe_s"]) for s in samples]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 reference: str = REFERENCE) -> dict:
    """Run one workload; returns the result line plus a detail block."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "su11sim", "cli.py")):
        raise BenchError(f"no su11sim sources under {SRC}; run from the root of a checkout")
    base = WORKLOADS[workload][size]
    ref_seeds = load_reference(reference, workload, size, base)
    workdir = os.path.join(WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    setup = [] if trace else [import_sample(deadline) for _ in range(SETUP_SAMPLES - 1)]
    per_call = trials_per_call(base)
    problems: list[str] = []
    runner = Runner(deadline)

    def measure(argv: list[str], cli_seed: int, with_trace: bool) -> dict:
        full, paths = call_argv(argv, cli_seed, workdir)
        reply = runner.call(full, paths, with_trace)
        if reply["leftovers"]:
            problems.append(f"still running after the call at seed {cli_seed}: {reply['leftovers']}")
        if reply["rc"] != 0:
            problems.append(f"CLI exit code {reply['rc']} at seed {cli_seed}")
        else:
            reply["digest"] = digest_outputs(base, paths, problems)
        return reply

    try:
        setup.append(runner.hello)
        if runner.hello["leftovers"]:
            problems.append(f"still running after importing su11sim.cli: {runner.hello['leftovers']}")
        measure_start = time.monotonic()
        if not trace:
            calls: list[dict] = []
            while True:
                calls.append(measure(base, call_seed(seed, len(calls)), False))
                elapsed = time.monotonic() - measure_start
                typical = statistics.median(c["wall_s"] for c in calls)
                if len(calls) >= MIN_CALLS and elapsed + typical > seconds:
                    break
        else:
            calls = [measure(base, seed, False)]
            w1 = one_worker(base)
            untraced_w1: list[dict] = []
            traced: list[dict] = []
            while True:
                untraced_w1.append(measure(w1, seed, False))
                traced.append(measure(w1, seed, True))
                elapsed = time.monotonic() - measure_start
                if elapsed + untraced_w1[-1]["wall_s"] + traced[-1]["wall_s"] > seconds:
                    break
            calls += untraced_w1 + traced
            if len({c["sha256"] for c in calls}) != 1:
                problems.append("traced, one-worker and pooled calls wrote different artifacts")
    finally:
        runner.close()

    first = calls[0]
    output_ok, output_identical = compare_reference(
        ref_seeds, seed, first.get("digest", {}), first["sha256"]
    )
    if not output_ok:
        problems.append("outputs differ from the reference recorded at the seed commit")
    attempted = per_call * len(calls)
    untraced_s = None
    if trace:
        overhead = statistics.median(speed_scaled(traced, "wall_s")) / statistics.median(
            speed_scaled(untraced_w1, "wall_s")
        )
        metrics, untraced_s = layer_metrics(
            [c["trace"] for c in traced],
            [c["wall_s"] for c in traced],
            overhead,
            calls[0]["cpu_s"] / (workers_of(base) * calls[0]["wall_s"]),
            calls[0]["bytes"],
        )
        if not 0.0 <= untraced_s <= UNTRACED_TOL * metrics["trace.wall_s"]:
            problems.append(f"layer self times leave {untraced_s:.6f} s of the traced wall "
                            f"{metrics['trace.wall_s']:.6f} s unaccounted")
        units = PER_LAYER_UNITS
    else:
        # Means over the calls: a call's cost depends on its seed (how many
        # trials are censored, say), and the mean averages over the seeds
        # where a median would jump between those costs.
        wall = statistics.mean(speed_scaled(calls, "wall_s"))
        metrics = {
            "wall_s": wall,
            "trials_per_s": per_call / wall,
            "cpu_s": statistics.mean(speed_scaled(calls, "cpu_s")),
            "setup_s": statistics.median(speed_scaled(setup, "import_s")),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        }
        units = END_TO_END_UNITS
    correct = not problems
    failed = 0 if correct else attempted
    env = dict(runner.hello["env"], git_commit=git_commit(), src_sha256=source_sha256())
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "calls": len(calls),
        "trials_per_call": per_call,
        "output_ok": output_ok,
        "output_identical": output_identical,
        "artifact_sha256": first["sha256"],
        "call_seeds": [call_seed(seed, i) for i in range(len(calls))] if not trace else [seed],
        "failed_fraction": failed / attempted,
        "untraced_s": untraced_s,
        "problems": problems,
        "raw_wall_s": [c["wall_s"] for c in calls],
        "raw_cpu_s": [c["cpu_s"] for c in calls],
        "probe_s": [c["probe_s"] for c in setup + calls],
        "raw_setup_s": [x["import_s"] for x in setup],
        "env": env,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"detail": detail, "result": result}


def print_table(rows: list[dict], out) -> None:
    for r in rows:
        d, res = r["detail"], r["result"]
        out.write(
            f"{d['workload']} seed={d['seed']} trace={d['trace']} calls={d['calls']} "
            f"output_ok={d['output_ok']} output_identical={d['output_identical']} "
            f"failed_fraction={d['failed_fraction']:g}\n"
        )
        for name, m in res["metrics"].items():
            out.write(f"  {name:34s} {m['value']:>14.6g} {m['unit']}\n")
        for p in d["problems"]:
            out.write(f"  PROBLEM: {p}\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs for the smoke test")
    p.add_argument("--reference", default=REFERENCE, help="reference values to check against")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = []
    try:
        for name in names:
            rows.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.size, args.reference))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(rows, sys.stderr)
    if args.workload == "all":
        print(json.dumps({r["detail"]["workload"]: r["result"] for r in rows}))
    else:
        print(json.dumps(rows[0]["detail"]))
        print(json.dumps(rows[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
