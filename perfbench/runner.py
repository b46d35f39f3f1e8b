"""Child process of the benchmark: imports su11sim.cli once, then runs CLI calls.

Commands arrive as one JSON object per line on stdin:
    {"argv": [...], "artifacts": [...], "trace": false}
and each gets one JSON reply line on the original stdout. Everything the CLI
itself prints is sent to stderr, so it cannot corrupt the replies.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread pools pinned to one thread. The first reply reports the import
time of su11sim.cli; with --import-only the process exits after it.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _artifact_digest(paths: list[str]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(path).encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_call(cli, argv: list[str], artifacts: list[str], trace: bool) -> dict:
    for path in artifacts:
        if os.path.exists(path):
            os.remove(path)
    tracer = None
    main = cli.main
    if trace:
        from trace_spans import Tracer

        tracer = Tracer()
        main = tracer.root(cli.main, "cli.main")
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    reply = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "sha256": None, "bytes": 0}
    if rc == 0:
        reply["sha256"], reply["bytes"] = _artifact_digest(artifacts)
    if tracer is not None:
        reply["trace"] = tracer.summary()
    return reply


def main() -> int:
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    t0 = time.perf_counter()
    import su11sim.cli as cli

    import_s = time.perf_counter() - t0
    hello = {"import_s": import_s, "env": environment()}
    replies.write(json.dumps(hello) + "\n")
    replies.flush()
    if sys.argv[1:] == ["--import-only"]:
        return 0
    for line in sys.stdin:
        cmd = json.loads(line)
        reply = run_call(cli, cmd["argv"], cmd["artifacts"], cmd["trace"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
