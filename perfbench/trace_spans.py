"""Span tracing for the benchmark's traced runs.

The tracer wraps su11sim's public functions where their callers look them
up (the import sites, e.g. ``su11sim.protocols.sample``), so nothing in the
package itself changes. Each wrapper pushes a span on a stack; when it ends,
its duration is added to its parent's child time, and its self time is the
duration minus that child time. Span names are ``<layer>.<function>`` with
the layer named after the module the function comes from. The wrappers are
installed on ``__enter__`` and removed on ``__exit__``.

Traced runs use one worker process, so every span is recorded here.
"""
from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.p_max = 0
        self.grid_bytes = 0
        self.tail_rows = 0
        self.rivals = 0
        self.trial_ns: list[int] = []
        self.steps = 0
        self.cell_ns: list[int] = []
        self._cell_key = None
        self._cell_start = 0
        self._model_start: int | None = None

    # -- span machinery -------------------------------------------------
    def _wrap(self, fn, name: str, on_exit=None):
        calls, incl, own, stack = self.calls, self.incl_ns, self.self_ns, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                incl[name] += dt
                own[name] += dt - frame[0]
            if on_exit is not None:
                on_exit(t0, dt, args, result)
            return result

        return wrapper

    def root(self, fn, name: str):
        """Wrap the entry point the benchmark calls directly."""
        return self._wrap(fn, name)

    def _patch(self, owner, attr: str, name: str, on_exit=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, on_exit))

    def __enter__(self) -> "Tracer":
        import su11sim.cli as cli
        import su11sim.ensemble as ensemble
        import su11sim.measurement as measurement
        import su11sim.protocols as protocols

        grid_cls = measurement.LikelihoodGrid
        self._patch(measurement, "build_schmidt_table", "tmsq.build", self._on_table)
        self._patch(grid_cls, "__init__", "measurement.grid_build", self._on_grid)
        self._patch(grid_cls, "log_row", "measurement.log_row", self._on_log_row)
        self._patch(measurement, "shared_grid_tables", "measurement.shared_grid_tables")
        self._patch(protocols, "sample", "measurement.sample")
        self._patch(protocols, "detect_peaks", "posterior.detect_peaks", self._on_peaks)
        for fn in ("density", "posterior_mean", "posterior_variance", "map_estimate"):
            self._patch(protocols, fn, f"posterior.{fn}")
        self._patch(protocols, "prune_secondary", "posterior.prune_secondary")
        self._patch(ensemble, "run_trial", "protocols.run_trial", self._on_trial)
        self._patch(ensemble, "make_model", "measurement.make_model", self._on_model)
        self._patch(ensemble, "shared_grid_tables", "measurement.shared_grid_tables")
        self._patch(cli, "run_campaign", "ensemble.run_campaign", self._on_run)
        self._patch(cli, "threshold_scan", "ensemble.threshold_scan", self._on_run)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters taken at the layer boundaries --------------------------
    def _on_table(self, t0, dt, args, table) -> None:
        self.p_max = max(self.p_max, table.p_max)

    def _on_grid(self, t0, dt, args, _none) -> None:
        grid = args[0]
        size = sum(v.nbytes for v in vars(grid).values() if hasattr(v, "nbytes"))
        self.grid_bytes = max(self.grid_bytes, size)

    def _on_log_row(self, t0, dt, args, _row) -> None:
        tables, outcome = args[0], args[1]
        if outcome.n is not None and outcome.n > tables.model.table.n_max:
            self.tail_rows += 1

    def _on_peaks(self, t0, dt, args, report) -> None:
        if report.secondary is not None:
            self.rivals += 1

    def _on_model(self, t0, dt, args, model) -> None:
        self._model_start = t0

    def _on_trial(self, t0, dt, args, record) -> None:
        config, model = args[0], args[1]
        self.trial_ns.append(dt)
        self.steps += config.measurements
        key = (model.scheme, model.mean_photons, config.phi_true, config.fixed_theta)
        if key != self._cell_key:
            # a cell starts at the model build that precedes its first trial
            start = t0 if self._model_start is None else self._model_start
            self._close_cell(start)
            self._cell_key, self._cell_start, self._model_start = key, start, None

    def _close_cell(self, end: int) -> None:
        if self._cell_key is not None:
            self.cell_ns.append(end - self._cell_start)
            self._cell_key = None

    def _on_run(self, t0, dt, args, result) -> None:
        self._close_cell(t0 + dt)

    def summary(self) -> dict:
        return {
            "spans": {
                name: [self.calls[name], self.incl_ns[name], self.self_ns[name]]
                for name in self.calls
            },
            "p_max": self.p_max,
            "grid_bytes": self.grid_bytes,
            "tail_rows": self.tail_rows,
            "rivals": self.rivals,
            "trial_ns": self.trial_ns,
            "steps": self.steps,
            "cell_ns": self.cell_ns,
        }
