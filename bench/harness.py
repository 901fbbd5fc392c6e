"""The benchmark's operations, checks and measurement rounds.

`run.py` imports this module only after its timed set-ups, so every name
imported from `adl` here is the package that set-up built the configs
with.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import sys
import time
import tracemalloc

import adl
import adl.cli
import checks as C
import tracing as T
from workloads import OPS, PARALLEL_K

RUNNERS = {"clocked": adl.run_clocked, "parallel": adl.run_parallel,
           "sync": adl.sync_ga_sgd, "replay": adl.delayed_replay}


class Bench:
    """One workload at one seed: its operations, checks and counters.

    An operation is attempted, and fails when it raises or when its check
    reports an error; only the second makes the result incorrect.
    """

    def __init__(self, workload, tmp, ini: dict, cfg, dataset, cfgs: dict,
                 init_flat):
        self.w = workload
        self.tmp = tmp
        self.ini = ini
        self.cli_traces = [str(tmp / m / "trace.csv")
                           for m in ("adl-clocked", "delayed-replay")]
        self.cfg, self.dataset, self.cfgs = cfg, dataset, cfgs
        self.init_flat = init_flat
        self.cli_rows = cfg.K * cfg.ga_steps * workload.updates["cli_run"]
        self.refs = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def attempt(self, name, fn) -> bool:
        """Run one checked operation; fn returns a list of errors."""
        self.attempted += 1
        try:
            errors = fn()
            self.wrong += bool(errors)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            errors = [f"raised {type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.errors.append({"operation": name, "errors": errors})
            print(f"FAILED {name}: {errors}", file=sys.stderr)
        return not errors

    # -- timed operations ----------------------------------------------------

    def run(self, op, wrap=None):
        """One repetition of a timed operation: (seconds, units of work,
        the runner's trace or the CLI's exit codes).  `wrap(name, fn,
        *args)` calls fn, e.g. inside a root span."""
        call = wrap or (lambda _name, fn, *args: fn(*args))
        gc.collect()
        if op in RUNNERS:
            cfg = self.cfgs[op]
            t0 = time.perf_counter()
            trace = call(f"runner.{op}", RUNNERS[op], cfg, self.dataset)
            return time.perf_counter() - t0, cfg.ga_steps * cfg.updates, trace
        if op == "cli_run":
            args, calls = ["run", self.ini["adl-clocked"]], 1
            work = self.cfg.ga_steps * self.w.updates["cli_run"]
        else:
            args, calls = ["compare", *self.cli_traces], self.w.compare_calls
            work = calls * self.cli_rows
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            codes = [call(f"cli.{args[0]}", adl.cli.main, args)
                     for _ in range(calls)]
            return time.perf_counter() - t0, work, codes

    def timed(self, op, wrap=None):
        """A checked repetition: a runner's trace must complete and carry
        the same bits as the operation's first repetition, a command must
        exit 0.  Returns (seconds, work), or None when it failed."""
        out = []

        def rep():
            dt, work, result = self.run(op, wrap)
            out.append((dt, work))
            if op not in RUNNERS:
                return [] if not any(result) else \
                    [f"adl exited with codes {result}"]
            ref = self.refs.setdefault(op, result)
            return C.completed(result, self.cfgs[op].updates) + \
                C.identical(ref, result)

        return out[0] if self.attempt(f"{op} repetition", rep) else None

    # -- untimed passes ------------------------------------------------------

    def checks(self):
        cfg, ds = self.cfg, self.dataset
        S, K, M = self.w.check_updates, cfg.K, cfg.ga_steps
        par = cfg.partition if K == PARALLEL_K else \
            adl.partition_even(len(cfg.layers), PARALLEL_K)
        one = self.cfgs["sync"].partition
        runs = {}

        def make(partition, **flags):
            return dataclasses.replace(cfg, updates=S, partition=partition,
                                       **flags)

        def ran(key, runner, c):
            def fn():
                runs[key] = runner(c, ds)
                return C.completed(runs[key], c.updates)
            self.attempt(f"{key} completes", fn)

        ran("clocked", adl.run_clocked, make(cfg.partition, record_params=True))
        ran("replay", adl.delayed_replay,
            make(cfg.partition, record_params=True))
        ran("clocked K=2", adl.run_clocked, make(par, record_params=True))
        ran("parallel K=2", adl.run_parallel, make(par, record_params=True))
        ran("sync", adl.sync_ga_sgd,
            make(one, record_params=True, record_grads=True))
        ran("clocked K=1", adl.run_clocked, make(one, record_params=True))
        ran("clocked cli", adl.run_clocked, dataclasses.replace(
            cfg, updates=self.w.updates["cli_run"]))
        check = self.attempt
        check("clocked provenance",
              lambda: C.provenance(runs["clocked"], K, M))
        check("parallel provenance",
              lambda: C.provenance(runs["parallel K=2"], par.K, M))
        check("sync provenance", lambda: C.provenance(runs["sync"], 1, M))
        check("run_clocked == delayed_replay",
              lambda: C.identical(runs["clocked"], runs["replay"]))
        check("run_clocked == run_parallel",
              lambda: C.identical(runs["clocked K=2"], runs["parallel K=2"]))
        check("sync_ga_sgd == run_clocked at K=1",
              lambda: C.identical(runs["sync"], runs["clocked K=1"]))
        batches = [adl.sample_batch(ds, cfg.batch_size, cfg.sampler_seed, t)
                   for t in range(M)]
        check("first sync update == numpy reference",
              lambda: C.first_update(runs["sync"], cfg.layers, cfg.loss,
                                     self.init_flat, batches,
                                     adl.lr_at(cfg.schedule, 0)))
        check("read_csv(write_csv(trace)) == trace",
              lambda: C.roundtrip(runs["clocked"], self.tmp / "rt.csv"))
        check("adl run in two modes", self._cli_runs)
        check("adl run trace == run_clocked", lambda: C.identical(
            adl.read_csv(self.cli_traces[0]), runs["clocked cli"]))
        check("adl compare exits 0", self._cli_compare)
        if self.w.trace_level == "ticks":
            check("events.csv row count", lambda: C.event_count(
                self.tmp / "adl-clocked" / "events.csv", K, M,
                self.w.updates["cli_run"]))

    def _cli_runs(self):
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [adl.cli.main(["run", self.ini[m]])
                     for m in ("adl-clocked", "delayed-replay")]
        return [] if codes == [0, 0] else [f"adl run exited with {codes}"]

    def _cli_compare(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = adl.cli.main(["compare", *self.cli_traces, "--tol", "0"])
        return [] if code == 0 else [f"adl compare exited with {code}"]

    def memory(self) -> dict:
        """tracemalloc peak (MiB) of clocked, sync and replay runs with
        parameter and gradient recording off."""
        S = self.w.memory_updates
        peaks = {}
        for op in ("clocked", "sync", "replay"):
            cfg = dataclasses.replace(self.cfgs[op], updates=S)
            gc.collect()
            tracemalloc.start()
            try:
                trace = RUNNERS[op](cfg, self.dataset)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if self.attempt(f"{op} memory pass",
                            lambda: C.completed(trace, S)):
                peaks[f"{op}_peak_mib"] = peak / 2**20
        return peaks


def rounds_untraced(bench, yardsticks, stick_of, seconds):
    """Whole rounds of every timed operation until time is up, with a
    pass of every yardstick before the first repetition and after every
    one.

    Returns per operation the raw rate (work per second) of each
    repetition and the rate at the nominal speed of its yardstick
    `stick_of[op]` -- the raw rate times the mean of the two adjacent
    times of that yardstick over its nominal time -- and the times of
    each yardstick."""
    raw = {op: [] for op in OPS}
    scaled = {op: [] for op in OPS}
    times = {name: [y.seconds()] for name, y in yardsticks.items()}
    t_end = time.perf_counter() + seconds
    while True:
        for op in OPS:
            got = bench.timed(op)
            for name, y in yardsticks.items():
                times[name].append(y.seconds())
            if got:
                y, t = yardsticks[stick_of[op]], times[stick_of[op]]
                rate = got[1] / got[0]
                raw[op].append(rate)
                scaled[op].append(rate * (t[-2] + t[-1]) / 2 / y.nominal_s)
        if time.perf_counter() >= t_end:
            return raw, scaled, times


def rounds_traced(bench, seconds):
    """Alternate an untraced and a traced round until time is up.
    Returns (per-layer samples, round walls, spans of the last traced
    round)."""
    tracer = T.Tracer({name: sys.modules[name] for name in
                       ("adl.scheduler", "adl.oracle", "adl.cli",
                        "adl.optimizer")})
    clocked = bench.cfgs["clocked"]
    sizes = {"parallel_K": bench.cfgs["parallel"].K,
             "clocked_K": clocked.K,
             "clocked_batches": clocked.ga_steps * clocked.updates,
             "cli_rows": bench.cli_rows,
             "cli_updates": bench.w.updates["cli_run"]}
    layer, walls = {}, {"untraced": [], "traced": []}
    t_end = time.perf_counter() + seconds
    while True:
        walls["untraced"].append(
            sum(got[0] for got in map(bench.timed, OPS) if got))
        spans, high_water, wall, ok = {}, None, 0.0, True
        with tracer.installed():
            for op in OPS:
                tracer.clear()
                got = bench.timed(op, tracer.root)
                ok = ok and got is not None
                wall += got[0] if got else 0.0
                spans[op] = list(tracer.spans)
                if op == "clocked":
                    high_water = (dict(tracer.snapshots_high_water),
                                  dict(tracer.stash_high_water))
        walls["traced"].append(wall)
        if ok:
            for name, value in T.layer_metrics(spans, high_water,
                                               sizes).items():
                layer.setdefault(name, []).append(value)
        if time.perf_counter() >= t_end:
            return layer, walls, spans
