"""Spans around the calls into each layer of `adl`, installed from outside.

`Tracer.installed()` replaces the module-level names that `adl.scheduler`,
`adl.oracle` and `adl.cli` call, plus `Accumulator.add` and
`ModuleWorker.process_slot`, with wrappers that record one span per call:
(name, start, end, parent, module, thread).  Spans stay in memory; the
benchmark derives the per-layer metrics from them and writes the last
set out when the run ends.  Leaving the block restores every original.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import threading
import time

# (module attribute, span name) for each module-level name the package
# calls across its layers.
PATCHES = {
    "adl.scheduler": {
        "sample_batch": "data.sample_batch",
        "layer_forward": "net.layer_forward",
        "layer_backward": "net.layer_backward",
        "loss_and_grad": "net.loss_and_grad",
        "ga_update": "optimizer.ga_update",
        "grads_sumsq": "optimizer.grads_sumsq",
    },
    "adl.oracle": {
        "sample_batch": "data.sample_batch",
        "net_forward": "net.net_forward",
        "net_backward": "net.net_backward",
        "ga_update": "optimizer.ga_update",
        "grads_sumsq": "optimizer.grads_sumsq",
    },
    "adl.cli": {
        "build_run": "cli.build_run",
        "write_csv": "trace.write_csv",
        "write_events_csv": "trace.write_events_csv",
        "summary_text": "trace.summary_text",
        "read_csv": "trace.read_csv",
        "compare_traces": "trace.compare_traces",
    },
}

# span record fields
NAME, START, END, PARENT, MODULE, THREAD, CHILD_NS = range(7)


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps 'adl.scheduler', 'adl.oracle', 'adl.cli' and
        'adl.optimizer' to the imported modules whose names get wrapped."""
        self.modules = modules
        self.spans = []
        self.snapshots_high_water = {}
        self.stash_high_water = {}
        self._local = threading.local()

    def clear(self):
        self.spans.clear()
        self.snapshots_high_water.clear()
        self.stash_high_water.clear()

    def _wrap(self, name, fn, module_of=None):
        local, spans = self._local, self.spans
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            module = module_of(args) if module_of else \
                (parent[MODULE] if parent else 0)
            rec = [name, clock(), 0, parent, module, ident(), 0]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_NS] += rec[END] - rec[START]
                spans.append(rec)

        return traced

    def root(self, name, fn, *args, **kwargs):
        """Call fn inside a top-level span of its own."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _process_slot(self, fn):
        traced = self._wrap("scheduler.process_slot", fn,
                            module_of=lambda args: args[0].k)
        snaps, stash = self.snapshots_high_water, self.stash_high_water

        @functools.wraps(fn)
        def process_slot(worker, *args, **kwargs):
            try:
                return traced(worker, *args, **kwargs)
            finally:
                k = worker.k
                snaps[k] = max(snaps.get(k, 0), len(worker.snapshots))
                stash[k] = max(stash.get(k, 0), len(worker.stash))

        return process_slot

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for modname, names in PATCHES.items():
                mod = self.modules[modname]
                for attr, span in names.items():
                    put(mod, attr, self._wrap(span, getattr(mod, attr)))
            acc = self.modules["adl.optimizer"].Accumulator
            put(acc, "add", self._wrap("optimizer.accumulator_add", acc.add))
            worker = self.modules["adl.scheduler"].ModuleWorker
            put(worker, "process_slot",
                self._process_slot(worker.process_slot))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(path, spans_by_op: dict):
    """One CSV row per span; parent is the row id of the enclosing span
    in the same thread, or empty."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "op", "name", "start_ns", "end_ns", "parent",
                      "module", "thread"])
        ids, row = {}, 0
        for op, spans in spans_by_op.items():
            for rec in spans:
                ids[id(rec)] = row
                row += 1
        for op, spans in spans_by_op.items():
            for rec in spans:
                parent = rec[PARENT]
                out.writerow([ids[id(rec)], op, rec[NAME], rec[START],
                              rec[END], "" if parent is None
                              else ids[id(parent)], rec[MODULE],
                              rec[THREAD]])


# -- per-layer metrics ------------------------------------------------------

def _named(spans, name):
    return [s for s in spans if s[NAME] == name]


def _dur(s):
    return s[END] - s[START]


def _us_per_call(spans, name):
    calls = _named(spans, name)
    return sum(map(_dur, calls)) / len(calls) / 1e3


def _root(spans):
    """The operation's own span: it encloses, so ends after, all others."""
    return spans[-1]


def layer_metrics(spans: dict, high_water: tuple, sizes: dict) -> dict:
    """Per-layer metrics of one traced round.

    `spans` maps each timed operation to its spans, `high_water` is the
    (snapshots, stash) per-module high-water marks of the clocked
    operation, and `sizes` holds the round's fixed quantities: the K and
    micro-batches of the clocked and parallel operations, and the rows and
    updates of a CLI trace.  The parallel shares are reported for module 1
    and for the last module, which is module 1 again when it has K = 1.
    """
    clocked, parallel = spans["clocked"], spans["parallel"]
    oracle = spans["sync"] + spans["replay"]
    cli_run, cli_compare = spans["cli_run"], spans["cli_compare"]
    m = {
        "data.sample_batch.calls": len(_named(clocked, "data.sample_batch")),
        "data.sample_batch.us_per_call":
            _us_per_call(clocked, "data.sample_batch"),
        "net.layer_forward.calls": len(_named(clocked, "net.layer_forward")),
    }
    for name in ("net.layer_forward", "net.layer_backward",
                 "net.loss_and_grad", "optimizer.accumulator_add",
                 "optimizer.ga_update", "optimizer.grads_sumsq"):
        m[f"{name}.us_per_call"] = _us_per_call(clocked, name)
    for name in ("net.net_forward", "net.net_backward"):
        m[f"{name}.us_per_call"] = _us_per_call(oracle, name)

    slots = _named(clocked, "scheduler.process_slot")
    m["scheduler.process_slot.self_us"] = \
        sum(_dur(s) - s[CHILD_NS] for s in slots) / len(slots) / 1e3
    root = _root(clocked)
    m["scheduler.driver.self_s"] = (_dur(root) - root[CHILD_NS]) / 1e9

    wall = _dur(_root(parallel))
    K = sizes["parallel_K"]
    thread_of = {s[THREAD]: s[MODULE]
                 for s in _named(parallel, "scheduler.process_slot")}
    for k, label in ((1, "k1"), (K, "last")):
        busy = sum(_dur(s) for s in _named(parallel, "scheduler.process_slot")
                   if s[MODULE] == k)
        sampling = sum(_dur(s) for s in _named(parallel, "data.sample_batch")
                       if thread_of.get(s[THREAD]) == k)
        m[f"scheduler.busy_share.{label}"] = busy / wall
        m[f"scheduler.idle_share.{label}"] = 1.0 - (busy + sampling) / wall
    K, MS = sizes["clocked_K"], sizes["clocked_batches"]
    m["scheduler.idle_share_schedule.k1"] = \
        2 * (K - 1) / (MS + 2 * (K - 1))

    snaps, stash = high_water
    m["scheduler.snapshots_high_water.k1"] = snaps[1]
    m["scheduler.snapshots_high_water.sum"] = sum(snaps.values())
    m["scheduler.stash_high_water.k1"] = stash[1]
    m["scheduler.stash_high_water.sum"] = sum(stash.values())

    m["oracle.replay.net_passes"] = len(_named(spans["replay"],
                                               "net.net_forward"))

    writes = _named(cli_run, "trace.write_csv")
    m["trace.write_csv.rows_per_s"] = \
        sizes["cli_rows"] * len(writes) / (sum(map(_dur, writes)) / 1e9)
    reads = _named(cli_compare, "trace.read_csv")
    m["trace.read_csv.rows_per_s"] = \
        sizes["cli_rows"] * len(reads) / (sum(map(_dur, reads)) / 1e9)
    compares = _named(cli_compare, "trace.compare_traces")
    m["trace.compare_traces.us_per_update"] = \
        sum(map(_dur, compares)) / 1e3 / (len(compares) * sizes["cli_updates"])
    m["cli.build_run.ms"] = _us_per_call(cli_run, "cli.build_run") / 1e3
    return m


# name -> unit of every per-layer metric `layer_metrics` returns, plus the
# tracing overhead the benchmark adds from the round wall times.
UNITS = {
    "data.sample_batch.calls": "count",
    "data.sample_batch.us_per_call": "us",
    "net.layer_forward.calls": "count",
    "net.layer_forward.us_per_call": "us",
    "net.layer_backward.us_per_call": "us",
    "net.loss_and_grad.us_per_call": "us",
    "optimizer.accumulator_add.us_per_call": "us",
    "optimizer.ga_update.us_per_call": "us",
    "optimizer.grads_sumsq.us_per_call": "us",
    "net.net_forward.us_per_call": "us",
    "net.net_backward.us_per_call": "us",
    "scheduler.process_slot.self_us": "us",
    "scheduler.driver.self_s": "s",
    "scheduler.busy_share.k1": "share",
    "scheduler.idle_share.k1": "share",
    "scheduler.busy_share.last": "share",
    "scheduler.idle_share.last": "share",
    "scheduler.idle_share_schedule.k1": "share",
    "scheduler.snapshots_high_water.k1": "count",
    "scheduler.snapshots_high_water.sum": "count",
    "scheduler.stash_high_water.k1": "count",
    "scheduler.stash_high_water.sum": "count",
    "oracle.replay.net_passes": "count",
    "trace.write_csv.rows_per_s": "rows/s",
    "trace.read_csv.rows_per_s": "rows/s",
    "trace.compare_traces.us_per_update": "us",
    "cli.build_run.ms": "ms",
    "tracing.overhead_ratio": "ratio",
}
