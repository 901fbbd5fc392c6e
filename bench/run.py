"""Run one benchmark workload of the `adl` package and print its metrics.

    python3 bench/run.py --workload deep-narrow --seed 1 --seconds 34 --trace 0

Run it from the root of a checkout: it imports `adl` from `src/` and
nowhere else, and exits with code 2 when that fails.  A run writes the
workload's INI configs from the seed, sets up several times (timing each),
runs the untimed correctness checks and one untimed warm-up round, then
repeats whole rounds of the timed operations (`workloads.OPS`) for
`--seconds` seconds.

* `--trace 0` also takes peak memory in an untimed `tracemalloc` pass and
  reports the end-to-end metrics, each the median over the rounds.
* `--trace 1` alternates untraced rounds with rounds traced by
  `tracing.Tracer`, and reports the per-layer metrics (medians over the
  traced rounds) and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The environment, every
repetition and any failure go to `bench/results/<workload>-seed<n>-
trace<t>.json`, and a traced run's last spans to `bench/results/spans-*`.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import Yardstick
from workloads import OPS, TRAIN_OPS, WORKLOADS, YARDSTICKS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "clocked_batches_per_s": "batches/s",
    "parallel_batches_per_s": "batches/s",
    "sync_batches_per_s": "batches/s",
    "replay_batches_per_s": "batches/s",
    "cli_run_batches_per_s": "batches/s",
    "cli_compare_rows_per_s": "rows/s",
    "clocked_peak_mib": "MiB",
    "sync_peak_mib": "MiB",
    "replay_peak_mib": "MiB",
}
RATE_OF = {"clocked": "clocked_batches_per_s",
           "parallel": "parallel_batches_per_s",
           "sync": "sync_batches_per_s",
           "replay": "replay_batches_per_s",
           "cli_run": "cli_run_batches_per_s",
           "cli_compare": "cli_compare_rows_per_s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }


def import_adl():
    """Import `adl` afresh from this checkout's src/: the package's module
    code runs again on every call, numpy and the standard library stay
    loaded."""
    for name in [n for n in sys.modules if n == "adl" or
                 n.startswith("adl.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    adl = importlib.import_module("adl")
    if src.resolve() not in Path(adl.__file__).resolve().parents:
        raise ImportError(f"adl found at {adl.__file__}, not under {src}")
    importlib.import_module("adl.cli")
    return adl


def set_up(ini_path, workload):
    """Import adl, then build the dataset, the config of every timed
    operation and the initial states from the workload's INI file."""
    adl = import_adl()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(ini_path)
    _, cfg, dataset, _, _ = adl.cli.build_run(parser, _warn)
    n, updates, K = len(cfg.layers), workload.updates, workload.parallel_k
    par = cfg.partition if cfg.K == K else adl.partition_even(n, K)
    cfgs = {
        "clocked": dataclasses.replace(cfg, updates=updates["clocked"]),
        "parallel": dataclasses.replace(cfg, updates=updates["parallel"],
                                        partition=par),
        "sync": dataclasses.replace(cfg, updates=updates["sync"],
                                    partition=adl.partition_even(n, 1)),
        "replay": dataclasses.replace(cfg, updates=updates["replay"]),
    }
    states = adl.init_states(cfg.layers, cfg.seed, cfg.init_scale)
    return cfg, dataset, cfgs, states


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def measure(args, tmp):
    """Everything a run does; returns (bench, values, units, record) or
    None when adl cannot be imported."""
    workload = WORKLOADS[args.workload]
    ini = {}
    for mode in ("adl-clocked", "delayed-replay"):
        ini[mode] = str(tmp / f"{mode}.ini")
        Path(ini[mode]).write_text(workload.ini(
            args.seed, tmp / mode, mode, workload.updates["cli_run"]))
    yardsticks = {name: Yardstick(**YARDSTICKS[name]) for name in
                  dict.fromkeys(("small", workload.train_yardstick))}
    yardstick = yardsticks["small"]
    setup_times, setup_scaled = [], []
    before = yardstick.seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            cfg, dataset, cfgs, states = set_up(ini["adl-clocked"],
                                                workload)
        except ImportError as exc:
            print(f"error: cannot import adl: {exc}", file=sys.stderr)
            return None
        setup_times.append(time.perf_counter() - t0)
        after = yardstick.seconds()
        setup_scaled.append(setup_times[-1] * yardstick.nominal_s * 2
                            / (before + after))
        before = after

    import harness  # binds to the adl package set-up imported last

    phases = {"setup": sum(setup_times)}
    record = {"setup_s": setup_times, "setup_s_scaled": setup_scaled,
              "phase_s": phases}
    t0 = time.perf_counter()
    bench = harness.Bench(workload, tmp, ini, cfg, dataset, cfgs,
                          np.concatenate([s.params for s in states]))
    bench.checks()
    for op in OPS:                          # warm-up round, untimed
        bench.timed(op)
    phases["checks_and_warm_up"] = time.perf_counter() - t0
    if args.trace == 0:
        t0 = time.perf_counter()
        values = bench.memory()
        phases["memory"] = time.perf_counter() - t0
        stick_of = {op: workload.train_yardstick if op in TRAIN_OPS
                    else "small" for op in OPS}
        raw, scaled, times = harness.rounds_untraced(
            bench, yardsticks, stick_of, args.seconds)
        values["setup_s"] = statistics.median(setup_scaled)
        values.update({RATE_OF[op]: statistics.median(r)
                       for op, r in scaled.items() if r})
        record.update(raw_rates=raw, scaled_rates=scaled, yardstick_s=times)
        return bench, values, END_TO_END, record
    layer, walls, spans = harness.rounds_traced(bench, args.seconds)
    values = {name: statistics.median(v) for name, v in layer.items()}
    if walls["traced"]:
        values["tracing.overhead_ratio"] = \
            statistics.median(walls["traced"]) / \
            statistics.median(walls["untraced"])
    record["round_walls"] = walls
    harness.T.write_spans(
        RESULTS / f"spans-{args.workload}-seed{args.seed}.csv", spans)
    return bench, values, harness.T.UNITS, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        out = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out is None:
        return 2
    bench, values, units, record = out
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(metrics))
    if missing:
        bench.attempt("every metric measured",
                      lambda: [f"missing {name}" for name in missing])
    correct = bench.wrong == 0
    record.update(args=vars(args), environment=env,
                  errors=bench.errors, correct=correct,
                  attempted=bench.attempted, failed=bench.failed,
                  metrics=metrics)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
