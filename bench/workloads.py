"""The benchmark's workloads: one INI config per workload, made from a seed.

Every workload is a config that `adl run` accepts.  The benchmark builds
the in-process configs from the same text through `adl.cli.build_run`, so
the command-line path and the in-process runners train exactly the same
network on exactly the same data.  The seed given on the command line is
expanded by numpy's `SeedSequence` into two keys:

* the `[data] seed`, which draws the dataset (the spiral noise, or the
  linear-regression inputs, teacher and noise);
* the `[run] seed`, which draws the initial weights and also keys the
  counter-based batch sampler (`adl run` uses one key for both).

Sizes (updates per operation) are fixed per workload and never depend on
the machine, so every run does the same work and the rates compare.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Modules of the run_parallel bit-identity check, and the most modules any
# workload's timed `parallel` operation runs.  run_parallel starts one
# Python thread per module, so this must not exceed the cores.  Only
# wide-k2 times it at K = 2: where a slot is a few microseconds of numpy
# work, two threads time the host's wake-ups, not the program (README).
PARALLEL_K = 2

# The timed operations, in the order one round runs them.
OPS = ("clocked", "parallel", "sync", "replay", "cli_run", "cli_compare")


@dataclass(frozen=True)
class Workload:
    model: dict
    partition: dict
    data: dict
    optimizer: dict
    trace_level: str
    parallel_k: int        # modules (threads) of the timed `parallel` operation
    train_yardstick: str   # the YARDSTICKS entry that scales TRAIN_OPS
    updates: dict          # S of one repetition of each timed operation
    compare_calls: int     # `adl compare` calls in one cli_compare repetition
    check_updates: int     # S of the untimed correctness passes
    memory_updates: int    # S of the untimed tracemalloc passes

    def seeds(self, seed: int):
        """(data_seed, run_seed) derived from the benchmark seed."""
        data_seed, run_seed = np.random.SeedSequence(seed).generate_state(2)
        return int(data_seed) % 2**31, int(run_seed) % 2**31

    def ini(self, seed: int, out_dir, mode: str, updates: int) -> str:
        data_seed, run_seed = self.seeds(seed)
        sections = {
            "model": self.model,
            "partition": self.partition,
            "data": {**self.data, "seed": data_seed},
            "optimizer": {**self.optimizer, "updates": updates},
            "run": {"mode": mode, "seed": run_seed, "out": out_dir,
                    "trace_level": self.trace_level},
        }
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
            lines.append("")
        return "\n".join(lines)


_DEEP = ["affine:2:32", "tanh:32"] + ["affine:32:32", "tanh:32"] * 3 \
    + ["affine:32:2"]
_WIDE = ["affine:256:256", "relu:256"] * 4 + ["affine:256:1"]
_SMALL = ["affine:2:16", "tanh:16", "affine:16:16", "tanh:16", "affine:16:2"]

WORKLOADS = {
    # Per-slot Python overhead, sampling and accumulator adds dominate.
    "deep-narrow": Workload(
        model={"layers": " ".join(_DEEP), "loss": "softmax_ce",
               "init_scale": 1.0},
        partition={"k": 8, "strategy": "even"},
        data={"dataset": "two_spirals", "n": 512, "noise_std": 0.05},
        optimizer={"ga_steps": 4, "batch_size": 16, "schedule": "constant",
                   "lr": 0.1},
        trace_level="updates",
        parallel_k=1,
        train_yardstick="small",
        updates={"clocked": 128, "parallel": 128, "sync": 128, "replay": 16,
                 "cli_run": 96},
        compare_calls=4,
        check_updates=16,
        memory_updates=32,
    ),
    # BLAS matmuls and one ga_update per slot dominate.  Four affine+relu
    # pairs are split 2+2 (plus the linear head) so the modules balance.
    "wide-k2": Workload(
        model={"layers": " ".join(_WIDE), "loss": "mse", "init_scale": 1.0},
        partition={"k": 2, "boundaries": 4},
        data={"dataset": "linreg", "n": 1024, "dim": 256, "noise_std": 0.1},
        optimizer={"ga_steps": 1, "batch_size": 64, "schedule": "constant",
                   "lr": 0.01},
        trace_level="updates",
        parallel_k=2,
        train_yardstick="wide",
        updates={"clocked": 48, "parallel": 48, "sync": 48, "replay": 24,
                 "cli_run": 48},
        compare_calls=80,
        check_updates=8,
        memory_updates=32,
    ),
    # Config parsing, trace and event CSV writing, and CSV reading dominate.
    "cli-ticks": Workload(
        model={"layers": " ".join(_SMALL), "loss": "softmax_ce",
               "init_scale": 1.0},
        partition={"k": 2, "strategy": "even"},
        data={"dataset": "two_spirals", "n": 128, "noise_std": 0.05},
        optimizer={"ga_steps": 2, "batch_size": 8, "schedule": "constant",
                   "lr": 0.05},
        trace_level="ticks",
        parallel_k=1,
        train_yardstick="small",
        updates={"clocked": 256, "parallel": 256, "sync": 256, "replay": 128,
                 "cli_run": 256},
        compare_calls=4,
        check_updates=32,
        memory_updates=128,
    ),
}

# The yardsticks (see README, "Machine speed"): plain numpy passes written
# without `adl`, timed next to every repetition.  "small" is the
# deep-narrow network, many small numpy calls on one thread: 20 ms when the
# 2-core reference machine runs fast, 38 ms when it runs slow; 25 ms is its
# nominal time.  "wide" is the wide-k2 network over 8 batches, BLAS-bound
# with BLAS threads at their default: 20 ms fast, 33 ms slow; 25 ms
# nominal.
YARDSTICKS = {
    "small": {"layers": " ".join(_DEEP), "loss": "softmax_ce",
              "batch_size": 16, "batches": 256, "nominal_s": 0.025},
    "wide": {"layers": " ".join(_WIDE), "loss": "mse", "batch_size": 64,
             "batches": 8, "nominal_s": 0.025},
}

# The operations that train a network, scaled by the workload's
# `train_yardstick`.  `adl compare` and set-up are interpreter-bound and
# are scaled by the small yardstick on every workload.
TRAIN_OPS = ("clocked", "parallel", "sync", "replay", "cli_run")
