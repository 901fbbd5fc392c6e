"""Throughput: one thread per module vs. the single-threaded clock.

`run_parallel` executes the identical schedule as `run_clocked` but
gives each module its own thread connected by bounded queues, so the
K modules' numpy work can overlap.  The traces stay bit-identical
(demos/02); only the wall time changes.  With K balanced modules and
enough cores the ideal speedup approaches K; queue handoffs, the
pipeline fill/drain, and Python-side overhead eat part of it.

While it runs, `run_parallel` splits numpy's bundled OpenBLAS threads
among the modules: its n BLAS threads become max(1, n // K), so with
these K = 4 modules and n = 8 each module thread's matmuls run on 2
BLAS threads, and with n <= 4 on 1, instead of each module starting
all n.  n is restored when the run ends.

On a single-core machine this demo still runs, but expect little of
the speedup to survive — the threads mostly take turns.

Run:  python3 demos/05_parallel_throughput.py
"""
import os

import numpy as np

from adl.data import Dataset
from adl.net import affine, relu
from adl.optimizer import ConstantLr
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import compare_traces

WIDTH, N, UPDATES = 256, 512, 40

rng = np.random.default_rng(3)
x = rng.normal(size=(N, WIDTH))
y = np.tanh(x @ rng.normal(size=(WIDTH, WIDTH)) / np.sqrt(WIDTH))
data = Dataset(x, y)

specs = []
for _ in range(4):
    specs += [affine(WIDTH, WIDTH), relu(WIDTH)]


def config():
    return TrainConfig(specs, partition_even(len(specs), 4), "mse", 1, 64,
                       UPDATES, ConstantLr(1e-4), seed=0, init_scale=0.5,
                       record_params=True)


print(f"4 balanced modules of [affine {WIDTH}x{WIDTH} + relu], "
      f"{UPDATES} updates, batch 64")
print(f"machine: {os.cpu_count()} cpu cores\n")

clocked = run_clocked(config(), data)
threaded = run_parallel(config(), data)
report = compare_traces(clocked, threaded, tol=0.0)

print(f"clocked : {clocked.wall_time:7.3f} s "
      f"({UPDATES / clocked.wall_time:6.1f} updates/s)")
print(f"threaded: {threaded.wall_time:7.3f} s "
      f"({UPDATES / threaded.wall_time:6.1f} updates/s)")
print(f"speedup : {clocked.wall_time / threaded.wall_time:.2f}x")
print(f"traces bit-identical: {report.passed}")
