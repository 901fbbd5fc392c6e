"""Throughput: one thread per module vs. the single-threaded clock.

`run_parallel` executes the identical schedule as `run_clocked` but
gives each module its own thread connected by FIFO queues, which the
schedule itself bounds, so the K modules' numpy work can overlap.  The
traces stay bit-identical (demos/02); only the wall time changes.  With
K balanced modules and enough cores the ideal speedup approaches K;
queue handoffs, the pipeline fill/drain, and Python-side overhead eat
part of it.

While it runs, `run_parallel` splits numpy's bundled OpenBLAS threads
among the modules: its n BLAS threads become max(1, n // K), so with
these K = 4 modules and n = 8 each module thread's matmuls run on 2
BLAS threads, and with n <= 4 on 1, instead of each module starting
all n.  At a share of 1 it also parks OpenBLAS's idle thread pool,
whose server threads would otherwise spin on the modules' cores after
the last threaded call.  n is restored, and the pool re-created, when
the run ends.

A single cold run is no measure: a first run_clocked sometimes meets
OpenBLAS in a mode where one 64x256 by 256x256 matmul takes about 15 ms
instead of 0.12 ms.  So each runner runs once to warm up, and the demo
reports the median wall time of 5 alternated runs of each.  It exits
with status 1 if any threaded trace differs from the clocked one.

On a single-core machine this demo still runs, but expect little of
the speedup to survive — the threads mostly take turns.

Run:  python3 demos/05_parallel_throughput.py
"""
import os
import statistics
import sys

import numpy as np

from adl.data import Dataset
from adl.net import affine, relu
from adl.optimizer import ConstantLr
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import compare_traces

WIDTH, N, UPDATES, RUNS = 256, 512, 40, 5

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

reference = run_clocked(config(), data)  # warm-up, and the bits to match
traces = [reference, run_parallel(config(), data)]
walls = {run_clocked: [], run_parallel: []}
for _ in range(RUNS):
    for runner, times in walls.items():
        traces.append(runner(config(), data))
        times.append(traces[-1].wall_time)
clocked, threaded = (statistics.median(times) for times in walls.values())
identical = all(compare_traces(reference, trace, tol=0.0).passed
                for trace in traces)

print(f"median of {RUNS} alternated runs, after one warm-up run each")
print(f"clocked : {clocked:7.3f} s ({UPDATES / clocked:6.1f} updates/s)")
print(f"threaded: {threaded:7.3f} s ({UPDATES / threaded:6.1f} updates/s)")
print(f"speedup : {clocked / threaded:.2f}x")
print(f"traces bit-identical: {identical}")
if not identical:
    sys.exit(1)
