"""Show that all execution modes compute literally the same training run.

The pipeline's semantics are pinned down by a deterministic clocked
simulation (`run_clocked`).  Two independent re-implementations must
reproduce it bit for bit:

  * `delayed_replay` ignores the pipeline entirely: it recomputes each
    batch's gradient from scratch, in one full pass on the parameter
    version the batch is defined to use, adds each module's slice to
    the update that accumulation slot is defined to feed, and applies
    the updates.  Agreement proves the scheduler delivers exactly the
    delayed gradients it advertises.
  * `run_parallel` executes the same schedule with one thread per
    module and FIFO queues.  Agreement proves the concurrency is
    observationally pure.
  * with K=1 the pipeline has no delays at all, so it must equal plain
    synchronous gradient-accumulation SGD (`sync_ga_sgd`).

Run:  python3 demos/02_equivalence.py
"""
import numpy as np

from adl.data import gen_two_spirals
from adl.net import affine, tanh
from adl.optimizer import ConstantLr
from adl.oracle import delayed_replay, sync_ga_sgd
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked, run_parallel
from adl.trace import compare_traces

HID = 8
SPECS = [affine(2, HID), tanh(HID), affine(HID, HID), tanh(HID),
         affine(HID, HID), affine(HID, 2)]
DATA = gen_two_spirals(256, 0.0, seed=100)


def config(K, M, S=120):
    return TrainConfig(SPECS, partition_even(len(SPECS), K), "softmax_ce",
                       M, 16, S, ConstantLr(0.05), seed=0,
                       record_params=True)


print("6-layer tanh classifier on two spirals, 120 updates each.\n")
for K, M in ((2, 1), (3, 4), (6, 2)):
    clocked = run_clocked(config(K, M), DATA)
    replay = delayed_replay(config(K, M), DATA)
    threaded = run_parallel(config(K, M), DATA)
    r1 = compare_traces(clocked, replay, tol=0.0)
    r2 = compare_traces(clocked, threaded, tol=0.0)
    print(f"K={K} M={M}:")
    print(f"  clocked vs replay   passed={r1.passed} "
          f"max|loss diff|={r1.max_loss_diff} "
          f"max|param diff|={r1.max_param_diff}")
    print(f"  clocked vs threaded passed={r2.passed} "
          f"max|loss diff|={r2.max_loss_diff} "
          f"max|param diff|={r2.max_param_diff}")

print("\nK=1 (no split, hence no delay) against synchronous GA-SGD:")
for M in (1, 4):
    a = run_clocked(config(1, M), DATA)
    b = sync_ga_sgd(config(1, M), DATA)
    r = compare_traces(a, b, tol=0.0)
    print(f"  M={M}: passed={r.passed} "
          f"final losses {a.final_loss():.6f} / {b.final_loss():.6f} "
          f"params identical={bool(r.max_param_diff == 0.0)}")

print("\nAnd a negative control: perturb one weight by 1e-12 and the")
print("comparison localizes the first diverging update:")
cfg = config(2, 2)
base = run_clocked(cfg, DATA)
cfg2 = config(2, 2)
other = run_clocked(cfg2, DATA)
other.params[5] = other.params[5].copy()
other.params[5][0] += 1e-12
r = compare_traces(base, other, tol=0.0)
print(f"  passed={r.passed}, first divergence at update {r.first_divergence}")
assert not r.passed and r.first_divergence == 4
