"""Ablation: gradient accumulation rescues a deep pipeline.

An 8-module split of a 5-affine tanh classifier gives the first module
an average version lag of 14 when every micro-batch triggers an update
(M=1).  At a learning rate where ordinary synchronous SGD trains this
net without trouble, that lag is enough to stall or destabilize
training.  Accumulating M=4 micro-batches per update cuts the average
lag to 3.5 and training works again — at identical total batch budget,
i.e. M=4 takes 4x fewer (but better) updates.

This is a scaled-down direction-of-effect experiment, not a benchmark.

Run:  python3 demos/04_ga_ablation.py        (~22 s on 2 cores)
"""
import numpy as np

from adl.data import gen_two_spirals
from adl.net import affine, net_forward, tanh
from adl.optimizer import ConstantLr
from adl.oracle import sync_ga_sgd
from adl.partition import partition_even
from adl.scheduler import TrainConfig, run_clocked
from adl.staleness import averaged_los

H = 32
SPECS = [affine(2, H), tanh(H)]
for _ in range(3):
    SPECS += [affine(H, H), tanh(H)]
SPECS += [affine(H, 2)]

DATA = gen_two_spirals(256, 0.0, 42)
TOTAL_BATCHES = 8192
LR = 0.5
SEEDS = (0, 1, 2)


def full_loss_and_acc(flat):
    states = np.split(flat, np.cumsum([s.param_count for s in SPECS])[:-1])
    loss, ctx = net_forward(SPECS, states, DATA.inputs, "softmax_ce",
                            DATA.targets)
    acc = float(np.mean(np.argmax(ctx.output, axis=1) == DATA.targets))
    return float(loss), acc


def train(K, M, runner, seed):
    cfg = TrainConfig(SPECS, partition_even(len(SPECS), K), "softmax_ce",
                      M, 16, TOTAL_BATCHES // M, ConstantLr(LR),
                      seed=seed, init_scale=1.5)
    trace = runner(cfg, DATA)
    if trace.diverged:
        return float("inf"), 0.0
    return full_loss_and_acc(trace.final_params)


print(f"two spirals, {len(SPECS)}-layer tanh net, lr={LR}, "
      f"{TOTAL_BATCHES} micro-batches total\n")
print(f"{'run':>22s} {'avg lag k=1':>12s} {'updates':>8s} "
      f"{'loss (3 seeds)':>24s} {'median':>8s} {'acc':>6s}")
for label, K, M, runner in (
        ("synchronous SGD", 1, 1, sync_ga_sgd),
        ("pipeline, M=1", 8, 1, run_clocked),
        ("pipeline, M=4", 8, 4, run_clocked)):
    lag = float(averaged_los(8, 1, M)) if K == 8 else 0.0
    results = [train(K, M, runner, s) for s in SEEDS]
    losses = [r[0] for r in results]
    accs = [r[1] for r in results]
    med = float(np.median(losses))
    print(f"{label:>22s} {lag:12.1f} {TOTAL_BATCHES // M:8d} "
          f"{' '.join(f'{l:7.4f}' for l in losses):>24s} {med:8.4f} "
          f"{float(np.median(accs)):6.2f}")

print("\nSame data, same learning rate: the un-accumulated pipeline's")
print("lag-14 gradients stall training; averaging groups of 4 restores")
print("near-synchronous quality with one-quarter the updates.")
