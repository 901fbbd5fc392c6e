"""Exercise the convergence-bound calculators.

Three calculators quantify how staleness taxes SGD:

  * theorem1_rhs  — expected one-step descent bound.  Negative means the
    update provably makes progress in expectation; the staleness term
    raises the bar on the learning rate.
  * theorem2_rhs  — ergodic bound on min E||g||^2 over S updates for a
    diminishing (non-increasing) learning-rate sequence.
  * theorem3_lr / theorem3_bound — the tuned constant rate for a fixed
    budget S and the min E||g||^2 guarantee at that rate, decaying as
    1/sqrt(M*S).

All of them depend on the pipeline only through M and the summed
average version lag, sum_k dbar_k.

Run:  python3 demos/03_bounds.py
"""
import numpy as np

from adl.staleness import (averaged_los_sum, theorem1_rhs, theorem2_rhs,
                           theorem3_bound, theorem3_lr, theorem3_lr_ok)

print("=" * 64)
print("1. When does one update provably descend?")
print("=" * 64)
print("A=1, L=1, ||g||^2 = 4, K=2 modules, M=2, sum dbar = 3:")
for lr in (0.4, 0.2, 0.1, 0.05):
    rhs = theorem1_rhs(lr, 4.0, A=1.0, L=1.0, M=2, dbar_sum=3.0)
    verdict = "descends" if rhs < 0 else "no guarantee"
    print(f"  lr={lr:5.2f}: bound {rhs:+.4f}  ({verdict})")

print()
print("=" * 64)
print("2. Ergodic guarantee under a harmonic schedule")
print("=" * 64)
dbar = float(averaged_los_sum(3, 4))   # K=3 pipeline, M=4
print(f"K=3, M=4: sum of average lags = {dbar}")
print("lr_s = 0.08/(s+1), gap = 0.01, A = L = 1:")
for S in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    lrs = 0.08 / (np.arange(S, dtype=np.float64) + 1.0)
    b = theorem2_rhs(lrs, gap=0.01, A=1.0, L=1.0, M=4, dbar_sum=dbar)
    print(f"  S={S:>9,d}: min E||g||^2 <= {b:.6f}")
print("The bound vanishes, so the trajectory visits critical points.")

print()
print("=" * 64)
print("3. Tuned constant rate for a fixed budget")
print("=" * 64)
print("gap=1, A=L=1, M=1, no lag, epsilon=1:")
for S in (4, 100, 10000):
    lr = theorem3_lr(1.0, 1.0, S, A=1.0, L=1.0, M=1, dbar_sum=0.0)
    ok = theorem3_lr_ok(1.0, 1.0, S, A=1.0, L=1.0, M=1, dbar_sum=0.0)
    bound = theorem3_bound(1.0, 1.0, S, A=1.0, L=1.0, M=1, dbar_sum=0.0)
    print(f"  S={S:>6d}: lr={lr:.4f} (L*lr<=1: {ok}), "
          f"min E||g||^2 <= {bound:.4f}")

print()
print("=" * 64)
print("4. Accumulation buys back the staleness tax")
print("=" * 64)
print("Same K=8 pipeline, same batch budget; deeper accumulation trades")
print("update count for smaller lag and a smaller constant:")
for M in (1, 2, 4, 8):
    dbar = float(averaged_los_sum(8, M))
    S = 8192 // M
    bound = theorem3_bound(1.0, 1.0, S, A=1.0, L=1.0, M=M, dbar_sum=dbar)
    print(f"  M={M}: sum dbar = {dbar:6.2f}, S={S:5d}, "
          f"guarantee {bound:.4f}")
print("The 1/sqrt(M*S) scaling keeps M*S fixed here, so the whole")
print("difference comes from the (1 + dbar_sum/M) staleness factor.")
