"""Walk through the pipeline schedule and the staleness arithmetic.

A depth-wise split network trains as a K-stage pipeline: module k
forwards batch b at tick b + (k-1) and receives the matching gradient
2*(K-k) ticks later.  Because updates happen while gradients are still
in flight, module k applies gradients computed on parameters that are
d versions old.  Gradient accumulation (averaging M consecutive
micro-batch gradients per update) divides that version lag, averaged
over the M slots of an update, by exactly M: 2*(K-k) becomes 2*(K-k)/M.

Run:  python3 demos/01_schedule_and_staleness.py
"""
from fractions import Fraction

from adl.partition import partition_by_cost, partition_even
from adl.scheduler import TrainConfig, run_clocked, schedule_position
from adl.staleness import averaged_los, effective_version, steady_staleness
from adl.net import identity
from adl.data import gen_linreg
from adl.optimizer import ConstantLr

K = 3
print("=" * 64)
print(f"1. Who does what, tick by tick (K={K} modules, M=1)")
print("=" * 64)
print("Each cell shows F<b> when the module forwards batch b and B<t>")
print("when it backpropagates batch t in the same tick.\n")
header = "tick | " + " | ".join(f"module {k}" for k in range(1, K + 1))
print(header)
print("-" * len(header))
for tick in range(10):
    cells = []
    for k in range(1, K + 1):
        fwd = tick - (k - 1)                 # batch forwarded this tick
        bwd = fwd - 2 * (K - k)              # batch backpropagated
        cell = f"F{fwd}" if fwd >= 0 else "  "
        cell += f" B{bwd}" if bwd >= 0 else ""
        cells.append(f"{cell:8s}")
    print(f"{tick:4d} | " + " | ".join(cells))
print("\nschedule_position(b, k, K) gives the same numbers, e.g.")
for b, k in ((0, 1), (0, 3), (4, 2)):
    f, bw = schedule_position(b, k, K)
    print(f"  batch {b}, module {k}: forward tick {f}, backward tick {bw}")

print()
print("=" * 64)
print("2. Version lag per accumulation slot")
print("=" * 64)
print("steady_staleness(K, k, M, j) = how many versions old the")
print("parameters were when slot j of update s+1 was computed; it is the")
print("same for every s, and effective_version(s, j, K, k, M) is")
print("max(0, s - it).\n")
print("K=3, M=4, module 2: the four slots of each update show")
print("the pattern (1, 1, 0, 0) — half the group is already fresh:")
for s in (2, 3, 4):
    lags = tuple(s - effective_version(s, j, 3, 2, 4) for j in range(4))
    print(f"  update s={s}: {lags}")
assert lags == tuple(steady_staleness(3, 2, 4, j) for j in range(4))
print("\nWithout accumulation (M=1) the lag is constant 2*(K-k):")
for k in (1, 2, 3):
    print(f"  module {k}: {steady_staleness(3, k, 1, 0)}")

print()
print("=" * 64)
print("3. Average lag vs. accumulation depth (first module, K=8)")
print("=" * 64)
for M in (1, 2, 4, 8):
    v = averaged_los(8, 1, M)
    print(f"  M={M}: average lag = {v} ({float(v):.2f})")
drop = 1 - averaged_los(8, 1, 4) / averaged_los(8, 1, 1)
assert drop == Fraction(3, 4)
print(f"  M=1 -> M=4 cuts the average lag by {drop} (exactly 75%).")

print()
print("=" * 64)
print("4. The scheduler records exactly this provenance")
print("=" * 64)
cfg = TrainConfig([identity(1) for _ in range(3)], partition_even(3, 3),
                  "mse", 4, 2, 5, ConstantLr(0.05), seed=0)
trace = run_clocked(cfg, gen_linreg(16, 1, 0.0, seed=7))
rec = trace.updates[3]
print(f"update s={rec.s} slots of module 2 "
      f"(batch, version): "
      f"{[(sl.batch_index, sl.version) for sl in rec.slots[2]]}")
print(f"version lags: {tuple(rec.s - sl.version for sl in rec.slots[2])}")

print()
print("=" * 64)
print("5. Splitting a cost profile into K balanced modules")
print("=" * 64)
costs = [6, 1, 1, 1, 1, 6, 2, 2]
for K in (2, 3, 4):
    part = partition_by_cost(costs, K)
    sizes = [len(part.layers_of(k)) for k in range(1, K + 1)]
    loads = [sum(costs[i] for i in part.layers_of(k))
             for k in range(1, K + 1)]
    print(f"  K={K}: layer counts {sizes}, per-module cost {loads} "
          f"(bottleneck {max(loads)})")
