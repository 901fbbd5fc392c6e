"""Depth-partitioned pipeline training with delayed gradients.

A network is split into K stacked modules that run concurrently on a
shared clock: while module k forwards micro-batch b, the other modules
work on neighbouring batches, and gradients arrive back at module k
with a fixed, computable delay.  Accumulating M micro-gradients before
each parameter update divides the *effective* staleness by M, which is
the quantity the convergence bounds in :mod:`adl.staleness` track.

Entry points:

* :func:`adl.scheduler.run_clocked` / :func:`adl.scheduler.run_parallel`
  -- the pipeline itself (single-thread clock or thread-per-module).
* :func:`adl.oracle.delayed_replay` -- the reference oracle the pipeline
  must match bit for bit; :func:`adl.oracle.sync_ga_sgd` is its K = 1
  case, plain synchronous gradient-accumulation SGD.
* :mod:`adl.cli` -- ``adl run|staleness-table|bounds|compare``.
"""
from .data import gen_two_spirals, sample_batch
from .net import affine, init_states, relu, tanh
from .optimizer import ConstantLr, lr_at
from .oracle import delayed_replay, sync_ga_sgd
from .partition import partition_even
from .scheduler import TrainConfig, run_clocked, run_parallel
from .trace import compare_traces, read_csv

__version__ = "0.1.0"

__all__ = [
    "ConstantLr", "TrainConfig", "affine", "compare_traces", "delayed_replay",
    "gen_two_spirals", "init_states", "lr_at", "partition_even", "read_csv",
    "relu", "run_clocked", "run_parallel", "sample_batch", "sync_ga_sgd",
    "tanh",
]
