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
from .errors import (AdlError, ComparisonError, ConfigError, DimensionError,
                     DomainError, ProtocolError)
from .net import (AFFINE, IDENTITY, LOSS_KINDS, MSE, RELU, SOFTMAX_CE, TANH,
                  LayerSpec, LayerState, NetContext, affine, finite_diff_grad,
                  identity, init_states, layer_backward, layer_forward,
                  loss_and_grad, net_backward, net_forward, relu, tanh)
from .partition import (Partition, partition_by_cost, partition_by_params,
                        partition_even)
from .staleness import (BoundInputs, averaged_los, averaged_los_sum,
                        effective_version, estimate_grad_bound,
                        estimate_lipschitz, level_of_staleness,
                        module_staleness, steady_staleness, theorem1_rhs,
                        theorem2_rhs, theorem3_bound, theorem3_lr,
                        theorem3_lr_ok)
from .optimizer import (Accumulator, ConstantLr, Harmonic, SgdConfig, Slot,
                        StepDecay, ga_update, global_grad_norm, grads_sumsq,
                        lr_at, scaled_base_lr)
from .data import (CLASSIFICATION, REGRESSION, Dataset, batch_indices,
                   gen_linreg, gen_two_spirals, make_dataset, sample_batch)
from .scheduler import TrainConfig, run_clocked, run_parallel, schedule_position
from .oracle import delayed_replay, sync_ga_sgd
from .trace import (CompareReport, RunTrace, StopWatch, TickEvent,
                    UpdateRecord, compare_traces, observed_averaged_los,
                    read_csv, summary_text, write_csv)

__version__ = "0.1.0"

__all__ = [
    "AdlError", "ComparisonError", "ConfigError", "DimensionError",
    "DomainError", "ProtocolError",
    "AFFINE", "IDENTITY", "LOSS_KINDS", "MSE", "RELU", "SOFTMAX_CE", "TANH",
    "LayerSpec", "LayerState", "NetContext", "affine", "finite_diff_grad",
    "identity", "init_states", "layer_backward", "layer_forward",
    "loss_and_grad", "net_backward", "net_forward", "relu", "tanh",
    "Partition", "partition_by_cost", "partition_by_params", "partition_even",
    "BoundInputs", "averaged_los", "averaged_los_sum", "effective_version",
    "estimate_grad_bound", "estimate_lipschitz", "level_of_staleness",
    "module_staleness", "steady_staleness", "theorem1_rhs", "theorem2_rhs",
    "theorem3_bound", "theorem3_lr", "theorem3_lr_ok",
    "Accumulator", "ConstantLr", "Harmonic", "SgdConfig", "Slot", "StepDecay",
    "ga_update", "global_grad_norm", "grads_sumsq", "lr_at", "scaled_base_lr",
    "CLASSIFICATION", "REGRESSION", "Dataset", "batch_indices", "gen_linreg",
    "gen_two_spirals", "make_dataset", "sample_batch",
    "TrainConfig", "run_clocked", "run_parallel", "schedule_position",
    "delayed_replay", "sync_ga_sgd",
    "CompareReport", "RunTrace", "StopWatch", "TickEvent", "UpdateRecord",
    "compare_traces", "observed_averaged_los", "read_csv", "summary_text",
    "write_csv",
]
