"""Correctness checks the benchmark runs in untimed passes.

Each check recomputes a property the method must have, or a quantity
the benchmark derives by itself; none compares against a stored copy of
an earlier output.  Every function returns a list of error strings, empty
when the check passes, so a failure says what went wrong.
"""
from __future__ import annotations

import math

import numpy as np

from adl.trace import compare_traces, read_csv, write_csv
from reference import reference_gradient


def identical(a, b) -> list:
    """Bit identity of two traces: `compare_traces` at tolerance 0, which
    also compares the parameter histories when both traces recorded them."""
    if a.S != b.S:
        return [f"{a.mode} has {a.S} updates, {b.mode} has {b.S}"]
    report = compare_traces(a, b, tol=0.0)
    if report.passed:
        return []
    return [f"{a.mode} and {b.mode} differ from update "
            f"{report.first_divergence}: loss {report.max_loss_diff!r}, "
            f"norm {report.max_grad_norm_diff!r}, "
            f"params {report.max_param_diff!r}, "
            f"provenance equal {report.provenance_equal}"]


def completed(trace, updates: int) -> list:
    """The run made all its updates, did not diverge, and every loss and
    gradient norm it reports is finite."""
    errors = []
    if trace.diverged:
        errors.append(f"{trace.mode} diverged: {trace.divergence_reason}")
    if trace.S != updates:
        errors.append(f"{trace.mode} made {trace.S} of {updates} updates")
    bad = [r.s for r in trace.updates
           if not (math.isfinite(r.loss) and math.isfinite(r.grad_norm))]
    if bad:
        errors.append(f"{trace.mode} has non-finite values at updates {bad}")
    return errors


def provenance(trace, K: int, M: int) -> list:
    """Slot provenance recomputed in integer arithmetic.

    Slot j of update s+1 in module k carries batch M*s + j - 2*(K-k) at
    parameter version floor(batch / M), or is a skipped fill slot when
    the batch is negative; the top module closes update s+1 at tick
    M*(s+1) - 1 + (K-1); module k has exactly 2*(K-k) fill slots.
    """
    errors = []
    fills = dict.fromkeys(range(1, K + 1), 0)
    for rec in trace.updates:
        if rec.tick != M * (rec.s + 1) - 1 + (K - 1):
            errors.append(f"update {rec.s}: tick {rec.tick}")
        if sorted(rec.slots) != list(fills):
            errors.append(f"update {rec.s}: modules {sorted(rec.slots)}")
            continue
        for k, slots in rec.slots.items():
            if [slot.j for slot in slots] != list(range(M)):
                errors.append(f"update {rec.s} module {k}: slots "
                              f"{[slot.j for slot in slots]}")
            for slot in slots:
                batch = M * rec.s + slot.j - 2 * (K - k)
                version = batch // M if batch >= 0 else None
                if (slot.batch_index, slot.version) != (batch, version):
                    errors.append(
                        f"update {rec.s} module {k} slot {slot.j}: batch "
                        f"{slot.batch_index} version {slot.version}, "
                        f"expected {batch} {version}")
                fills[k] += slot.version is None
    if M * trace.S >= 2 * (K - 1):
        errors += [f"module {k} has {n} fill slots, expected {2 * (K - k)}"
                   for k, n in fills.items() if n != 2 * (K - k)]
    return errors[:10]


def roundtrip(trace, path) -> list:
    """`read_csv(write_csv(trace))` compares equal to the trace at tol 0."""
    write_csv(trace, path)
    back = read_csv(path)
    errors = []
    if (back.K, back.M, back.S, back.diverged) != \
            (trace.K, trace.M, trace.S, trace.diverged):
        errors.append(f"header read back as K={back.K} M={back.M} "
                      f"S={back.S} diverged={back.diverged}")
    return errors + identical(trace, back)


def event_count(path, K: int, M: int, S: int) -> list:
    """events.csv of a tick-level run has one row per forward (M*S in
    every module), per backward (M*S - 2*(K-k) in module k) and per
    update (S in every module)."""
    with open(path) as fh:
        rows = sum(1 for _ in fh) - 1
    MS = M * S
    expected = K * MS + sum(max(0, MS - 2 * (K - k))
                            for k in range(1, K + 1)) + K * S
    return [] if rows == expected else \
        [f"events.csv has {rows} rows, expected {expected}"]


def first_update(trace, layers, loss: str, init_flat, batches, lr: float,
                 rtol: float = 1e-10) -> list:
    """The first averaged gradient of a synchronous run, recorded with
    `record_grads`, matches `reference_gradient` at the initial weights;
    the initial weights are the ones set-up built; and the first update
    is exactly theta - lr * g (plain SGD)."""
    errors = []
    theta0, theta1 = trace.params[0], trace.params[1]
    if not np.array_equal(theta0, init_flat):
        errors.append("recorded initial parameters differ from init_states")
    ref = reference_gradient(layers, loss, theta0, batches)
    got = trace.grads[0]
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    err = float(np.max(np.abs(got - ref))) / scale
    if not err <= rtol:
        errors.append(f"first gradient off by {err:.3e} relative to the "
                      f"numpy reference (tolerance {rtol:.0e})")
    if not np.array_equal(theta1, theta0 - lr * got):
        errors.append("first update is not theta - lr * g")
    return errors
