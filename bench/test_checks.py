"""Negative controls for the benchmark's correctness checks.

Each check must pass on a healthy run and fail once one number or one
provenance slot of that run is changed.  Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import adl  # noqa: E402
import adl.scheduler  # noqa: E402
import checks as C  # noqa: E402
from tracing import Tracer  # noqa: E402

SPECS = [adl.affine(2, 8), adl.tanh(8), adl.affine(8, 8), adl.relu(8),
         adl.affine(8, 2)]
DATA = adl.gen_two_spirals(64, 0.05, seed=3)


def _cfg(K=3, M=2, S=6, **flags):
    return adl.TrainConfig(SPECS, adl.partition_even(len(SPECS), K),
                           "softmax_ce", M, 8, S, adl.ConstantLr(0.1),
                           seed=5, **flags)


def test_bit_identity_fails_on_a_1e12_parameter_change():
    a = adl.run_clocked(_cfg(record_params=True), DATA)
    b = adl.delayed_replay(_cfg(record_params=True), DATA)
    assert C.identical(a, b) == []
    b.params[3] = b.params[3].copy()
    b.params[3][0] += 1e-12
    assert C.identical(a, b)


def test_provenance_fails_on_one_shifted_slot():
    trace = adl.run_clocked(_cfg(), DATA)
    assert C.provenance(trace, 3, 2) == []
    rec = trace.updates[4]
    slot = rec.slots[1][1]
    rec.slots[1][1] = dataclasses.replace(slot,
                                          batch_index=slot.batch_index + 1)
    assert C.provenance(trace, 3, 2)


def test_provenance_counts_fill_slots():
    trace = adl.run_clocked(_cfg(), DATA)
    first = trace.updates[0].slots[1]
    trace.updates[0].slots[1] = [dataclasses.replace(s, version=0)
                                 for s in first]
    errors = C.provenance(trace, 3, 2)
    assert any("fill slots" in e for e in errors)


def test_reference_gradient_fails_on_a_perturbed_gradient():
    cfg = _cfg(K=1, record_params=True, record_grads=True)
    trace = adl.sync_ga_sgd(cfg, DATA)
    init = np.concatenate([s.params for s in adl.init_states(SPECS, 5)])
    batches = [adl.sample_batch(DATA, 8, cfg.sampler_seed, t)
               for t in range(2)]
    assert C.first_update(trace, SPECS, "softmax_ce", init, batches,
                          0.1) == []
    trace.grads[0] = trace.grads[0] * (1 + 1e-8)
    assert C.first_update(trace, SPECS, "softmax_ce", init, batches, 0.1)


def test_roundtrip_and_event_count(tmp_path):
    trace = adl.run_clocked(_cfg(trace_ticks=True), DATA)
    assert C.roundtrip(trace, tmp_path / "t.csv") == []
    from adl.trace import write_events_csv
    write_events_csv(trace, tmp_path / "events.csv")
    assert C.event_count(tmp_path / "events.csv", 3, 2, 6) == []
    assert C.event_count(tmp_path / "events.csv", 3, 2, 7)


def test_tracer_keeps_the_bits_and_restores_every_name():
    import adl.cli
    import adl.optimizer
    import adl.oracle
    modules = {m.__name__: m for m in (adl.scheduler, adl.oracle, adl.cli,
                                       adl.optimizer)}
    originals = (adl.scheduler.layer_forward,
                 adl.scheduler.ModuleWorker.process_slot,
                 adl.optimizer.Accumulator.add, adl.cli.build_run)
    plain = adl.run_clocked(_cfg(), DATA)
    tracer = Tracer(modules)
    with tracer.installed():
        assert adl.scheduler.layer_forward is not originals[0]
        traced = tracer.root("runner.clocked", adl.run_clocked, _cfg(), DATA)
    assert (adl.scheduler.layer_forward,
            adl.scheduler.ModuleWorker.process_slot,
            adl.optimizer.Accumulator.add, adl.cli.build_run) == originals
    assert C.identical(plain, traced) == []
    names = {s[0] for s in tracer.spans}
    assert {"data.sample_batch", "net.layer_forward", "net.layer_backward",
            "optimizer.accumulator_add", "optimizer.ga_update",
            "scheduler.process_slot"} <= names
    assert tracer.spans[-1][0] == "runner.clocked"
    # module 1 of 3 at M=2 holds 2*(K-1) = 4 stashed contexts between slots
    assert tracer.stash_high_water[1] == 4

