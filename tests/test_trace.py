"""CSV round-trips, summaries, and observed-staleness extraction."""
import math

import pytest

from adl.errors import ComparisonError
from adl.oracle import sync_ga_sgd
from adl.scheduler import run_clocked
from adl.staleness import averaged_los
from adl.trace import (CSV_COLUMNS, compare_traces, observed_averaged_los,
                       read_csv, summary_text, write_csv, write_events_csv)


def roundtrip(trace, tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(trace, path)
    return path, read_csv(path)


def test_csv_roundtrip_exact(tmp_path, spiral_case):
    cfg, ds = spiral_case(3, 2, S=9)
    trace = run_clocked(cfg, ds)
    _, back = roundtrip(trace, tmp_path)
    assert back.K == 3 and back.M == 2 and not back.diverged
    assert back.S == trace.S
    for ra, rb in zip(trace.updates, back.updates):
        assert (ra.s, ra.tick) == (rb.s, rb.tick)
        assert ra.loss == rb.loss          # repr round-trip is bit-exact
        assert ra.grad_norm == rb.grad_norm
        assert ra.slots == rb.slots


def test_csv_marks_skipped_slots(tmp_path, spiral_case):
    cfg, ds = spiral_case(3, 2, S=4)
    path, back = roundtrip(run_clocked(cfg, ds), tmp_path)
    text = path.read_text().splitlines()
    assert text[0] == "# K=3"
    assert text[4] == ",".join(CSV_COLUMNS)
    first_m1 = next(l for l in text[5:] if l.split(",")[4] == "1")
    assert first_m1.endswith(",,")  # fill slot: no version, no staleness
    assert back.updates[0].slots[1][0].skipped


def test_csv_diverged_flag(tmp_path, spiral_case):
    cfg, ds = spiral_case(2, 1, S=50, lr=2000.0)
    trace = run_clocked(cfg, ds)
    assert trace.diverged
    _, back = roundtrip(trace, tmp_path)
    assert back.diverged and back.S == trace.S


def test_compare_traces_treats_nan_as_a_difference(spiral_case):
    cfg, ds = spiral_case(2, 2, S=6, record_params=True)
    a = run_clocked(cfg, ds)
    b = run_clocked(cfg, ds)
    b.updates[2].loss = math.nan
    rep = compare_traces(a, b, tol=1e-6)
    assert not rep.passed and rep.first_divergence == 2
    assert rep.max_loss_diff == math.inf
    b = run_clocked(cfg, ds)
    b.params[4][7] = math.nan  # the version update 4 produced
    rep = compare_traces(a, b, tol=1e-6)
    assert not rep.passed and rep.first_divergence == 3
    assert rep.max_param_diff == math.inf


def test_compare_traces_refuses_parameter_histories_of_unequal_length(
        spiral_case):
    cfg, ds = spiral_case(2, 2, S=4, record_params=True)
    a, b = run_clocked(cfg, ds), run_clocked(cfg, ds)
    b.params.pop()
    with pytest.raises(ComparisonError, match="differ in length"):
        compare_traces(a, b)


def test_compare_traces_refuses_parameter_vectors_of_unequal_size(
        spiral_case):
    # two nets of other widths: the vectors used to reach numpy unchecked
    # and fail to broadcast
    a = run_clocked(*spiral_case(2, 2, S=3, hidden=8, record_params=True))
    b = run_clocked(*spiral_case(2, 2, S=3, hidden=6, record_params=True))
    sizes = f"{a.params[0].size} vs {b.params[0].size}"
    with pytest.raises(ComparisonError, match=f"differ in size: {sizes}"):
        compare_traces(a, b)


def test_compare_traces_passes_identical_diverged_traces(spiral_case):
    # run until the loss is NaN; infinities in the same places also match
    cfg, ds = spiral_case(2, 1, S=60, lr=2000.0, divergence_limit=math.inf)
    a, b = run_clocked(cfg, ds), run_clocked(cfg, ds)
    assert a.diverged and math.isnan(a.updates[-1].loss)
    for trace in (a, b):
        trace.updates[-2].grad_norm = math.inf
    rep = compare_traces(a, b, tol=0.0)
    assert rep.passed and rep.max_loss_diff == rep.max_grad_norm_diff == 0.0


def test_read_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not,a,trace\n1,2,3\n")
    with pytest.raises(ComparisonError):
        read_csv(p)
    p2 = tmp_path / "bad2.csv"
    p2.write_text(",".join(CSV_COLUMNS) + "\n0,1,2\n")
    with pytest.raises(ComparisonError):
        read_csv(p2)


# rows 5-8 are update 0: module 1's two fill slots (j = 0, 1), then
# module 2's two real slots
@pytest.mark.parametrize("i,column,edit", [
    (6, 1, lambda v: str(int(v) + 1)),
    (6, 2, lambda v: repr(float(v) + 1.0)),
    (6, 3, lambda v: repr(float(v) * 2.0)),
    (6, 5, lambda v: "0"),  # module 1 repeats j=0
    (8, 8, lambda v: "99"),  # a real slot's d_kj is not s - version_used
    (6, 8, lambda v: "5")],  # a fill slot has a d_kj
    ids=["tick", "loss", "grad_norm", "j", "d_kj", "fill_d_kj"])
def test_read_csv_rejects_rows_of_one_update_that_disagree(
        tmp_path, spiral_case, i, column, edit):
    cfg, ds = spiral_case(2, 2, S=3)
    path, _ = roundtrip(run_clocked(cfg, ds), tmp_path)
    lines = path.read_text().splitlines()
    row = lines[i].split(",")
    row[column] = edit(row[column])
    lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ComparisonError, match="trace.csv: row '0,"):
        read_csv(path)


def test_read_csv_takes_equal_values_spelled_differently(tmp_path,
                                                        spiral_case):
    # one loss written as 1.5e0 and 1.5, and a NaN grad_norm as nan and NaN
    cfg, ds = spiral_case(2, 2, S=3)
    path, _ = roundtrip(run_clocked(cfg, ds), tmp_path)
    lines = path.read_text().splitlines()
    for i in (5, 6, 7, 8):  # the four rows of update 0
        row = lines[i].split(",")
        row[2] = f"{float(row[2]):.17e}" if i == 6 else row[2]
        row[3] = "NaN" if i == 6 else "nan"
        lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    back = read_csv(path)
    assert math.isnan(back.updates[0].grad_norm)
    assert back.updates[0].loss == float(lines[5].split(",")[2])


def test_observed_staleness_matches_prediction(spiral_case):
    cfg, ds = spiral_case(3, 4, S=8)
    trace = run_clocked(cfg, ds)
    for k in (1, 2, 3):
        assert observed_averaged_los(trace, k) == averaged_los(3, k, 4)


def test_observed_staleness_none_before_steady(spiral_case):
    cfg, ds = spiral_case(3, 1, S=2)  # still inside pipeline fill
    trace = run_clocked(cfg, ds)
    assert observed_averaged_los(trace, 1) is None


def test_summary_text_fields(spiral_case):
    cfg, ds = spiral_case(2, 2, S=5)
    trace = run_clocked(cfg, ds)
    text = summary_text(trace)
    assert "mode: adl-clocked" in text
    assert "updates_completed: 5" in text
    assert "module_1_avg_staleness: observed=1 predicted=1" in text
    assert "module_2_avg_staleness: observed=0 predicted=0" in text
    assert "final_loss:" in text


def test_events_csv(tmp_path, spiral_case):
    cfg, ds = spiral_case(2, 1, S=3, trace_ticks=True)
    trace = run_clocked(cfg, ds)
    path = tmp_path / "events.csv"
    write_events_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,module,event,index"
    assert lines[1] == "0,1,forward,0"
    kinds = {l.split(",")[2] for l in lines[1:]}
    assert kinds == {"forward", "backward", "update"}


def test_sync_trace_uses_module_one(tmp_path, spiral_case):
    cfg, ds = spiral_case(1, 2, S=4)
    trace = sync_ga_sgd(cfg, ds)
    assert trace.K == 1
    _, back = roundtrip(trace, tmp_path)
    assert set(back.updates[0].slots) == {1}
