"""End-to-end CLI behavior: configs, exit codes, files on disk."""
import configparser

import pytest

from adl.cli import build_run, main
from adl.staleness import averaged_los_sum, theorem2_rhs
from adl.trace import CSV_COLUMNS

BASE = {
    "model": {"layers": "affine:2:8 tanh:8 affine:8:2",
              "loss": "softmax_ce"},
    "partition": {"k": "2", "strategy": "even"},
    "data": {"dataset": "two_spirals", "n": "64", "noise_std": "0.0",
             "seed": "4"},
    "optimizer": {"ga_steps": "2", "updates": "5", "batch_size": "8",
                  "schedule": "constant", "lr": "0.05"},
    "run": {"mode": "adl-clocked", "seed": "1"},
}


def write_cfg(tmp_path, name="run.ini", out="out", **overrides):
    cfg = {sec: dict(keys) for sec, keys in BASE.items()}
    cfg["run"]["out"] = str(tmp_path / out)
    for sec, keys in overrides.items():
        if keys is None:
            cfg.pop(sec, None)
            continue
        cfg.setdefault(sec, {})
        for key, val in keys.items():
            if val is None:
                cfg[sec].pop(key, None)
            else:
                cfg[sec][key] = str(val)
    lines = []
    for sec, keys in cfg.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return path


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "trace.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "mode: adl-clocked" in summary
    assert "updates_completed: 5" in summary
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("bad,msg", [
    ({"run": {"mode": "warp"}}, "unknown mode"),
    ({"run": {"bogus": "1"}}, "unknown key"),
    ({"data": {"dataset": None}}, "missing required"),
    ({"data": None}, "missing config section"),
    ({"model": {"loss": "hinge"}}, "unknown loss"),
    ({"model": {"layers": "affine:2:8 tanh:9 affine:9:2"}}, "chain"),
    ({"optimizer": {"schedule": "linear"}}, "unknown schedule"),
    ({"partition": {"k": "9"}}, "cannot split"),
    ({"data": {"dataset": "linreg", "dim": "2"}}, "classification"),
    ({"optimizer": {"lr": "banana"}}, "bad value"),
    ({"optimizer": {"schedule": "step", "lr": "0.1",
                    "milestones": "2, x"}}, "bad value"),
    ({"partition": {"boundaries": "one"}}, "bad value"),
    ({"optimizer": {"schedule": "harmonic", "harmonic_c": "0.1",
                    "lr": "banana"}}, "bad value"),
    ({"data": {"dataset": "mnist"}}, "unknown dataset"),
    ({"optimizer": {"harmonic_c": "banana"}}, "bad value"),
    ({"optimizer": {"smoothness": "x"}}, "bad value"),
    ({"partition": {"boundaries": "1", "strategy": "bogus"}},
     "unknown partition strategy"),
    ({"model": {"init_scale": "-1"}}, "init_scale must be >= 0"),
    ({"model": {"init_scale": "inf"}}, "init_scale must be >= 0 and finite"),
    ({"optimizer": {"lr": "nan"}}, "learning rate must be >= 0 and finite"),
    ({"optimizer": {"lr": "inf"}}, "learning rate must be >= 0 and finite"),
    ({"optimizer": {"schedule": "harmonic", "harmonic_c": "nan"}},
     "harmonic c must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "warmup_epochs": "-3"}},
     "warmup_epochs must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "warmup_epochs": "nan"}},
     "warmup_epochs must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "milestones": "3,1"}},
     "milestones must not decrease"),
    ({"optimizer": {"schedule": "step", "milestones": "nan"}},
     "milestone must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "decay_factor": "-1"}},
     "decay factor must be >= 0 and finite"),
    ({"optimizer": {"weight_decay": "nan"}},
     "weight decay must be >= 0 and finite"),
    ({"data": {"noise_std": "nan"}}, "noise_std must be >= 0 and finite"),
    ({"run": {"seed": "-1"}}, "seed must be >= 0 and finite"),
    ({"data": {"seed": "-4"}}, "dataset seed must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "warmup_epochs": "1e308"}},
     "warm-up in updates must be >= 0 and finite"),
    ({"optimizer": {"schedule": "step", "batch_size": "0"}},
     "ga_steps, updates and batch_size must be >= 1"),
    ({"optimizer": {"schedule": "step", "ga_steps": "0"}},
     "ga_steps, updates and batch_size must be >= 1"),
    ({"model": {"layers": "affine:2"}}, "affine needs in:out dims"),
    ({"model": {"layers": "tanh:2:3"}}, "tanh needs one dim"),
    ({"model": {"layers": "conv:3"}}, "unknown layer token"),
    ({"model": {"layers": "affine:a:2"}},
     "bad value for [model] layers: 'affine:a:2'"),
    ({"model": {"layers": ""}}, "model.layers is empty"),
    ({"foo": {"bar": "1"}}, "unknown config section [foo]"),
    ({"data": {"dim": "2"}}, "two_spirals has a fixed dim of 2"),
    ({"run": {"trace_level": "verbose"}}, "trace_level must be updates|ticks"),
    ({"optimizer": {"lr": None}}, "schedule 'constant' needs an lr value"),
    # keys the constant schedule does not read are checked all the same
    ({"optimizer": {"harmonic_c": "nan"}},
     "harmonic c must be >= 0 and finite"),
    ({"optimizer": {"warmup_epochs": "-1"}},
     "warmup_epochs must be >= 0 and finite"),
    ({"optimizer": {"decay_factor": "nan"}},
     "decay factor must be >= 0 and finite"),
    ({"optimizer": {"milestones": "2 1"}}, "milestones must not decrease"),
    ({"optimizer": {"milestones": "nan"}},
     "milestone must be >= 0 and finite"),
    ({"optimizer": {"milestones": "1 -2"}},
     "milestone must be >= 0 and finite"),
    ({"optimizer": {"epsilon": "nan"}}, "epsilon must be positive and finite"),
    ({"optimizer": {"gap": "-1"}}, "gap must be positive and finite"),
    ({"optimizer": {"grad_bound": "nan"}},
     "grad_bound must be positive and finite"),
    ({"optimizer": {"smoothness": "-1"}},
     "smoothness must be positive and finite"),
    # and so is an lr that the harmonic and theorem3 schedules do not read
    ({"optimizer": {"schedule": "harmonic", "harmonic_c": "0.1",
                    "lr": "nan"}}, "learning rate must be >= 0 and finite"),
    ({"optimizer": {"schedule": "harmonic", "harmonic_c": "0.1",
                    "lr": "-1"}}, "learning rate must be >= 0 and finite"),
    ({"optimizer": {"schedule": "theorem3", "gap": "1", "grad_bound": "1",
                    "smoothness": "1", "lr": "nan"}},
     "learning rate must be >= 0 and finite"),
])
def test_bad_configs_exit_2(tmp_path, capsys, bad, msg):
    cfg = write_cfg(tmp_path, **bad)
    assert main(["run", str(cfg)]) == 2
    assert msg in capsys.readouterr().err


def test_malformed_config_file_exit_2(tmp_path, capsys):
    headless = tmp_path / "headless.ini"
    headless.write_text("layers = affine:2:2\n")
    not_utf8 = tmp_path / "not_utf8.ini"
    not_utf8.write_bytes(b"[model]\nlayers = affine:2:2 \xff\n")
    for path in (headless, not_utf8,
                 write_cfg(tmp_path, run={"out": "100%"})):
        assert main(["run", str(path)]) == 2, path
        assert "error:" in capsys.readouterr().err


def test_undecodable_file_is_named_on_exit_2(tmp_path, capsys):
    assert main(["run", str(write_cfg(tmp_path))]) == 0
    good = tmp_path / "out" / "trace.csv"
    bad = tmp_path / "latin1_trace.csv"
    bad.write_bytes(good.read_bytes().replace(b"\n0,", b"\n\xff,"))
    bad_ini = tmp_path / "latin1_config.ini"
    bad_ini.write_bytes(b"[model]\nlayers = affine:2:2 \xff\n")
    for argv, named in ((["compare", str(good), str(bad)], bad),
                        (["compare", str(bad), str(good)], bad),
                        (["run", str(bad_ini)], bad_ini)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert str(named) in err and "can't decode" in err, err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_divergence_exit_3_with_partial_trace(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        model={"layers": "affine:2:4 tanh:4 affine:4:1", "loss": "mse"},
        data={"dataset": "linreg", "dim": "2"},
        optimizer={"lr": "1e6", "updates": "50"},
        run={"trace_level": "ticks"})
    assert main(["run", str(cfg)]) == 3
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "diverged: True" in summary
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    events = (tmp_path / "out" / "events.csv").read_text().splitlines()
    # the events end at the tick of the last update the trace keeps
    assert events[-1].split(",")[0] == trace[-1].split(",")[1]


def test_k1_sync_and_pipeline_traces_byte_identical(tmp_path):
    a = write_cfg(tmp_path, "a.ini", out="A", partition={"k": "1"})
    b = write_cfg(tmp_path, "b.ini", out="B", partition={"k": "1"},
                  run={"mode": "sync-ga"})
    assert main(["run", str(a)]) == 0
    assert main(["run", str(b)]) == 0
    ta = (tmp_path / "A" / "trace.csv").read_bytes()
    tb = (tmp_path / "B" / "trace.csv").read_bytes()
    assert ta == tb


def test_all_modes_run(tmp_path):
    for mode in ("adl-clocked", "adl-parallel", "sync-ga", "delayed-replay"):
        cfg = write_cfg(tmp_path, f"{mode}.ini", out=mode,
                        run={"mode": mode})
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / mode / "trace.csv").exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ADL_OUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "envrun.ini", run={"out": None})
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "envout" / "envrun" / "trace.csv").exists()


def test_tick_trace_level(tmp_path):
    cfg = write_cfg(tmp_path, run={"trace_level": "ticks"})
    assert main(["run", str(cfg)]) == 0
    events = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert events[0] == "tick,module,event,index"
    # per module: M*S forwards, M*S - 2*(K-k) backwards and S updates
    K, M, S = 2, 2, 5
    assert len(events) - 1 == K * M * S + sum(
        M * S - 2 * (K - k) for k in range(1, K + 1)) + K * S


def test_auto_lr_and_momentum_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, optimizer={"lr": "auto", "momentum": "0.9"})
    assert main(["run", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "momentum" in err and "plain SGD" in err


def test_theorem3_schedule_and_precondition_warning(tmp_path, capsys):
    good = write_cfg(tmp_path, "t3.ini", out="t3", optimizer={
        "schedule": "theorem3", "lr": None, "gap": "1.0",
        "grad_bound": "1.0", "smoothness": "1.0", "epsilon": "0.5"})
    assert main(["run", str(good)]) == 0
    assert "precondition" not in capsys.readouterr().err
    loud = write_cfg(tmp_path, "t3b.ini", out="t3b", optimizer={
        "schedule": "theorem3", "lr": None, "gap": "10000.0",
        "grad_bound": "1.0", "smoothness": "1.0"})
    assert main(["run", str(loud)]) == 0
    assert "precondition violated" in capsys.readouterr().err


def test_harmonic_and_step_schedules(tmp_path):
    h = write_cfg(tmp_path, "h.ini", out="H", optimizer={
        "schedule": "harmonic", "lr": None, "harmonic_c": "0.3"})
    assert main(["run", str(h)]) == 0
    s = write_cfg(tmp_path, "s.ini", out="S", optimizer={
        "schedule": "step", "lr": "0.1", "warmup_epochs": "1",
        "milestones": "2, 4", "decay_factor": "0.5"})
    assert main(["run", str(s)]) == 0


def test_explicit_partition_boundaries(tmp_path):
    cfg = write_cfg(tmp_path, partition={"k": "2", "strategy": None,
                                         "boundaries": "1"})
    assert main(["run", str(cfg)]) == 0
    bad = write_cfg(tmp_path, "bad.ini", partition={"k": "3",
                                                    "boundaries": "1"})
    assert main(["run", str(bad)]) == 2


def test_partition_defaults_to_one_module_and_cost_splits(tmp_path, capsys):
    whole = write_cfg(tmp_path, "whole.ini", out="whole", partition=None)
    assert main(["run", str(whole)]) == 0
    assert "modules: 1\n" in capsys.readouterr().out
    # affine:2:8 costs 24 parameters, tanh:8 none, affine:8:2 18: the
    # leftmost least bottleneck cuts after the first layer, not the second
    cost = write_cfg(tmp_path, "cost.ini", out="cost",
                     partition={"strategy": "cost"})
    assert main(["run", str(cost)]) == 0
    assert "modules: 2\n" in capsys.readouterr().out
    for path, bounds in ((cost, (0, 1, 3)), (whole, (0, 3))):
        parser = configparser.ConfigParser()
        parser.read(path)
        assert build_run(parser, print)[1].partition.bounds == bounds


def test_staleness_table_values(capsys):
    assert main(["staleness-table", "--modules", "8",
                 "--ga-steps", "1,4"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line and line.split()[0].isdigit()}
    assert rows["1"] == ["14", "7/2"]
    assert rows["8"] == ["0", "0"]
    assert rows["3"][0] == "10"  # 2*(K-k)


def test_staleness_table_k_alias(capsys):
    assert main(["staleness-table", "--K", "3", "--M", "4"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out  # module 2 of 3 at M=4


def test_bounds_reproduces_reference_numbers(capsys):
    assert main(["bounds", "--modules", "2", "--ga-steps", "2",
                 "--grad-bound", "1", "--smoothness", "1",
                 "--dbar-sum", "3", "--lr", "0.1",
                 "--grad-norm-sq", "4"]) == 0
    out = capsys.readouterr().out
    assert "theorem1_rhs: -0.1875 (descent)" in out
    assert main(["bounds", "--modules", "1", "--ga-steps", "1",
                 "--grad-bound", "1", "--smoothness", "1",
                 "--gap", "1", "--updates", "4"]) == 0
    out = capsys.readouterr().out
    assert "theorem3_lr: 0.5 (L*lr <= 1: True)" in out
    assert "theorem3_bound: 2.0" in out


def test_bounds_prints_theorem2_for_a_harmonic_rate(capsys):
    assert main(["bounds", "--modules", "2", "--ga-steps", "2",
                 "--grad-bound", "1", "--smoothness", "1", "--updates", "4",
                 "--harmonic-c", "0.5", "--gap", "1"]) == 0
    rhs = theorem2_rhs([0.5 / (s + 1) for s in range(4)], 1.0, 1.0, 1.0, 2,
                       float(averaged_los_sum(2, 2)))
    out = capsys.readouterr().out
    assert f"theorem2_rhs (harmonic c=0.5, S=4): {rhs!r}\n" in out


def test_bounds_domain_error_exit_2(capsys):
    bound = ["--grad-bound", "1", "--smoothness", "1"]
    for argv in (
            ["bounds", "--modules", "1", "--ga-steps", "1",
             "--grad-bound", "-1", "--smoothness", "1", "--gap", "1"],
            ["staleness-table", "--K", "3", "--M", "0"],
            ["bounds", "--modules", "2", "--ga-steps", "0", *bound],
            ["bounds", "--modules", "2", "--ga-steps", "0", *bound,
             "--dbar-sum", "1"],
            ["staleness-table", "--K", "3", "--M", "-2"],
            ["staleness-table", "--K", "0", "--M", "1"],
            ["bounds", "--modules", "0", "--ga-steps", "1", *bound,
             "--gap", "1"],
            ["bounds", "--modules", "2", "--ga-steps", "1",
             "--grad-bound", "-1", "--smoothness", "1", "--dbar-sum", "-5"],
            ["bounds", "--modules", "2", "--ga-steps", "1",
             "--grad-bound", "1", "--smoothness", "inf"],
            ["bounds", "--modules", "2", "--ga-steps", "1", *bound,
             "--dbar-sum", "-5"],
            ["bounds", "--modules", "2", "--ga-steps", "1", *bound,
             "--dbar-sum", "nan"],
            ["bounds", "--modules", "2", "--ga-steps", "1", *bound,
             "--dbar-sum", "inf"],
            ["bounds", "--modules", "2", "--ga-steps", "1", *bound,
             "--lr", "nan", "--grad-norm-sq", "1"],
            ["bounds", "--modules", "2", "--ga-steps", "1", *bound,
             "--lr", "0.1", "--grad-norm-sq", "nan"],
            # an option is checked even when its partner is absent
            *(["bounds", "--modules", "2", "--ga-steps", "1", *bound,
               option, value]
              for option, value in (
                  ("--lr", "nan"), ("--grad-norm-sq", "-1"),
                  ("--harmonic-c", "-1"), ("--harmonic-c", "nan"),
                  ("--epsilon", "nan"), ("--epsilon", "-2"),
                  ("--updates", "-5"), ("--updates", "0")))):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and not captured.out, argv


def test_compare_exit_codes(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.ini", out="A")
    b = write_cfg(tmp_path, "b.ini", out="B")
    c = write_cfg(tmp_path, "c.ini", out="C", run={"seed": "2"})
    for f in (a, b, c):
        assert main(["run", str(f)]) == 0
    ta = str(tmp_path / "A" / "trace.csv")
    tb = str(tmp_path / "B" / "trace.csv")
    tc = str(tmp_path / "C" / "trace.csv")
    assert main(["compare", ta, tb]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert main(["compare", ta, tc, "--tol", "1e-9"]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out and "first_divergence: 0" in out
    assert main(["compare", ta, str(tmp_path / "missing.csv")]) == 2


def test_compare_rejects_a_nan_negative_or_infinite_tol(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.ini", out="A")
    c = write_cfg(tmp_path, "c.ini", out="C", run={"seed": "2"})
    for f in (a, c):
        assert main(["run", str(f)]) == 0
    ta = str(tmp_path / "A" / "trace.csv")
    tc = str(tmp_path / "C" / "trace.csv")
    # the first update's loss read as NaN: a gap beyond every tolerance
    text = (tmp_path / "A" / "trace.csv").read_text()
    loss = text.splitlines()[5].split(",")[2]
    t_nan = tmp_path / "nan.csv"
    t_nan.write_text(text.replace(loss, "nan"))
    assert main(["compare", ta, str(t_nan)]) == 1
    capsys.readouterr()
    for argv in (["compare", ta, tc, "--tol", "nan"],
                 ["compare", ta, ta, "--tol", "-1"],
                 ["compare", ta, str(t_nan), "--tol", "inf"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "tol must be" in captured.err and not captured.out, argv


def test_compare_names_the_update_whose_provenance_differs(tmp_path, capsys):
    assert main(["run", str(write_cfg(tmp_path))]) == 0
    good = tmp_path / "out" / "trace.csv"
    lines = good.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("3,"))
    parts = lines[row].split(",")
    parts[6] = str(int(parts[6]) + 1)  # the batch_index of one slot
    lines[row] = ",".join(parts)
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(lines))
    assert main(["compare", str(good), str(edited)]) == 1
    out = capsys.readouterr().out
    assert "max_loss_diff: 0.0\n" in out
    assert "provenance_equal: False\n" in out
    assert "first_divergence: 3\n" in out and "result: FAIL\n" in out


def test_compare_refuses_empty_traces(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# K=2\n# M=2\n# updates=0\n# diverged=0\n"
                     + ",".join(CSV_COLUMNS) + "\n")
    assert main(["compare", str(empty), str(empty)]) == 2
    captured = capsys.readouterr()
    assert "empty traces" in captured.err and not captured.out


@pytest.mark.parametrize("old,new", [("# K=2", "# K=two"),
                                     ("\n0,", "\nzero,"),
                                     ("\n0,", "\n\xff,"),
                                     # the body disagrees with the header
                                     ("# updates=5", "# updates=6"),
                                     ("\n4,", "\n6,"),
                                     ("# M=2", "# M=3"),
                                     ("# K=2", "# K=9")])
def test_compare_malformed_trace_exit_2(tmp_path, capsys, old, new):
    assert main(["run", str(write_cfg(tmp_path))]) == 0
    text = (tmp_path / "out" / "trace.csv").read_text()
    assert old in text
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.replace(old, new).encode("latin-1"))
    assert main(["compare", str(bad), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
