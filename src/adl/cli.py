"""Command-line front end.

Subcommands:
    run              execute a training config, write trace.csv + summary.txt
    staleness-table  exact averaged level-of-staleness per module
    bounds           convergence-bound calculators
    compare          diff two trace.csv files within a tolerance

Configs are flat ``key = value`` text with one section per concern
([model], [partition], [data], [optimizer], [run]); no nesting.  build_run
parses every key present before anything runs and rejects unknown keys.

Exit codes: 0 success, 1 comparison failure, 2 bad config/arguments,
3 run diverged.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import net
from .errors import AdlError, ConfigError, check_finite_nonneg, check_pos
from .optimizer import ConstantLr, Harmonic, SgdConfig, StepDecay
from .oracle import delayed_replay, sync_ga_sgd
from .partition import Partition, partition_by_cost, partition_even
from .scheduler import (TrainConfig, _check_counts, _check_dataset,
                        run_clocked, run_parallel)
from .staleness import (averaged_los, averaged_los_sum, staleness_factor,
                        theorem1_rhs, theorem2_rhs, theorem3_bound,
                        theorem3_lr)
from .trace import (compare_traces, read_csv, summary_text, write_csv,
                    write_events_csv)

_RUNNERS = {
    "adl-clocked": run_clocked,
    "adl-parallel": run_parallel,
    "sync-ga": sync_ga_sgd,
    "delayed-replay": delayed_replay,
}

def _parse_layers(text: str):
    specs = []
    for token in text.replace(",", " ").split():
        parts = token.split(":")
        kind = parts[0]
        if kind == "affine":
            if len(parts) != 3:
                raise ConfigError(f"affine needs in:out dims: {token!r}")
            specs.append(net.affine(int(parts[1]), int(parts[2])))
        elif kind in ("tanh", "relu", "identity"):
            if len(parts) != 2:
                raise ConfigError(f"{kind} needs one dim: {token!r}")
            specs.append(net.LayerSpec(kind, int(parts[1]), int(parts[1])))
        else:
            raise ConfigError(f"unknown layer token {token!r}")
    if not specs:
        raise ConfigError("model.layers is empty")
    return specs


def _split(cast):
    """Cast for a comma- or space-separated list of values."""
    return lambda text: tuple(cast(tok) for tok in
                              text.replace(",", " ").split())


def _checked(name, check=check_finite_nonneg):
    """Cast to a float that check accepts, else a ConfigError naming name."""
    return lambda raw: check(name, float(raw), ConfigError)


def _milestones(text):
    milestones = _split(_checked("milestone"))(text)
    if list(milestones) != sorted(milestones):
        raise ConfigError(f"milestones must not decrease, got {milestones}")
    return milestones


# section -> key -> the cast that parses its value
_SCHEMA = {
    "model": {"layers": _parse_layers, "loss": str, "init_scale": float},
    "partition": {"k": int, "strategy": str, "boundaries": _split(int)},
    "data": {"dataset": str, "n": int, "dim": int, "noise_std": float,
             "seed": int},
    "optimizer": {"ga_steps": int, "updates": int, "batch_size": int,
                  "momentum": float, "weight_decay": float, "schedule": str,
                  "lr": lambda raw: (raw if raw == "auto" else
                                     _checked("learning rate")(raw)),
                  "harmonic_c": _checked("harmonic c"),
                  "warmup_epochs": _checked("warmup_epochs"),
                  "milestones": _milestones,
                  "decay_factor": _checked("decay factor"),
                  **{key: _checked(key, check_pos) for key in
                     ("epsilon", "gap", "grad_bound", "smoothness")}},
    "run": {"mode": str, "out": str, "seed": int, "trace_level": str},
}


def _parse(parser) -> dict:
    """{section: {key: value}} of every key, each cast by its _SCHEMA
    entry; unknown sections and keys and missing sections are errors."""
    conf = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        conf[section] = {}
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                conf[section][key] = _SCHEMA[section][key](raw)
            except ConfigError:  # a cast's own message names the fault
                raise
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r}") from exc
    for required in ("model", "data", "optimizer", "run"):
        if required not in conf:
            raise ConfigError(f"missing config section [{required}]")
    return conf


def _get(conf, section, key, default=None, required=False):
    if required and key not in conf[section]:
        raise ConfigError(f"missing required key {key!r} in [{section}]")
    return conf[section].get(key, default)


def _build_dataset(conf) -> data_mod.Dataset:
    dataset_id = _get(conf, "data", "dataset", required=True)
    n = _get(conf, "data", "n", required=True)
    noise = _get(conf, "data", "noise_std", 0.0)
    seed = _get(conf, "data", "seed", 0)
    if dataset_id == "linreg":
        dim = _get(conf, "data", "dim", required=True)
        return data_mod.gen_linreg(n, dim, noise, seed)
    if dataset_id == "two_spirals":
        if "dim" in conf["data"]:
            raise ConfigError("two_spirals has a fixed dim of 2")
        return data_mod.gen_two_spirals(n, noise, seed)
    raise ConfigError(f"unknown dataset {dataset_id!r}")


def _build_partition(conf, num_layers, specs) -> Partition:
    if "partition" not in conf:
        return partition_even(num_layers, 1)
    K = _get(conf, "partition", "k", required=True)
    interior = _get(conf, "partition", "boundaries")
    strategy = _get(conf, "partition", "strategy", "even")
    if strategy not in ("even", "cost"):
        raise ConfigError(f"unknown partition strategy {strategy!r}")
    if interior is not None:
        if len(interior) != K - 1:
            raise ConfigError(
                f"explicit boundaries need {K - 1} cut points for k={K}")
        return Partition((0, *interior, num_layers))
    if strategy == "even":
        return partition_even(num_layers, K)
    return partition_by_cost([s.param_count for s in specs], K)


def _build_schedule(conf, dataset, M, batch_size, S, K, warn):
    name = _get(conf, "optimizer", "schedule", required=True)
    lr = _get(conf, "optimizer", "lr")

    def base_lr():
        if lr is None:
            raise ConfigError(f"schedule {name!r} needs an lr value")
        # auto: the linear-scaling rule for the effective batch b*M
        return 0.1 * batch_size * M / 256 if lr == "auto" else lr

    if name == "constant":
        return ConstantLr(base_lr())
    if name == "harmonic":
        c = _get(conf, "optimizer", "harmonic_c", required=True)
        return Harmonic(c)
    if name == "step":
        warmup_epochs = _get(conf, "optimizer", "warmup_epochs", 0.0)
        factor = _get(conf, "optimizer", "decay_factor", 0.1)
        milestones = _get(conf, "optimizer", "milestones", ())
        bpe = math.ceil(dataset.n / batch_size)
        warmup = check_finite_nonneg(  # before round()
            "warm-up in updates", warmup_epochs * bpe / M)
        return StepDecay(base_lr(), round(warmup), milestones, factor, M, bpe)
    if name == "theorem3":
        eps = _get(conf, "optimizer", "epsilon", 1.0)
        gap = _get(conf, "optimizer", "gap", required=True)
        A = _get(conf, "optimizer", "grad_bound", required=True)
        L = _get(conf, "optimizer", "smoothness", required=True)
        lr = theorem3_lr(eps, gap, S, A, L, M, float(averaged_los_sum(K, M)))
        if L * lr > 1.0:
            warn(f"theorem3 precondition violated: L*lr = {L * lr:.6g} > 1; "
                 f"the matching bound does not apply at this rate")
        return ConstantLr(lr)
    raise ConfigError(f"unknown schedule {name!r}")


def build_run(parser, warn) -> tuple:
    """(mode, TrainConfig, dataset, out_dir, trace_level) from parsed INI."""
    conf = _parse(parser)
    specs = _get(conf, "model", "layers", required=True)
    loss = _get(conf, "model", "loss", required=True)
    init_scale = _get(conf, "model", "init_scale", 1.0)
    dataset = _build_dataset(conf)
    part = _build_partition(conf, len(specs), specs)
    M = _get(conf, "optimizer", "ga_steps", 1)
    S = _get(conf, "optimizer", "updates", required=True)
    batch_size = _get(conf, "optimizer", "batch_size", required=True)
    momentum = _get(conf, "optimizer", "momentum", 0.0)
    decay = _get(conf, "optimizer", "weight_decay", 0.0)
    _check_counts(M, S, batch_size)  # before the schedule divides by them
    schedule = _build_schedule(conf, dataset, M, batch_size, S, part.K, warn)
    mode = _get(conf, "run", "mode", required=True)
    if mode not in _RUNNERS:
        raise ConfigError(
            f"unknown mode {mode!r}; choose from {tuple(_RUNNERS)}")
    seed = _get(conf, "run", "seed", 0)
    trace_level = _get(conf, "run", "trace_level", "updates")
    if trace_level not in ("updates", "ticks"):
        raise ConfigError(f"trace_level must be updates|ticks, got {trace_level!r}")
    out = _get(conf, "run", "out")
    cfg = TrainConfig(specs, part, loss, M, batch_size, S, schedule,
                      SgdConfig(momentum, decay), seed=seed,
                      init_scale=init_scale,
                      trace_ticks=(trace_level == "ticks"))
    _check_dataset(cfg, dataset)
    if momentum != 0.0 or decay != 0.0:
        warn(f"momentum={momentum} weight_decay={decay}: the convergence "
             f"bounds assume plain SGD (momentum 0, weight decay 0)")
    return mode, cfg, dataset, out, trace_level


def cmd_run(args) -> int:
    def warn(msg):
        print(f"warning: {msg}", file=sys.stderr)

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = parser.read(args.config)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    if not found:
        raise ConfigError(f"cannot read config file {args.config!r}")
    mode, cfg, dataset, out, _ = build_run(parser, warn)
    if out is None:
        base = os.environ.get("ADL_OUT_DIR", "runs")
        out = os.path.join(base, Path(args.config).stem)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = _RUNNERS[mode](cfg, dataset)
    write_csv(trace, out_dir / "trace.csv")
    text = summary_text(trace)
    (out_dir / "summary.txt").write_text(text)
    if trace.events is not None:
        write_events_csv(trace, out_dir / "events.csv")
    sys.stdout.write(text)
    return 3 if trace.diverged else 0


def cmd_staleness_table(args) -> int:
    K = args.modules
    ms = args.ga_steps
    header = " k   " + "".join(f"M={m:<8}" for m in ms)
    lines = [f"averaged level-of-staleness (exact updates), K={K}", header]
    for k in range(1, K + 1):
        cells = "".join(f"{str(averaged_los(K, k, m)):<10}" for m in ms)
        lines.append(f"{k:2d}   {cells}")
    sums = "".join(f"{str(averaged_los_sum(K, m)):<10}" for m in ms)
    lines.append(f"sum  {sums}")
    lines.append("")
    lines.append(
        "note: the top module (k=K) is never stale; at M=1 the first module\n"
        "averages 2*(K-1) updates of delay.  A commonly quoted figure for the\n"
        "first module is 2*K, which also counts the module's own in-flight\n"
        "forward/backward pair; the group arithmetic used here does not.")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_bounds(args) -> int:
    K, M = args.modules, args.ga_steps
    dbar = float(averaged_los_sum(K, M))  # also rejects K < 1 and M < 1
    if args.dbar_sum is not None:
        dbar = args.dbar_sum
    positive = ("grad_bound", "smoothness", "gap", "epsilon", "harmonic_c")
    for key in (*positive, "lr", "grad_norm_sq"):  # even without a partner
        if getattr(args, key) is not None:
            (check_pos if key in positive else check_finite_nonneg)(
                "--" + key.replace("_", "-"), getattr(args, key))
    if args.updates < 1:
        raise ConfigError(f"--updates must be >= 1, got {args.updates}")
    lines = [f"K={K} M={M} dbar_sum={dbar:.6g} "
             f"staleness_factor={staleness_factor(M, dbar):.6g}"]
    if args.lr is not None and args.grad_norm_sq is not None:
        r1 = theorem1_rhs(args.lr, args.grad_norm_sq, args.grad_bound,
                          args.smoothness, M, dbar)
        lines.append(f"theorem1_rhs: {r1!r} "
                     f"({'descent' if r1 < 0 else 'no descent certified'})")
    if args.harmonic_c is not None and args.gap is not None:
        lrs = args.harmonic_c / np.arange(1, args.updates + 1)
        r2 = theorem2_rhs(lrs, args.gap, args.grad_bound, args.smoothness,
                          M, dbar)
        lines.append(f"theorem2_rhs (harmonic c={args.harmonic_c}, "
                     f"S={args.updates}): {r2!r}")
    if args.gap is not None:
        lr = theorem3_lr(args.epsilon, args.gap, args.updates,
                         args.grad_bound, args.smoothness, M, dbar)
        bound = theorem3_bound(args.epsilon, args.gap, args.updates,
                               args.grad_bound, args.smoothness, M, dbar)
        ok = args.smoothness * lr <= 1.0
        lines.append(f"theorem3_lr: {lr!r} (L*lr <= 1: {ok})")
        lines.append(f"theorem3_bound: {bound!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    slots = {}  # b's rows reuse the Slot objects a's rows built
    a = read_csv(args.trace_a, slots)
    b = read_csv(args.trace_b, slots)
    report = compare_traces(a, b, args.tol)
    sys.stdout.write(report.text())
    return 0 if report.passed else 1


_COMMANDS = {
    "run": cmd_run,
    "staleness-table": cmd_staleness_table,
    "bounds": cmd_bounds,
    "compare": cmd_compare,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `adl` argument parser, built on first use and then shared by
    every call in the process, so no default may be mutable."""
    ap = argparse.ArgumentParser(
        prog="adl",
        description="pipeline-parallel training with delayed gradients "
                    "and gradient accumulation")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a training config")
    p_run.add_argument("config", help="path to key=value config file")

    p_tab = sub.add_parser("staleness-table",
                           help="exact averaged staleness per module")
    p_tab.add_argument("--modules", "--K", dest="modules", type=int,
                       required=True, metavar="K")
    p_tab.add_argument("--ga-steps", "--M", dest="ga_steps",
                       type=lambda s: tuple(int(t) for t in s.split(",")),
                       default=(1, 2, 4, 8), metavar="M1,M2,...")

    p_b = sub.add_parser("bounds", help="convergence-bound calculators")
    p_b.add_argument("--modules", type=int, required=True, metavar="K")
    p_b.add_argument("--ga-steps", type=int, required=True, metavar="M")
    p_b.add_argument("--grad-bound", type=float, required=True, metavar="A")
    p_b.add_argument("--smoothness", type=float, required=True, metavar="L")
    p_b.add_argument("--updates", type=int, default=1, metavar="S")
    p_b.add_argument("--dbar-sum", type=float, default=None)
    p_b.add_argument("--lr", type=float, default=None)
    p_b.add_argument("--grad-norm-sq", type=float, default=None)
    p_b.add_argument("--gap", type=float, default=None)
    p_b.add_argument("--epsilon", type=float, default=1.0)
    p_b.add_argument("--harmonic-c", type=float, default=None)

    p_c = sub.add_parser("compare", help="diff two trace.csv files")
    p_c.add_argument("trace_a")
    p_c.add_argument("trace_b")
    p_c.add_argument("--tol", type=float, default=0.0)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AdlError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
