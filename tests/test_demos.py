"""The demos and the README examples run against the current API.

Demo 04 trains for about 22 s on a 2-core machine, so the tier1 workflow
runs it in a step of its own: python3 demos/04_ga_ablation.py
"""
import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adl import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_schedule_and_staleness", "02_equivalence", "03_bounds",
         "05_parallel_throughput"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def _readme_block(lang):
    """The first ```lang block of the README."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs():
    exec(compile(_readme_block("python"), "README.md", "exec"), {})


def test_readme_config_parses():
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(_readme_block("ini"))
    mode, cfg, dataset, out, _ = cli.build_run(parser, lambda msg: None)
    assert (mode, out) == ("adl-clocked", "runs/demo")
    assert (cfg.K, cfg.ga_steps, cfg.updates, cfg.batch_size) == (2, 2, 50, 8)
    assert dataset.inputs.shape == (256, 2) and dataset.targets.shape == (256,)
