"""The demos run against the current API and exit cleanly.

Demo 04 trains for 30-40 s on a 2-core machine, so it is
left to a manual run: python3 demos/04_ga_ablation.py
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
