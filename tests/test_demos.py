"""Smoke test: each demo script runs to completion in a fresh interpreter.

``05_spectral_gap.py`` is left out: it takes about 30 s, several times the
other five together.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_irreversible_spaces.py", "02_concentration_profile.py",
         "03_observable_diameter.py", "04_gaussian_line.py", "06_randers_circle.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
