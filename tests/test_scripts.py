"""The example scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_worked_example_script():
    assert "re-verification: True" in run_script("worked_example.py").splitlines()


def test_random_survey_script():
    out = run_script("random_survey.py", "--count", "5")
    assert out.splitlines()[0].startswith("5/5 systems combined and re-verified")
