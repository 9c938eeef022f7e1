"""Smoke tests: the experiment script runs end to end and prints its header,
and the package imports without its test dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _run_script(name, *args):
    return _run_python(str(ROOT / "scripts" / name), *args)


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the package runs on numpy alone.
    done = _run_python("-c", "import sys, gibbs_partition; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("spec", ["cycle-4", "mixed-5"])
def test_audit_schedule_balance_runs(spec, tmp_path):
    # mixed-5 has energies of both signs, so it is walked shifted.
    if spec == "mixed-5":
        path = tmp_path / "mixed-5.json"
        path.write_text('{"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}')
        spec = f"table:{path}"
    done = _run_script("audit_schedule_balance.py", "--model", spec, "--trials", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"model {spec}  beta 1.0  regime ")
    assert lines[1].startswith("eta target")
    assert lines[2].startswith("balanced schedules  ") and lines[2].endswith("/3")
