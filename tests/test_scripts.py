"""Smoke runs of the experiment scripts with tiny budgets, so that a change
to the report fields they read cannot break them unnoticed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("CAS_SEED", None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script,args", [
    ("random_seed_sweep.py", ["--seeds", "1", "--random-budget", "200"]),
    ("run_detection_matrix.py", ["--max-bound", "2", "--random-budget", "200"]),
])
def test_script_runs(script, args):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert "bug1" in proc.stdout


@pytest.mark.parametrize("script,args,message", [
    ("random_seed_sweep.py", ["--seeds", "0"], "--seeds must be positive"),
    ("random_seed_sweep.py", ["--seeds", "-2"], "--seeds must be positive"),
    ("random_seed_sweep.py", ["--random-budget", "0"], "random_budget must be positive"),
    ("run_detection_matrix.py", ["--random-budget", "0"],
     "random_budget must be positive"),
])
def test_script_bad_input_exit_2(script, args, message):
    # Rejected before any proof runs: a usage message, not a traceback.
    proc = _run_script(script, args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_report_digest_smoke(monkeypatch):
    monkeypatch.delenv("CAS_SEED", raising=False)
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    # Bound 3 is the first at which the list-loop proof builds more than
    # two nodes.  Bound 5 is the benchmark's headline command.
    lines = mod.report_digests([2, 3, 4, 5], [0])
    assert [label for label, _ in lines] == [
        "run --check-expected --max-bound 2", "run --check-expected --max-bound 3",
        "run --check-expected --max-bound 4", "run --check-expected --max-bound 5",
        "matrix --backend random --seed 0"]
    # The normalized reports must not change.  Regenerate these values with
    # `scripts/report_digest.py` only when behaviour is meant to change.
    assert [sha for _, sha in lines] == [
        "fe150dbe54e3580a9f878705f178fb703ca6cb4d89fa9075a9c991457a0766e5",
        "fd0e49e0e2c8ae93e39c26f5cc2144a913cac2f1cdc7d9f837282aae70788666",
        "48013c91a294c73d8992da00144f032d48a2439003cdacd7a8296f59a7820c94",
        "758f888b078d13143beab0eb4dc799800e7aff7037f9fe45f1370ffdc8b0d08c",
        "464fe7e079578f6c3398229da4aa7dda2496f1057cb246e11f41a34056915d02",
    ]
