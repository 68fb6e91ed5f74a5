"""Smoke runs of the experiment scripts with tiny budgets, so that a change
to the report fields they read cannot break them unnoticed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("random_seed_sweep.py", ["--seeds", "1", "--random-budget", "200"]),
    ("run_detection_matrix.py", ["--max-bound", "2", "--random-budget", "200"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("CAS_SEED", None)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "bug1" in proc.stdout


def test_report_digest_smoke(monkeypatch):
    monkeypatch.delenv("CAS_SEED", raising=False)
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    lines = mod.report_digests([2], [0])
    assert [label for label, _ in lines] == [
        "run --check-expected --max-bound 2", "matrix --backend random --seed 0"]
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for _, sha in lines)
