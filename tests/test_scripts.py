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
        "b0d1e91a6ddd373a1df38e3a6081055169de34b7bc3d54b4cb3b75f5276700a4",
        "9e39e54c4b77c9262cd9a1349ad01a2917f9a8b59ba84c39fb00d3d803b64193",
        "0f520359cf9d1c3acc064fc4d9198bd9c435c6c0460a8701140ef342aa92293a",
        "bb1e8e4d2bdd8799e0827fd4b1a6828d3e351ffd460c0cf09f1e2d3ec11c2251",
        "28879cc08c0582cbafcd392f3709b60f633d62bc64ec128a1b57b82919ca0f0f",
    ]
