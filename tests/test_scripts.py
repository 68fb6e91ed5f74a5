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
])
def test_script_runs(script, args):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert "bug1" in proc.stdout


@pytest.mark.parametrize("script,args,message", [
    ("random_seed_sweep.py", ["--seeds", "0"], "--seeds must be positive"),
    ("random_seed_sweep.py", ["--seeds", "-2"], "--seeds must be positive"),
    ("random_seed_sweep.py", ["--random-budget", "0"], "random_budget must be positive"),
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
        "matrix --max-bound 2", "matrix --max-bound 3",
        "matrix --max-bound 4", "matrix --max-bound 5",
        "matrix --backend random --seed 0"]
    # The normalized reports must not change.  Regenerate these values with
    # `scripts/report_digest.py` only when behaviour is meant to change.
    assert [sha for _, sha in lines] == [
        "f83ccf639a43a60761671353ccc6d4ce83bdadd688f038e51c0ec0672fb51a3f",
        "832bcf6bdecfe809850071ca39cd7eb61624418aef730468c533b9dd34741a31",
        "a1d16b2675f433d92b5c05d901dfd14713e6785cd2cd823dd736ac5b11281b45",
        "76d0eea2d17193379116b41487aad9f2b2f98b349511587dc2e75e3b6f4c004b",
        "6d8a1917aa3ba00338d9d779edf2a64ae7c95fd111942d15a7fb5f949d48364e",
        "7317de26a36273c29ce63af75bf7c046cc00b83370b7ad3fbd3cf95fd1495a56",
        "5c91deb5ab752a564114ca6cb37bd72b086957d5974da7baa0386f2f899d9c85",
        "1beecd863f34dcf3e10d629855ce1cb1cd4a4b4086f89f9bb2b00b384ada8344",
        "27845f84046416487c5fbd1548fd29bb4808726c4e8b8528e920b91114987f98",
    ]


def test_report_digests_do_not_depend_on_the_hash_seed():
    # The lines of `test_report_digest_smoke`, printed by two interpreters
    # whose str hashes differ: set order must not reach a report.
    code = ("import runpy, sys\n"
            "digests = runpy.run_path(sys.argv[1])['report_digests']\n"
            "for label, sha in digests([2, 3, 4, 5], [0]):\n"
            "    print(sha, label)\n")
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop("CAS_SEED", None)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code, str(ROOT / "scripts" / "report_digest.py")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out)
    finally:
        for proc in procs:
            proc.kill()
    assert len(outputs[0].splitlines()) == 9
    assert outputs[0] == outputs[1]
