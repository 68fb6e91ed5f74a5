import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from casverify import cli, corpus
from casverify.cli import main
from casverify.report import SCHEMA_VERSION


def run_cli(*argv):
    return main(list(argv))


def test_run_all_fixed_exits_zero(tmp_path):
    out = tmp_path / "out.json"
    code = run_cli("--proofs", "all", "--backend", "exhaustive",
                   "--max-bound", "2", "--report", "json", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["proofs"])


def test_run_buggy_with_fail_on_vacuity(tmp_path, capsys):
    out = tmp_path / "pq.json"
    code = run_cli("--proofs", "pq_s_swap", "--variant", "buggy",
                   "--fail-on-vacuity", "--max-bound", "2", "-o", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["proofs"][0]["status"] == "pass_but_vacuous"
    assert doc["proofs"][0]["vacuity"]["vacuous_groups"] == ["pq_swap:equivalence"]


def test_run_buggy_without_fail_on_vacuity_passes(tmp_path):
    out = tmp_path / "pq.json"
    code = run_cli("--proofs", "pq_s_swap", "--variant", "buggy",
                   "--max-bound", "2", "-o", str(out))
    assert code == 0


def test_no_proofs_matched_exit_2(capsys):
    assert run_cli("--proofs", "nosuch*") == 2


def test_bad_flag_exit_2():
    assert run_cli("run", "--no-such-flag") == 2


def test_check_expected_mode(tmp_path):
    out = tmp_path / "checked.json"
    code = run_cli("run", "--check-expected", "--max-bound", "2",
                   "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["expected_mismatches"] == []
    labels = {(p["name"], p["case"]) for p in doc["proofs"]}
    assert ("byte_buf_invariant", "buggy_nofail") in labels


def test_markdown_report(tmp_path):
    out = tmp_path / "report.md"
    code = run_cli("--proofs", "byte_buf*", "--max-bound", "2",
                   "--report", "markdown", "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert "| proof | case | status |" in text
    assert "## Timing by category" in text


def test_save_tapes_and_replay_roundtrip(tmp_path, capsys):
    tapes = tmp_path / "tapes"
    code = run_cli("--proofs", "byte_buf_invariant", "--variant", "buggy",
                   "--max-bound", "2", "--save-tapes", str(tapes),
                   "-o", str(tmp_path / "r.json"))
    assert code == 1
    tape_file = tapes / "byte_buf_invariant.buggy.tape"
    assert tape_file.exists()

    code = run_cli("replay", "byte_buf_invariant", str(tape_file),
                   "--variant", "buggy", "--max-bound", "2")
    assert code == 1
    printed = capsys.readouterr().out
    assert "verdict: fail (NullDeref)" in printed
    assert "choice 1" in printed


def test_replay_fixed_variant_of_buggy_tape(tmp_path, capsys):
    tapes = tmp_path / "tapes"
    run_cli("--proofs", "byte_buf_invariant", "--variant", "buggy",
            "--max-bound", "2", "--save-tapes", str(tapes),
            "-o", str(tmp_path / "r.json"))
    capsys.readouterr()
    # the fixed variant's stronger precondition prunes the replayed path
    code = run_cli("replay", "byte_buf_invariant",
                   str(tapes / "byte_buf_invariant.buggy.tape"),
                   "--max-bound", "2")
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["assume: false -> path pruned",
                        "verdict: pass (replayed path pruned by assume)"]


def test_importing_cli_does_not_load_traceback():
    # Only a replay whose proof raised formats a traceback.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, casverify.cli; print('traceback' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_replay_corrupt_tape_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tape"
    bad.write_text("not a tape !!!\n")
    assert run_cli("replay", "byte_buf_invariant", str(bad)) == 2


def test_replay_unknown_proof_exit_2(tmp_path):
    tape = tmp_path / "t.tape"
    tape.write_text("bool:0\n")
    assert run_cli("replay", "not_a_proof", str(tape)) == 2


def test_matrix_exit_zero_and_table(capsys):
    code = run_cli("matrix", "--max-bound", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "7/7 bugs detected" in out
    assert "| bug1 |" in out


def test_matrix_empty_filter_exit_2():
    assert run_cli("matrix", "--proofs", "zzz*") == 2


def test_matrix_random_advisory(capsys):
    strict = run_cli("matrix", "--backend", "random", "--random-budget", "10",
                     "--seed", "1")
    assert strict == 1  # small budgets may miss bugs; strict mode reports that
    advisory = run_cli("matrix", "--backend", "random", "--random-budget", "10",
                       "--seed", "1", "--advisory")
    assert advisory == 0


@pytest.mark.parametrize("argv", [
    ("matrix", "--backend", "random", "--max-bound", "2", "--random-budget", "300"),
    ("run", "--check-expected", "--max-bound", "2", "--report", "markdown"),
], ids=["random_matrix", "exhaustive_run"])
def test_in_process_call_leaves_no_cyclic_garbage(argv, capsys):
    # Runs and the argument parser are freed by reference counting, so
    # repeated in-process calls give the cyclic collector nothing to do.
    run_cli(*argv)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        run_cli(*argv)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_cas_seed_env_overrides_flag(tmp_path, monkeypatch):
    out = tmp_path / "seeded.json"
    monkeypatch.setenv("CAS_SEED", "777")
    code = run_cli("--proofs", "is_mem_zeroed", "--seed", "3", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 777


@pytest.mark.parametrize("flag,status,fault_kind", [
    ([], "fail", "TypedAccessViolation"),
    (["--typed-access-check"], "fail", "TypedAccessViolation"),
    (["--no-typed-access-check"], "pass", None),
], ids=["default", "on", "off"])
def test_typed_access_check_flag_is_honoured(flag, status, fault_kind, tmp_path):
    out = tmp_path / "zeroed.json"
    code = run_cli("--proofs", "is_mem_zeroed", "--variant", "buggy", "--max-bound", "3",
                   *flag, "-o", str(out))
    assert code == (0 if status == "pass" else 1)
    doc = json.loads(out.read_text())
    assert doc["config"]["typed_access_check"] is (status == "fail")
    assert doc["proofs"][0]["status"] == status
    assert doc["proofs"][0]["verdict"]["fault_kind"] == fault_kind


@pytest.mark.parametrize("argv", [
    ["replay", "is_mem_zeroed", "{tape}", "--seed", "3"],
    ["replay", "is_mem_zeroed", "{tape}", "--backend", "random"],
    ["replay", "is_mem_zeroed", "{tape}", "--max-paths", "5"],
    ["replay", "is_mem_zeroed", "{tape}", "--random-budget", "5"],
    ["matrix", "--variant", "fixed"],
], ids=["replay_seed", "replay_backend", "replay_max_paths", "replay_random_budget",
        "matrix_variant"])
def test_flag_the_command_does_not_read_exit_2(argv, tmp_path, capsys):
    tape = tmp_path / "t.tape"
    tape.write_text("bool:0\n")
    assert run_cli(*[a.format(tape=tape) for a in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _normalized(path):
    text = path.read_text()
    return re.sub(r'"wall_time": [0-9eE+.-]+', '"wall_time": 0', text)


def test_json_byte_identical_except_wall_time(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run_cli("--proofs", "all", "--max-bound", "2", "--seed", "9",
                       "-o", str(target)) == 0
    assert _normalized(a) == _normalized(b)



@pytest.mark.parametrize("flags,env", [
    (["--max-bound", "-1"], None),
    (["--byte-domain", "0,0"], None),
    (["--byte-domain", "x"], None),
    (["--byte-domain", "0,300"], None),
    (["--byte-domain", ""], None),
    ([], "abc"),
], ids=["negative_bound", "duplicate_bytes", "non_integer_bytes",
        "byte_out_of_range", "empty_bytes", "non_integer_cas_seed"])
def test_bad_config_exit_2(flags, env, tmp_path, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("CAS_SEED", env)
    tape = tmp_path / "t.tape"
    tape.write_text("bool:0\n")
    for command in (["run", "--proofs", "is_mem_zeroed"], ["matrix"],
                    ["replay", "is_mem_zeroed", str(tape)]):
        assert run_cli(*command, *flags) == 2
        assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--proofs", "byte_buf_invariant", "--max-bound", "2", "-o", "{blocked}/out.json"],
    ["run", "--proofs", "byte_buf_invariant", "--variant", "buggy", "--max-bound", "2",
     "--save-tapes", "{blocked}/tapes", "-o", "{tmp}/r.json"],
    ["matrix", "--proofs", "byte_buf_invariant", "--max-bound", "2", "--report", "json",
     "-o", "{blocked}/m.json"],
], ids=["run_output", "run_save_tapes", "matrix_output"])
def test_unwritable_output_path_exit_2(argv, tmp_path, capsys, monkeypatch):
    def no_case_may_run(*args, **kwargs):
        raise AssertionError("a case ran before the output path was checked")

    monkeypatch.setattr(cli, "run_case", no_case_may_run)
    monkeypatch.setattr(corpus, "run_case", no_case_may_run)
    blocked = tmp_path / "regular_file"
    blocked.write_text("")
    argv = [a.format(blocked=blocked, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"verify: cannot write {blocked}/")
    assert "Traceback" not in err


class _FullDiskFile(io.StringIO):
    """A file whose buffered data cannot be flushed at close."""

    def close(self):
        if not self.closed:
            super().close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.name)


@pytest.mark.parametrize("command", [
    ["run", "--proofs", "byte_buf_invariant", "--max-bound", "2"],
    ["matrix", "--proofs", "byte_buf_invariant", "--max-bound", "2"],
], ids=["run", "matrix"])
def test_write_error_at_close_exit_2(command, tmp_path, capsys, monkeypatch):
    def open_(path, mode="r", *args, **kwargs):
        if mode != "w":
            return open(path, mode, *args, **kwargs)
        fh = _FullDiskFile()
        fh.name = path
        return fh

    monkeypatch.setattr(cli, "open", open_, raising=False)
    out = tmp_path / "out.json"
    assert run_cli(*command, "--report", "json", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"verify: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"


def test_output_path_check_changes_nothing_before_the_run(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("the run crashed")

    monkeypatch.setattr(cli, "run_case", crash)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("the previous report")
    for out in (old, new):
        with pytest.raises(RuntimeError):
            run_cli("run", "--proofs", "byte_buf_invariant", "-o", str(out))
    assert old.read_text() == "the previous report"
    assert not new.exists()
    # A bad -o is found before the tapes directory is created.
    blocked = tmp_path / "regular_file"
    blocked.write_text("")
    tapes = tmp_path / "tapes"
    assert run_cli("run", "--proofs", "byte_buf_invariant", "--save-tapes", str(tapes),
                   "-o", f"{blocked}/out.json") == 2
    assert not tapes.exists()
