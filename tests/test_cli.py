import json
import re

import pytest

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
    # replaying the counterexample against the fixed variant may legally
    # pass (path pruned by the stronger precondition)
    code = run_cli("replay", "byte_buf_invariant",
                   str(tapes / "byte_buf_invariant.buggy.tape"),
                   "--max-bound", "2")
    assert code in (0, 2)


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


def test_cas_seed_env_overrides_flag(tmp_path, monkeypatch):
    out = tmp_path / "seeded.json"
    monkeypatch.setenv("CAS_SEED", "777")
    code = run_cli("--proofs", "is_mem_zeroed", "--seed", "3", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 777


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
    ([], "abc"),
], ids=["negative_bound", "duplicate_bytes", "non_integer_bytes",
        "byte_out_of_range", "non_integer_cas_seed"])
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
def test_unwritable_output_path_exit_2(argv, tmp_path, capsys):
    blocked = tmp_path / "regular_file"
    blocked.write_text("")
    argv = [a.format(blocked=blocked, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"verify: cannot write {blocked}/")
    assert "Traceback" not in err
