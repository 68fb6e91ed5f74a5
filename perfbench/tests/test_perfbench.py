"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

from casverify import cli, corpus, engine, heap  # noqa: E402
from casverify.engine import ExploreConfig, explore  # noqa: E402
from perfbench import gate, micro  # noqa: E402
from perfbench.generate import MAX_CHOICES, generate_programs  # noqa: E402
from perfbench.tracing import Tracer, read_spans  # noqa: E402
from perfbench.workloads import CorpusExhaustive, GeneratedWrites, run_pass  # noqa: E402


class SmallGenerated(GeneratedWrites):
    programs = 16


@pytest.fixture(scope="module")
def corpus_pass():
    workload = CorpusExhaustive(0)
    return workload, run_pass(workload.commands())


@pytest.fixture(scope="module")
def generated_pass():
    workload = SmallGenerated(5)
    with workload.inputs():
        result = run_pass(workload.commands())
    return workload, result


def test_generator_is_deterministic_for_a_fixed_seed():
    assert generate_programs(7, 40) == generate_programs(7, 40)
    assert generate_programs(7, 40) != generate_programs(8, 40)


def test_generated_programs_stay_within_the_oracle_depth():
    cfg = ExploreConfig(size_bound=3)
    for program in generate_programs(3, 40):
        report = explore(program, cfg, name=program.name, sites=program.sites)
        assert report.max_choice_depth <= MAX_CHOICES


def test_gate_accepts_the_stored_reference(corpus_pass):
    workload, result = corpus_pass
    (command,) = result.commands
    checks, failures = workload.check(command)
    assert failures == []
    assert checks == 1 + 21


def test_gate_catches_a_flipped_verdict(corpus_pass):
    workload, result = corpus_pass
    expected = workload.expected(result.commands[0].argv)
    actual = copy.deepcopy(expected)
    actual["cases"]["pq_s_swap[buggy]"]["status"] = "pass"
    _, failures = gate.compare(expected, actual)
    assert len(failures) == 1 and "pq_s_swap[buggy]" in failures[0]


def test_gate_catches_an_altered_tape(corpus_pass):
    workload, result = corpus_pass
    expected = workload.expected(result.commands[0].argv)
    actual = copy.deepcopy(expected)
    key = next(k for k, v in actual["cases"].items() if v["counterexample_tape"])
    actual["cases"][key]["counterexample_tape"] += "bool:1\n"
    _, failures = gate.compare(expected, actual)
    assert len(failures) == 1 and "counterexample_tape" in failures[0]


def test_gate_counts_a_crash_as_a_failure(corpus_pass):
    workload, result = corpus_pass
    crashed = copy.copy(result.commands[0])
    crashed.doc, crashed.error = None, "Traceback: boom"
    checks, failures = workload.check(crashed)
    assert checks == 1 and len(failures) == 1


def test_generated_verdicts_agree_with_the_oracle(generated_pass):
    workload, result = generated_pass
    (command,) = result.commands
    checks, failures = workload.check(command)
    assert failures == []
    assert checks == 1 + workload.programs


def test_generated_check_catches_an_altered_tape(generated_pass):
    workload, result = generated_pass
    command = copy.deepcopy(result.commands[0])
    failing = next(p for p in command.doc["proofs"] if p["counterexample_tape"])
    kind, index = failing["counterexample_tape"].splitlines()[0].split(":")
    failing["counterexample_tape"] = failing["counterexample_tape"].replace(
        f"{kind}:{index}", f"{kind}:{int(index) + 1}", 1)
    _, failures = workload.check(command)
    assert len(failures) == 1 and "tape_indices" in failures[0]


def test_tracing_restores_the_package_and_keeps_behaviour(tmp_path):
    originals = (cli.main, cli.run_case, cli.register_corpus, corpus.explore,
                 heap.Heap.read, heap.Pointer.add, engine.RunContext.choice,
                 engine.Domain.__post_init__)
    argv = ["run", "--check-expected", "--proofs", "byte_buf_invariant",
            "--max-bound", "2"]
    plain = run_pass([argv])
    tracer = Tracer()
    traced = run_pass([argv], tracer)
    assert (cli.main, cli.run_case, cli.register_corpus, corpus.explore,
            heap.Heap.read, heap.Pointer.add, engine.RunContext.choice,
            engine.Domain.__post_init__) == originals
    assert traced.commands[0].behaviour == plain.commands[0].behaviour
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"]["corpus.body"] == traced.tapes
    assert summary["calls"]["engine.choice"] == tracer.counts["engine.choices_executed"]

    path = tmp_path / "spans.gz"
    tracer.write(path)
    header, arrays = read_spans(path)
    assert header["names"] == tracer.names
    assert list(arrays["parent"]) == list(tracer.parent)
    assert list(arrays["end"]) == list(tracer.end)


def test_speed_probe_samples_between_cases_and_keeps_behaviour():
    argv = ["run", "--check-expected", "--proofs", "all", "--max-bound", "2"]
    plain = run_pass([argv])
    scaled = run_pass([argv], scaled=True)
    assert plain.scale == 1.0 and not plain.speed_samples_s
    assert len(scaled.speed_samples_s) > 1 and scaled.scale > 0
    assert scaled.commands[0].behaviour == plain.commands[0].behaviour


@pytest.mark.parametrize("name,bench", micro.SUITE)
def test_microbenchmarks_check_their_results(name, bench):
    assert bench(0.01) > 0
