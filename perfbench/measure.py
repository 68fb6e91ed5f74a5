"""Measurement of one benchmark run: end-to-end or per-layer.

Timings are medians over the passes of a run; time to verdict is pooled
over every case of every pass.  Set-up time is the median of several cold
starts.  The times of each pass are scaled to nominal seconds by the
machine's speed during the pass, as `speed.py` measures it.  Every raw
sample is kept in the run's result file.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time

from . import micro
from .tracing import Tracer
from .workloads import ROOT, run_pass

OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
# Enough times to verdict that at least ten lie above the p90.
MIN_VERDICT_SAMPLES = 100
SETUP_RUNS = 9
MICRO_SECONDS = 0.25
HEAP_OPS = ("alloc", "read", "write", "havoc", "read_ptr", "write_ptr", "add")
# The child prints the monotonic clock (shared by all processes) once the
# CLI is imported and the corpus registered; set-up ends there.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import casverify.cli; "
              "from casverify.corpus import register_corpus; register_corpus(); "
              "print(time.monotonic())")


class Tally:
    """Checks attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.messages: list[str] = []

    def add(self, checks: int, failures: list[str]) -> None:
        self.attempted += checks
        self.messages += failures


def _launch(code: str, *args: str) -> float:
    """Seconds from launching a fresh interpreter to the time it prints."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-I", "-c", code, *args], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout) - t0


def setup_times(tally: Tally) -> tuple[list[float], list[float]]:
    """Cold starts: a fresh interpreter imports the CLI and registers the
    corpus; bare Python start-up is measured alongside for reference.  One
    untimed launch first fills the bytecode cache."""
    src = str(ROOT / "src")
    try:
        _launch(SETUP_CODE, src)
        cold = [_launch(SETUP_CODE, src) for _ in range(SETUP_RUNS)]
        bare = [_launch("import time; print(time.monotonic())") for _ in range(3)]
    except (subprocess.SubprocessError, ValueError) as e:
        tally.add(1, [f"cold start failed: {e}"])
        return [float("inf")], [float("inf")]
    tally.add(1, [])
    return cold, bare


def gate_passes(workload, passes, tally: Tally) -> None:
    for p in passes:
        for result in p.commands:
            tally.add(*workload.check(result))


def _percentiles(values) -> tuple[float, float]:
    """p50 and p90.  Every pass runs the same cases, so pooled samples come
    in blocks of one case each; the inclusive method keeps each percentile
    in the same case's block whatever the number of passes."""
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(workload, seconds: float, tally: Tally, report: dict) -> dict:
    """Untraced: set-up, a warm-up pass, then timed passes for `seconds`.

    Each pass's wall time and times to verdict are scaled by the machine's
    speed during that pass, so `wall_s`, `paths_per_s` and `verdict_s.*` are
    in nominal seconds.  Set-up stays in plain seconds: cold starts run in
    child processes, and scaling them by the parent's speed did not make
    them spread less."""
    cold, bare = setup_times(tally)
    commands = workload.commands()
    with workload.inputs():
        run_pass(commands)  # warm-up, untimed
        passes = []
        deadline = time.perf_counter() + seconds
        while (len(passes) < MIN_PASSES or time.perf_counter() < deadline
               or sum(len(p.case_s) for p in passes) < MIN_VERDICT_SAMPLES):
            passes.append(run_pass(commands, scaled=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate_passes(workload, passes, tally)

    tapes = passes[0].tapes
    walls = [p.wall_s for p in passes]
    verdicts = [t * p.scale for p in passes for t in p.case_s]
    p50, p90 = _percentiles(verdicts)
    raw_p50, raw_p90 = _percentiles([t for p in passes for t in p.case_s])
    raw_wall_s = statistics.median(walls)
    scales = [p.scale for p in passes]
    wall_s = statistics.median(p.wall_s * p.scale for p in passes)
    report.update(
        unscaled_wall_s=raw_wall_s, pass_scales=scales,
        speed_samples_s=[p.speed_samples_s for p in passes],
        walls_s=walls, case_s=[p.case_s for p in passes], setup_samples_s=cold,
        python_startup_s=statistics.median(bare), tapes_per_pass=tapes,
        cases_per_pass=len(passes[0].case_s), commands_per_pass=len(commands),
        digests=sorted({p.digest for p in passes}),
        notes={
            "wall_s": f"median of {len(walls)} passes, in nominal seconds; "
                      f"{raw_wall_s:.4g} s unscaled",
            "paths_per_s": f"{tapes} tapes per pass / wall_s; "
                           f"{tapes / raw_wall_s:.4g} 1/s unscaled",
            "verdict_s.p50": f"{len(verdicts)} samples; {raw_p50:.4g} s unscaled",
            "verdict_s.p90": f"{len(verdicts)} samples, "
                             f"{sum(t > p90 for t in verdicts)} above; "
                             f"{raw_p90:.4g} s unscaled",
            "peak_rss_mb": "ru_maxrss after the timed passes",
            "setup_s": f"median of {len(cold)} cold starts; bare Python "
                       f"start-up {statistics.median(bare):.4g} s",
            "speed": f"pass speed scales {min(scales):.3g}-{max(scales):.3g} "
                     f"(median {statistics.median(scales):.3g}) from "
                     f"{sum(len(p.speed_samples_s) for p in passes)} calibration "
                     f"samples; see perfbench/speed.py",
        })
    return {
        "wall_s": wall_s,
        "paths_per_s": tapes / wall_s,
        "verdict_s.p50": p50,
        "verdict_s.p90": p90,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(cold),
    }


def per_layer(workload, seconds: float, tally: Tally, report: dict) -> dict:
    """Microbenchmarks, then untraced and traced passes in turn for
    `seconds`; the spans of the last traced pass are written out."""
    metrics = {}
    for name, bench in micro.SUITE:
        try:
            metrics[name] = bench(MICRO_SECONDS)
            tally.add(1, [])
        except micro.CheckFailed as e:
            metrics[name] = 0.0
            tally.add(1, [f"{name}: {e}"])

    commands = workload.commands()
    untraced, traced, summaries = [], [], []
    with workload.inputs():
        run_pass(commands)  # warm-up, untimed
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(commands))
            tracer = Tracer()
            traced.append(run_pass(commands, tracer))
            summaries.append(tracer.summary())
    gate_passes(workload, untraced + traced, tally)
    # Tracing must not change behaviour: compare each traced command with
    # the same command of the untraced pass before it.
    for u, t in zip(untraced, traced):
        for cu, ct in zip(u.commands, t.commands):
            same = cu.behaviour == ct.behaviour
            tally.add(1, [] if same else [f"{' '.join(ct.argv)}: traced run differs"])

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def layer_sum(field, layer):
        return lambda s: sum(v for k, v in s[field].items() if k.startswith(layer + "."))

    last = summaries[-1]
    calls, counts = last["calls"], tracer.counts
    executions = calls["corpus.body"]
    walls_u = [p.wall_s for p in untraced]
    walls_t = [p.wall_s for p in traced]
    metrics.update({
        "heap.calls": layer_sum("calls", "heap")(last),
        **{f"heap.calls.{op}": calls[f"heap.{op}"] for op in HEAP_OPS},
        "heap.self_s": med(layer_sum("self_s", "heap")),
        "engine.reexec_ratio":
            counts["engine.choices_executed"] / max(1, counts["engine.distinct_prefixes"]),
        "engine.distinct_tape_ratio": counts["engine.distinct_tapes"] / max(1, executions),
        "engine.prune_ratio": counts["engine.pruned"] / max(1, executions),
        "engine.choice.calls": calls["engine.choice"],
        "engine.domain.builds": counts["engine.domain.builds"],
        "engine.self_s": med(layer_sum("self_s", "engine")),
        "corpus.body.calls": executions,
        "corpus.body.self_s": med(lambda s: s["self_s"]["corpus.body"]),
        "vacuity.analyze_s": med(lambda s: s["total_s"]["vacuity.analyze"]),
        "report.build_s": med(lambda s: s["layer_total_s"]["report"]),
        "report.json_bytes": counts["report.json_bytes"],
        "cli.overhead_s":
            med(lambda s: s["total_s"]["cli.main"] - s["total_s"]["corpus.run_case"]),
        "trace.overhead_s": statistics.median(walls_t) - statistics.median(walls_u),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"{workload.name}.spans.gz"
    tracer.write(spans_file)
    report.update(
        untraced_walls_s=walls_u, traced_walls_s=walls_t, spans=len(tracer.start),
        spans_file=str(spans_file.relative_to(ROOT)), tapes_per_pass=traced[-1].tapes,
        cases_per_pass=len(traced[-1].case_s), counts=dict(counts),
        digests=sorted({p.digest for p in untraced + traced}),
        notes={"trace.overhead_s": f"median of {len(walls_t)} traced passes minus "
                                   f"median of {len(walls_u)} untraced passes"})
    return metrics
