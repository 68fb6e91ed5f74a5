#!/usr/bin/env python3
"""casverify benchmark: time to verdict on three proof workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a casverify checkout.  It drives `verify` commands
in process through `casverify.cli.main`, one at a time, and checks every
verdict.  `BENCHMARK.json` names the workloads and metrics.

--trace 0 measures the end-to-end metrics with no instrumentation.  The
times behind `wall_s`, `paths_per_s` and `verdict_s.*` are in nominal
seconds: scaled by the machine's speed during their pass, which a
calibration loop measures between cases (see `speed.py`); the unscaled
figures are printed beside them.
--trace 1 runs the heap and engine microbenchmarks, then alternates
untraced passes with traced ones and reports the per-layer metrics.

Lines for people come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The raw
samples, metadata and the spans of the last traced pass go to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("BENCHMARK.json", "src/casverify/cli.py", "tests/oracles.py")


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the package sources, to tell inputs apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "casverify").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload, args) -> dict:
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "commit": commit(),
        "source_digest": source_digest(), "load_model": "closed loop, 1 caller",
        **workload.metadata(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a casverify checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The seed the benchmark passes on the command line must be the one
    # that applies; CAS_SEED would override it.
    os.environ.pop("CAS_SEED", None)
    from perfbench.measure import OUT_DIR, Tally, end_to_end, per_layer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    report = {"meta": metadata(workload, args)}
    measure = per_layer if args.trace else end_to_end
    values = measure(workload, args.seconds, tally, report)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = len(tally.messages)
    report.update(metrics=metrics, attempted=tally.attempted, failed=failed,
                  failures=tally.messages)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")

    print("meta " + json.dumps(report["meta"], sort_keys=True))
    for key in ("tapes_per_pass", "cases_per_pass", "spans", "digests"):
        if key in report:
            print(f"{key} {report[key]}")
    notes = report.get("notes", {})
    if "speed" in notes:
        print(notes["speed"])
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_ratio {failed / tally.attempted:.4g} ({failed} of "
          f"{tally.attempted} checks failed)")
    for message in tally.messages[:20]:
        print(f"FAILED {message}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
