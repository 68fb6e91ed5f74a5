#!/usr/bin/env python3
"""Print one sha256 per normalized verify report, to compare two commits.

    python3 scripts/report_digest.py

The reports are `verify run --check-expected` at bounds 2-5 and the random
detection matrix (budget 10k, bound 3) at seeds 0-19.  "Normalized" means
canonical JSON with every `wall_time` removed (`perfbench.gate`), so equal
digests on two commits mean equal verdicts, tapes, counts and hits.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from casverify import cli  # noqa: E402
from casverify.engine import RANDOM  # noqa: E402
from perfbench.gate import digest, normalized  # noqa: E402


def _report_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return digest([normalized(json.loads(out.getvalue()))])


def report_digests(bounds, seeds) -> list[tuple[str, str]]:
    """(label, digest) for each check-expected bound, then each matrix seed.
    CAS_SEED, when set, overrides every seed."""
    lines = []
    for bound in bounds:
        lines.append((f"run --check-expected --max-bound {bound}", _report_digest(
            ["run", "--check-expected", "--max-bound", str(bound),
             "--report", "json"])))
    for seed in seeds:
        lines.append((f"matrix --backend {RANDOM} --seed {seed}", _report_digest(
            ["matrix", "--backend", RANDOM, "--random-budget", "10000",
             "--max-bound", "3", "--seed", str(seed), "--report", "json"])))
    return lines


def main() -> int:
    os.environ.pop("CAS_SEED", None)
    for label, sha in report_digests(range(2, 6), range(20)):
        print(f"{sha}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
