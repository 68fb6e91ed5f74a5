#!/usr/bin/env python3
"""Write the stored references of the correctness gate.

    python3 perfbench/make_reference.py

Runs each workload that has a stored reference once and records the
behaviour of every command in `perfbench/reference/<workload>.json`.  Only
a change that is meant to alter verdicts, tapes or path counts regenerates
them; a performance change must pass against the references as they are.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    REFERENCE_DIR, CorpusExhaustive, RandomMatrix, run_pass)


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for cls in (CorpusExhaustive, RandomMatrix):
        workload = cls(0)
        result = run_pass(workload.commands())
        commands = {}
        for c in result.commands:
            if c.doc is None:
                print(f"{' '.join(c.argv)}: {c.error}", file=sys.stderr)
                return 1
            commands[" ".join(c.argv)] = c.behaviour
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps({"workload": workload.name, "commands": commands},
                                   indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
