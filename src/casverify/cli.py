"""Command-line harness.

    verify [run] --proofs GLOB --backend exhaustive --max-bound 2 \
           --report json -o out.json
    verify replay PROOF TAPE_FILE [--variant buggy]
    verify matrix [--backend random] [--advisory]

Each command accepts only the flags it reads: `replay` takes no search flag
(--backend, --max-paths, --random-budget, --seed) and `matrix` no --variant.

Exit codes: 0 all verdicts as required, 1 verdict failure or expectation
mismatch, 2 usage error (bad flags or configuration, no proofs matched,
unreadable tape, unwritable output path).
The CAS_SEED environment variable overrides --seed.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import os
import sys

from . import report as report_mod
from .corpus import (ProofEntry, corpus_by_name, register_corpus, run_case,
                     run_matrix)
from .engine import (EXHAUSTIVE, RANDOM, ChoiceTape, ExploreConfig,
                     ReplayMismatchError, replay)
from .vacuity import STATUS_PASS, STATUS_PASS_BUT_VACUOUS

_COMMANDS = ("run", "replay", "matrix")


def _add_config_flags(p: argparse.ArgumentParser):
    """Scope and semantics flags, which every command reads."""
    p.add_argument("--max-bound", dest="size_bound", type=int, default=None,
                   help="small-scope bound for size draws")
    p.add_argument("--byte-domain", default=None,
                   help="comma-separated byte values, e.g. 0,1,255")
    p.add_argument("--max-choices", dest="max_choices_per_path", type=int, default=None)
    p.add_argument("--malloc-can-fail", dest="malloc_can_fail",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--typed-access-check", dest="typed_access_check",
                   action=argparse.BooleanOptionalAction, default=None)


def _add_search_flags(p: argparse.ArgumentParser):
    """Search flags, which only the exploring commands `run` and `matrix`
    read."""
    p.add_argument("--backend", choices=[EXHAUSTIVE, RANDOM], default=None)
    p.add_argument("--max-paths", dest="max_paths", type=int, default=None)
    p.add_argument("--random-budget", dest="random_budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_output_flags(p: argparse.ArgumentParser, default_format: str):
    p.add_argument("--report", choices=["json", "markdown"], default=default_format)
    p.add_argument("-o", "--output", default=None)


# An argparse parser is a web of reference cycles, so a parser built per
# call would leave garbage for the cyclic collector after every in-process
# `main`.  Parsing does not change the parser, so one per process serves
# every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify", description="Run unit proofs against the modeled heap.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="explore selected proofs")
    run_p.add_argument("--proofs", default="all", help="glob over proof names, or 'all'")
    run_p.add_argument("--check-expected", action="store_true",
                       help="run every registered case and compare to its "
                            "expected verdict")
    run_p.add_argument("--fail-on-vacuity", action="store_true")
    run_p.add_argument("--save-tapes", default=None,
                       help="directory for counterexample tape files")
    _add_config_flags(run_p)
    _add_search_flags(run_p)
    run_p.add_argument("--variant", choices=["fixed", "buggy"], default="fixed")
    _add_output_flags(run_p, "json")

    rep_p = sub.add_parser("replay", help="re-run one recorded counterexample")
    rep_p.add_argument("proof")
    rep_p.add_argument("tape")
    _add_config_flags(rep_p)
    rep_p.add_argument("--variant", choices=["fixed", "buggy"], default="fixed")

    mat_p = sub.add_parser("matrix", help="run the seeded-bug detection matrix")
    mat_p.add_argument("--proofs", default="all")
    mat_p.add_argument("--advisory", action="store_true",
                       help="report mismatches without failing the exit code")
    _add_config_flags(mat_p)
    _add_search_flags(mat_p)
    _add_output_flags(mat_p, "markdown")
    return parser


def config_from_args(args) -> ExploreConfig:
    overrides = {}
    for name in ("backend", "size_bound", "max_paths", "max_choices_per_path",
                 "random_budget", "seed", "malloc_can_fail",
                 "typed_access_check"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "byte_domain", None) is not None:
        try:
            overrides["byte_domain"] = tuple(
                int(x, 0) for x in args.byte_domain.split(","))
        except ValueError:
            raise ValueError(f"--byte-domain {args.byte_domain!r} is not a "
                             "comma-separated list of integers") from None
    env_seed = os.environ.get("CAS_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"CAS_SEED={env_seed!r} is not an integer") from None
    return ExploreConfig(**overrides)


def _select(pattern: str) -> list[ProofEntry]:
    entries = register_corpus()
    if pattern in ("all", "*", ""):
        return entries
    return [e for e in entries if fnmatch.fnmatch(e.name, pattern)]


def _check_writable(args) -> None:
    """Raise the OSError that writing `-o` or `--save-tapes` would meet, so
    that an unwritable path fails before any case runs.  An existing `-o`
    file is left as it is, and a new one is removed again; the
    `--save-tapes` directory is created."""
    if args.output:
        existed = os.path.lexists(args.output)
        open(args.output, "a").close()
        if not existed:
            os.remove(args.output)
    if getattr(args, "save_tapes", None):
        os.makedirs(args.save_tapes, exist_ok=True)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _save_tapes(directory: str, results) -> None:
    for r in results:
        if r.tape is not None:
            path = os.path.join(directory, f"{r.entry.name}.{r.case.label}.tape")
            with open(path, "w") as fh:
                fh.write(r.tape.to_text())


def _cannot_write(e: OSError) -> int:
    """Usage-error exit for an output path that cannot be written."""
    print(f"verify: cannot write {e.filename or 'output'}: {e.strerror or e}",
          file=sys.stderr)
    return 2


def _cmd_run(args, cfg: ExploreConfig) -> int:
    entries = _select(args.proofs)
    if not entries:
        print(f"no proofs matched {args.proofs!r}", file=sys.stderr)
        return 2
    if args.check_expected:
        tasks = [(e, c) for e in entries for c in e.cases]
    else:
        tasks = [(e, e.free_case(args.variant)) for e in entries]
    try:
        _check_writable(args)
    except OSError as e:
        return _cannot_write(e)
    results = [run_case(e, c, cfg) for e, c in tasks]

    doc = report_mod.build_document("run", cfg, results)
    text = report_mod.to_json(doc) if args.report == "json" \
        else report_mod.to_markdown(doc)
    try:
        if args.save_tapes:
            _save_tapes(args.save_tapes, results)
        _emit(args, text)
    except OSError as e:
        return _cannot_write(e)

    if args.check_expected:
        return 0 if all(r.matched for r in results) else 1
    acceptable = {STATUS_PASS}
    if not args.fail_on_vacuity:
        acceptable.add(STATUS_PASS_BUT_VACUOUS)
    return 0 if all(r.status in acceptable for r in results) else 1


def _cmd_replay(args, cfg: ExploreConfig) -> int:
    entry = corpus_by_name().get(args.proof)
    if entry is None:
        print(f"unknown proof {args.proof!r}", file=sys.stderr)
        return 2
    try:
        with open(args.tape) as fh:
            tape = ChoiceTape.from_text(fh.read())
    except (OSError, ValueError) as e:
        print(f"cannot load tape: {e}", file=sys.stderr)
        return 2
    case = entry.free_case(args.variant)
    cfg = entry.config_for(cfg, case)
    trace: list[str] = []
    try:
        rep = replay(entry.body, tape, cfg, name=entry.name,
                     sites=entry.sites, buggy=case.buggy, trace=trace)
    except ReplayMismatchError as e:
        print(f"replay mismatch: {e}", file=sys.stderr)
        return 2
    for line in trace:
        print(line)
    v = rep.verdict
    detail = v.fault.kind.value if v.fault else (v.failed_site or v.message or "")
    print(f"verdict: {v.status}" + (f" ({detail})" if detail else ""))
    return 0 if v.is_pass else 1


def _cmd_matrix(args, cfg: ExploreConfig) -> int:
    entries = [e for e in _select(args.proofs) if e.bug_id is not None]
    if not entries:
        print(f"no seeded-bug proofs matched {args.proofs!r}", file=sys.stderr)
        return 2
    try:
        _check_writable(args)
    except OSError as e:
        return _cannot_write(e)
    doc = report_mod.build_document("matrix", cfg, run_matrix(cfg, entries))
    if args.report == "json":
        text = report_mod.to_json(doc)
    else:
        text = "\n".join(report_mod.matrix_markdown_lines(doc["matrix"])) + "\n"
    try:
        _emit(args, text)
    except OSError as e:
        return _cannot_write(e)
    if args.output:
        # keep the table visible even when the document went to a file
        print("\n".join(report_mod.matrix_markdown_lines(doc["matrix"])))
    return 0 if (doc["matrix"]["all_match"] or args.advisory) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["run"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        cfg = config_from_args(args)
    except ValueError as e:
        print(f"verify: bad configuration: {e}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args, cfg)
    if args.command == "replay":
        return _cmd_replay(args, cfg)
    return _cmd_matrix(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
