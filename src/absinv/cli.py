"""Command-line front end: program analysis and the finite oracle suites.

Exit codes: 0 — invariant found / zero oracle failures; 1 — no-invariant
verdict / oracle failures; 2 — usage, parse or validation errors, or standard
output closed before all output was written (as by ``| head``).  Output is
deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .finite import SUITES, run_suites
from .programs import parse_init_literal, parse_program
from .synthesis import (
    ALGORITHMS,
    DOMAINS,
    Adapter,
    AnalysisProblem,
    SynthesisResult,
    render_state_vector,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absinv",
        description="Synthesize abstract inductive invariants for CFG programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run invariant synthesis on a program file")
    analyze.add_argument("--program", required=True, help="path to a program file")
    analyze.add_argument("--domain", required=True, choices=list(DOMAINS))
    analyze.add_argument("--alg", required=True, choices=list(ALGORITHMS))
    analyze.add_argument(
        "--prop",
        action="append",
        default=[],
        metavar="'qk: <literal>'",
        help="safety property at a node (same literal syntax as init; repeatable; "
        "unspecified nodes default to top)",
    )
    analyze.add_argument("--trace", action="store_true", help="print every iterate")
    analyze.add_argument("--format", choices=["text", "json"], default="text")

    oracle = sub.add_parser("oracle", help="run exhaustive finite-instance checker suites")
    oracle.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--trials", type=int, default=100)
    oracle.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _run_analyze(args: argparse.Namespace) -> int:
    path = Path(args.program)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {path}: {exc}")
    try:
        program = parse_program(text)
    except ValueError as exc:  # ProgramSyntaxError is one
        return _fail(f"{path}: {exc}")

    prop = {}
    for entry in args.prop:
        node, sep, literal = entry.partition(":")
        node = node.strip()
        if not sep:
            return _fail(f"property {entry!r} must look like 'qk: <literal>'")
        if node in prop:
            return _fail(f"node {node!r} has a second property")
        try:
            prop[node] = parse_init_literal(literal.strip(), program.n, program.sort)
        except ValueError as exc:
            return _fail(f"property at {node}: {exc}")

    try:
        problem = AnalysisProblem.build(program, args.domain, prop)
        result = ALGORITHMS[args.alg](problem)
    except ValueError as exc:
        return _fail(str(exc))

    # render everything before printing, so a failed rendering prints nothing
    render = _json_output if args.format == "json" else _text_output
    try:
        rows = _rendered_trace(problem.adapter, result) if args.trace else []
        last = rows[-1] if rows else render_state_vector(problem.adapter, result.last)
        output = render(args, result, rows, last)
    except ValueError as exc:  # e.g. an integer too long to convert to text
        return _fail(f"cannot print the result: {exc}")
    print(output)
    return 0 if result.found else 1


def _rendered_trace(adapter: Adapter, result: SynthesisResult) -> list[dict[str, str]]:
    """``render_state_vector`` of every iterate: the start, then each diff's nodes only."""
    nodes, rows = result.start.nodes, [render_state_vector(adapter, result.start)]
    for diff in result.diffs:
        row = dict(rows[-1])
        for j, x in diff.items():
            row[nodes[j]] = adapter.render(x)
        rows.append(row)
    return rows


def _line(row: dict[str, str]) -> str:
    """A rendered iterate on one line: ``q=text`` per node."""
    return " ".join(f"{q}={text}" for q, text in row.items())


def _text_output(args: argparse.Namespace, result: SynthesisResult, rows: list, last: dict[str, str]) -> str:
    """``rows``: the rendered iterates, none without ``--trace``; ``last``: the last one."""
    lines = [f"{k}: {_line(row)}" for k, row in enumerate(rows)]
    if result.found:
        lines.append(f"{result.kind} abstract inductive invariant found after {result.steps} steps:")
        lines += [f"  {q} = {text}" for q, text in last.items()]
    else:
        lines.append(f"no abstract inductive invariant ({result.reason} at step {result.steps})")
        lines.append(f"violating iterate: {_line(last)}")
    return "\n".join(lines)


def _json_output(args: argparse.Namespace, result: SynthesisResult, rows: list, last: dict[str, str]) -> str:
    doc = {
        "algorithm": args.alg,
        "domain": args.domain,
        "steps": result.steps,
        "result": "invariant" if result.found else "no-invariant",
        "kind": result.kind,
        "invariant": last if result.found else None,
    }
    if not result.found:
        doc["reason"] = result.reason
        doc["step"] = result.steps
        doc["violating"] = last
    if rows:
        doc["trace"] = rows
    return json.dumps(doc, indent=2)


def _run_oracle(args: argparse.Namespace) -> int:
    if args.trials < 0:
        return _fail("--trials must be nonnegative")
    reports = run_suites(args.suite, args.seed, args.trials)
    failures = sum(r["failures"] for r in reports)
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    else:
        for r in reports:
            line = f"{r['name']}: trials={r['trials']} failures={r['failures']}"
            if r["first_failure_seed"] is not None:
                line += f" first-failure-seed={r['first_failure_seed']}"
            print(line)
        print(f"total failures: {failures}")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run_analyze(args) if args.command == "analyze" else _run_oracle(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early: send what is still buffered to devnull, so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
