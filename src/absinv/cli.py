"""Command-line front end: program analysis and the finite oracle suites.

Exit codes: 0 — invariant found / zero oracle failures; 1 — no-invariant
verdict / oracle failures; 2 — usage, parse or validation errors.  Output is
deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .finite import SUITES, run_suites
from .programs import ProgramSyntaxError, StateVector, parse_init_literal, parse_program
from .synthesis import (
    DOMAINS,
    Adapter,
    AnalysisProblem,
    SynthesisResult,
    UnsupportedDomain,
    render_state_vector,
    synthesize,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absinv",
        description="Synthesize abstract inductive invariants for CFG programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run invariant synthesis on a program file")
    analyze.add_argument("--program", required=True, help="path to a program file")
    analyze.add_argument("--domain", required=True, choices=list(DOMAINS))
    analyze.add_argument("--alg", required=True, choices=["forward", "backward"])
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
    except (ProgramSyntaxError, ValueError) as exc:
        return _fail(f"{path}: {exc}")

    prop = {}
    for entry in args.prop:
        node, sep, literal = entry.partition(":")
        node = node.strip()
        if not sep:
            return _fail(f"property {entry!r} must look like 'qk: <literal>'")
        if node not in program.nodes:
            return _fail(f"unknown node {node!r} in property")
        if node in prop:
            return _fail(f"node {node!r} has a second property")
        try:
            prop[node] = parse_init_literal(literal.strip(), program.n, program.sort)
        except (ProgramSyntaxError, ValueError) as exc:
            return _fail(f"property at {node}: {exc}")

    try:
        problem = AnalysisProblem.build(program, args.domain, prop)
        result = synthesize(problem, args.alg)
    except (UnsupportedDomain, ValueError) as exc:
        return _fail(str(exc))

    if args.format == "json":
        _print_json(args, problem, result)
    else:
        _print_text(args, problem, result)
    return 0 if result.found else 1


def _rendered(adapter: Adapter, v: StateVector) -> dict[str, str]:
    """Node -> rendered element, in node order."""
    return {q: adapter.render(x) for q, x in zip(v.nodes, v.values)}


def _print_text(args: argparse.Namespace, problem: AnalysisProblem, result: SynthesisResult) -> None:
    adapter = problem.adapter
    if args.trace:
        for k, vec in enumerate(result.trace):
            print(f"{k}: {render_state_vector(adapter, vec)}")
    steps = len(result.trace) - 1
    if result.found:
        print(f"{result.kind} abstract inductive invariant found after {steps} steps:")
        for q, text in _rendered(adapter, result.invariant).items():
            print(f"  {q} = {text}")
    else:
        print(f"no abstract inductive invariant ({result.reason} at step {result.step})")
        print(f"violating iterate: {render_state_vector(adapter, result.violating)}")


def _print_json(args: argparse.Namespace, problem: AnalysisProblem, result: SynthesisResult) -> None:
    adapter = problem.adapter
    doc = {
        "algorithm": args.alg,
        "domain": args.domain,
        "steps": len(result.trace) - 1,
        "result": "invariant" if result.found else "no-invariant",
        "kind": result.kind,
        "invariant": _rendered(adapter, result.invariant) if result.found else None,
    }
    if not result.found:
        doc["reason"] = result.reason
        doc["step"] = result.step
        doc["violating"] = _rendered(adapter, result.violating)
    if args.trace:
        doc["trace"] = [_rendered(adapter, v) for v in result.trace]
    print(json.dumps(doc, indent=2))


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
    if args.command == "analyze":
        return _run_analyze(args)
    return _run_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
