"""Command-line front end: program analysis and the finite oracle suites.

The options are declared once, in ``_COMMANDS``.  ``_read_argv`` reads, in
one pass, an argv that is the command, then exact long flags, each but
``--trace`` followed by a value that does not start with ``-``.  argparse,
built from the same table, reads every other argv (help, abbreviations,
``--flag=value``, usage errors), so its output and exit codes are its own,
but for help to a failing standard output, which exits 2 as below.

``analyze`` reads ``--program`` as named; only where that fails is the name
read in ``pathlib.Path``'s form (no trailing slash, ``""`` as ``.``), which
decides, and which every message gives.  The parser checks the program and
each ``--prop`` literal; ``AnalysisProblem.build`` checks the property's
nodes and the domain's sort, over one adapter per (domain, n).

Exit codes: 0 — invariant found / zero oracle failures; 1 — no-invariant
verdict / oracle failures; 2 — usage, parse or validation errors, a result
that standard output cannot encode, or a standard output that fails (full,
or closed before all output was written, as by ``| head``), help included.
Output is deterministic: identical inputs produce byte-identical output.
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


_FORMAT = {"choices": ["text", "json"], "default": "text"}

# Each command's help and options, the options as ``add_argument`` keyword
# arguments by flag.  ``_build_parser`` and ``_read_argv`` both read this table.
_COMMANDS = {
    "analyze": ("run invariant synthesis on a program file", {
        "--program": {"required": True, "help": "path to a program file"},
        "--domain": {"required": True, "choices": list(DOMAINS)},
        "--alg": {"required": True, "choices": list(ALGORITHMS)},
        "--prop": {
            "action": "append",
            "default": [],
            "metavar": "'qk: <literal>'",
            "help": "safety property at a node (same literal syntax as init; repeatable; "
            "unspecified nodes default to top)",
        },
        "--trace": {"action": "store_true", "default": False, "help": "print every iterate"},
        "--format": _FORMAT,
    }),
    "oracle": ("run exhaustive finite-instance checker suites", {
        "--suite": {"required": True, "choices": sorted(SUITES) + ["all"]},
        "--seed": {"type": int, "default": 0},
        "--trials": {"type": int, "default": 100},
        "--format": _FORMAT,
    }),
}


class _Parser(argparse.ArgumentParser):
    """argparse, except that help is flushed before its exit, and a failing
    write raises, as on every other write to stdout; argparse's own print
    drops the error."""

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="absinv",
        description="Synthesize abstract inductive invariants for CFG programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        for flag, kwargs in options.items():
            command_parser.add_argument(flag, **kwargs)
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """What ``_build_parser().parse_args(argv)`` returns, read in one pass.

    Takes only the command, then exact flags of its ``_COMMANDS`` row, each
    but a ``store_true`` one followed by a value that does not start with
    ``-``; ``None`` for anything else, or for a value argparse would reject.
    """
    options = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else None
    if options is None:
        return None
    args = {"command": argv[0]}
    for flag, kwargs in options.items():  # argparse's defaults, in its order
        args[flag[2:]] = list(kwargs["default"]) if kwargs.get("action") == "append" else kwargs.get("default")
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            args[flag[2:]] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        if kwargs.get("action") == "append":
            args[flag[2:]].append(value)
        else:
            args[flag[2:]] = value
    # a value read from argv is never None, so None marks a required flag not given
    if any(kwargs.get("required") and args[flag[2:]] is None for flag, kwargs in options.items()):
        return None
    return argparse.Namespace(**args)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _read_text(path: str | Path) -> str:
    """The text ``Path.read_text`` gives, from one unbuffered read."""
    with open(path, "rb", buffering=0) as file:
        return file.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _run_analyze(args: argparse.Namespace) -> int:
    try:  # pathlib's form of the name only where the name as given fails (see above)
        text = _read_text(args.program)
    except (OSError, ValueError):  # a decoding error or a NUL in the name is a ValueError
        try:
            text = _read_text(Path(args.program))
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read {Path(args.program)}: {exc}")
    try:
        program = parse_program(text)
    except ValueError as exc:  # ProgramSyntaxError is one
        return _fail(f"{Path(args.program)}: {exc}")

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

    # render everything before printing, and print encodes all of it before
    # writing any, so a failure here (an integer too long to convert to text,
    # a character stdout cannot encode) prints nothing
    render = _json_output if args.format == "json" else _text_output
    try:
        rows = _rendered_trace(problem.adapter, result) if args.trace else []
        last = rows[-1] if rows else render_state_vector(problem.adapter, result.last)
        print(render(args, result, rows, last))
    except ValueError as exc:
        return _fail(f"cannot print the result: {exc}")
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


_STRING = json.encoder.encode_basestring_ascii  # C, where json has its speedups


def _json(obj: object, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for lists, tuples, ``str``-keyed dicts and
    scalars; with an indent ``json.dumps`` runs its pure-Python encoder, this writes strings in C."""
    if isinstance(obj, str):
        return _STRING(obj)
    if obj and isinstance(obj, (dict, list, tuple)):
        inner = indent + "  "
        sep = "," + inner
        if isinstance(obj, dict):  # a string value, as in every rendered row, is encoded in place
            items = [_STRING(k) + ": " + (_STRING(v) if type(v) is str else _json(v, inner)) for k, v in obj.items()]
            return "{" + inner + sep.join(items) + indent + "}"
        return "[" + inner + sep.join([_json(v, inner) for v in obj]) + indent + "]"
    return "null" if obj is None else repr(obj) if type(obj) is int else json.dumps(obj)


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
    return _json(doc)


def _run_oracle(args: argparse.Namespace) -> int:
    if args.trials < 0:
        return _fail("--trials must be nonnegative")
    reports = run_suites(args.suite, args.seed, args.trials)
    failures = sum(r["failures"] for r in reports)
    if args.format == "json":
        print(_json(reports))
    else:
        for r in reports:
            line = f"{r['name']}: trials={r['trials']} failures={r['failures']}"
            if r["first_failure_seed"] is not None:
                line += f" first-failure-seed={r['first_failure_seed']}"
            print(line)
        print(f"total failures: {failures}")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    try:
        if args is None:  # help, usage errors and the rarer forms: argparse's own
            args = _build_parser().parse_args(argv)
        code = _run_analyze(args) if args.command == "analyze" else _run_oracle(args)
        sys.stdout.flush()
    except OSError as exc:
        # stdout was closed early (as by ``| head``) or failed: send what is
        # still buffered to devnull, so that the flush at interpreter exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2 if isinstance(exc, BrokenPipeError) else _fail(f"cannot write the output: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
