"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from absinv import cli, finite, synthesis
from absinv.cli import main
from absinv.programs import parse_program
from conftest import PROGRAMS_DIR

CONST = str(PROGRAMS_DIR / "const_demo.prog")
AFFINE = str(PROGRAMS_DIR / "affine_demo.prog")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_found_exits_zero(capsys):
    code, out, _ = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q2: (top,2)"],
        capsys,
    )
    assert code == 0
    assert "least abstract inductive invariant" in out
    assert "q3 = (top,1)" in out


def test_analyze_backward_found(capsys):
    code, out, _ = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "backward",
         "--prop", "q2: (top,2)"],
        capsys,
    )
    assert code == 0
    assert "greatest abstract inductive invariant" in out
    assert "q4 = (top,top)" in out


def test_analyze_not_found_exits_one(capsys):
    code, out, _ = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q2: (0,top)"],
        capsys,
    )
    assert code == 1
    assert "no abstract inductive invariant" in out
    assert "violating iterate" in out


def test_analyze_trace_flag_prints_iterates(capsys):
    code, out, _ = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q2: (top,2)", "--trace"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "0: q1=(top,top) q2=bot q3=bot q4=bot"


def test_analyze_json_format(capsys):
    code, out, _ = run(
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward",
         "--prop", "q4: x1 + x2 + 1 = 0", "--format", "json", "--trace"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "invariant"
    assert doc["algorithm"] == "forward" and doc["domain"] == "affine"
    assert doc["steps"] == 3 and len(doc["trace"]) == 4
    assert doc["invariant"]["q2"] == "{x1+2*x2=0 /\\ x3-1=0}"


@pytest.mark.parametrize(
    "alg, prop, reason, step",
    [
        ("forward", "q2: (0,top)", "property-violated", 3),
        ("backward", "q2: (0,top)", "verification-failed", 1),
        ("backward", "q1: (1,1)", "init-not-entailed", 1),
    ],
)
@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["no-trace", "trace"])
def test_json_no_invariant_names_the_reason_step_and_violating_iterate(capsys, alg, prop, reason, step, trace):
    """``violating`` is the iterate the text output prints, and the last row of ``trace``."""
    args = ["analyze", "--program", CONST, "--domain", "const", "--alg", alg, "--prop", prop, *trace]
    code, text, _ = run(args, capsys)
    json_code, out, _ = run([*args, "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == json_code == 1
    assert (doc["result"], doc["kind"], doc["invariant"]) == ("no-invariant", None, None)
    assert (doc["reason"], doc["step"], doc["steps"]) == (reason, step, step)
    violating = text.splitlines()[-1].removeprefix("violating iterate: ")
    assert " ".join(f"{q}={x}" for q, x in doc["violating"].items()) == violating
    assert list(doc["violating"]) == ["q1", "q2", "q3", "q4"]
    if trace:
        assert doc["violating"] == doc["trace"][-1] and len(doc["trace"]) == step + 1


def test_analyze_output_is_deterministic(capsys):
    args = ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
            "--prop", "q2: (top,2)", "--trace", "--format", "json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_trace_renders_each_element_once(monkeypatch, capsys, fmt):
    """--trace renders the start vector, then only the nodes each step
    changed; the invariant reuses the strings of the last iterate."""
    calls = []
    original = synthesis.AffAdapter.render

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(synthesis.AffAdapter, "render", counted)
    code, out, _ = run(
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward", "--trace", "--format", fmt],
        capsys,
    )
    assert code == 0 and out.count("q1") > 4
    problem = synthesis.AnalysisProblem.build(parse_program(Path(AFFINE).read_text()), "affine")
    result = synthesis.ainv_forward(problem)
    N = len(problem.nodes)
    assert len(calls) == N + sum(map(len, result.diffs)) < N * (result.steps + 1)


# quote, backslash, controls, DEL, non-ASCII, a line separator and astral characters
_JSON_CHARS = ['a', 'q', '1', ' ', '/', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', 'é', '⊤', '\u2028', '\U0001f600', '𝔸']


def _random_document(rng: random.Random, depth: int = 0):
    """A JSON document: scalars, ``str``-keyed dicts, lists and tuples, up to four deep."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 7, -1, -(10**25), 2**64, 10**100])
    if kind in (2, 3):
        return _random_string(rng)
    items = [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    if kind == 6:  # a trace: rows of node -> rendered element
        return [{f"q{j}": rng.choice(["bot", "top", "(top,-2)", "{x1-x2=0}"]) for j in range(k)} for k in range(len(items))]
    return {_random_string(rng): x for x in items}


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 5)))


def test_json_writer_is_json_dumps_with_indent_2():
    rng = random.Random("json-writer")
    docs = [{}, [], (), "", None, {"": {}}, [[], {}, ()], {"a": [{"b": None}]}]
    docs += [_random_document(rng) for _ in range(3000)]
    for doc in docs:
        assert cli._json(doc) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--program", CONST, "--domain", "const", "--alg", alg, *prop, "--trace", "--format", "json"]
        for alg in synthesis.ALGORITHMS for prop in ([], ["--prop", "q2: (top,2)"], ["--prop", "q2: (0,top)"])
    ] + [
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward", "--trace", "--format", "json"],
        ["analyze", "--program", "{unicode}", "--domain", "const", "--alg", "forward", "--trace", "--format", "json"],
        ["oracle", "--suite", "all", "--seed", "3", "--trials", "2", "--format", "json"],
    ],
)
def test_json_output_is_json_dumps_with_indent_2(tmp_path, capsys, argv):
    """Both JSON outputs print what ``json.dumps(doc, indent=2)`` prints; node
    names with non-ASCII and astral letters are escaped as it escapes them."""
    path = tmp_path / "unicode.prog"
    path.write_text("vars 1; sort int; nodes qé q𝔸 qλ; init qé: (1); edge qé -> q𝔸 : x1 := x1 + 1;", encoding="utf-8")
    code, out, _ = run([str(path) if a == "{unicode}" else a for a in argv], capsys)
    assert code in (0, 1) and out == json.dumps(json.loads(out), indent=2) + "\n"


def _cli_env(**extra) -> dict[str, str]:
    """The environment of a ``python -m absinv.cli`` run on this checkout's ``src``."""
    src = str(PROGRAMS_DIR.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra}


def test_parser_reuse_keeps_no_state_between_calls(monkeypatch, capsys):
    """The parser is built once; ``--prop`` values must not carry over to the
    next call, each call gets a list of its own, and no call mutates the
    default list that the option table and the parser share."""
    seen = []
    run_analyze = cli._run_analyze
    monkeypatch.setattr(cli, "_run_analyze", lambda args: seen.append(args) or run_analyze(args))
    default = cli._COMMANDS["analyze"][1]["--prop"]["default"]
    parser_default = cli._build_parser().parse_args(["analyze", "--program", "p", "--domain", "const", "--alg", "forward"]).prop
    assert parser_default is default == []
    base = ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward", "--trace"]
    code, out, _ = run(base + ["--prop", "q2: (0,top)", "--prop", "q3: (top,1)"], capsys)
    assert code == 1 and "no abstract inductive invariant" in out
    assert run(base + ["--prop=q2: (top,2)"], capsys)[0] == 0  # argparse reads the = form
    code, out, err = run(base, capsys)
    run(base, capsys)
    assert [args.prop for args in seen] == [["q2: (0,top)", "q3: (top,1)"], ["q2: (top,2)"], [], []]
    assert len({id(args.prop) for args in seen}) == len(seen) and all(args.prop is not default for args in seen)
    assert default == [] and cli._build_parser().parse_args(base[:-1]).prop == []
    fresh = subprocess.run([sys.executable, "-m", "absinv.cli", *base], capture_output=True, text=True, env=_cli_env())
    assert code == fresh.returncode == 0
    assert (out, err) == (fresh.stdout, fresh.stderr)


def test_main_without_argv_reads_sys_argv_in_one_pass(monkeypatch, capsys):
    """``main()`` reads ``sys.argv[1:]``, and a well-formed one never builds
    the argparse parser."""
    argv = ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward", "--prop", "q2: (top,2)"]
    expected = run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["absinv", *argv])
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("argparse read a well-formed argv"))
    assert run(None, capsys) == expected and expected[0] == 0


def test_text_result_stdout_cannot_encode_exits_two(tmp_path):
    """A result with a character standard output cannot encode is an error,
    and nothing is printed; JSON output escapes it."""
    path = tmp_path / "accent.prog"
    path.write_text("vars 1; sort int; nodes qé q2; init qé: (0); edge qé -> q2 : skip;", encoding="utf-8")
    argv = [sys.executable, "-m", "absinv.cli", "analyze", "--domain", "const", "--alg", "forward", "--program", str(path)]
    env = _cli_env(PYTHONIOENCODING="ascii")
    for trace in ([], ["--trace"]):
        text = subprocess.run(argv + trace, capture_output=True, env=env)
        assert (text.returncode, text.stdout) == (2, b"")
        assert text.stderr.startswith(b"error: cannot print the result: 'ascii' codec can't encode")
        assert b"Traceback" not in text.stderr
    doc = subprocess.run(argv + ["--format", "json"], capture_output=True, env=env)
    assert (doc.returncode, doc.stderr) == (0, b"")
    assert json.loads(doc.stdout)["invariant"] == {"qé": "(0)", "q2": "(0)"}


# argparse prints help and exits 0; its own print drops a write that fails
_HELP_ARGVS = [["-h"], ["analyze", "-h"], ["oracle", "--help"]]
_HELP_IDS = ["help", "analyze-help", "oracle-help"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward"],
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward", "--trace", "--format", "json"],
        ["oracle", "--suite", "lemma1", "--trials", "2"],
        *_HELP_ARGVS,
    ],
    ids=["analyze-short", "analyze-trace-json", "oracle", *_HELP_IDS],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_exits_two_with_an_error_line(args, unbuffered):
    """A standard output that fails other than by a closed pipe is an error
    too: exit 2, one ``error:`` line and no traceback, not a verdict."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "absinv.cli", *args], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write the output: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward", "--trace",
         "--format", "json"],
        ["oracle", "--suite", "all", "--seed", "1", "--trials", "50", "--format", "json"],
        # output small enough to stay in the buffer until the final flush
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward"],
        *_HELP_ARGVS,
    ],
    ids=["analyze-trace-json", "oracle-json", "analyze-short", *_HELP_IDS],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_two_without_a_traceback(args, unbuffered):
    """Standard output whose reader is gone (``| head``) is an error, not a verdict.

    Buffered, a short output fails only when it is flushed; unbuffered, in ``print``."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)  # every write to w fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "absinv.cli", *args], stdout=w, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr


def test_analyze_missing_file_exits_two(capsys):
    code, _, err = run(
        ["analyze", "--program", "no-such-file.prog", "--domain", "const",
         "--alg", "forward"],
        capsys,
    )
    assert code == 2 and "cannot read" in err


def test_analyze_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_bytes(b"\xff\xfe vars 1;")
    code, out, err = run(
        ["analyze", "--program", str(bad), "--domain", "const", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in err


def test_analyze_program_name_with_a_nul_exits_two(capsys):
    """A name no file can have, such as one with a NUL, which only an
    in-process caller can pass, is a file that cannot be read."""
    code, out, err = run(["analyze", "--program", "a\0b", "--domain", "const", "--alg", "forward"], capsys)
    assert (code, out, err) == (2, "", "error: cannot read a\0b: embedded null byte\n")


_LF_PROGRAM = "vars 1; # one variable\nsort int;\nnodes q1 q2;\ninit q1: (1);\nedge q1 -> q2 : x1 := x1 + 1;\n"


@pytest.mark.parametrize(
    "content, code, err",
    [
        (_LF_PROGRAM.replace("\n", "\r\n").encode(), 0, ""),
        (_LF_PROGRAM.replace("\n", "\r").encode(), 0, ""),  # the comment ends at the CR
        (b"vars 1;\r\nsort int;\r\nnodes q1;\r\nedge q1 -> q2 : skip;\r\n", 2,
         "error: {path}: 4:12: unknown node 'q2'\n"),
        (b"vars 1;\rsort int;\rnodes q1;\redge q1 -> q2 : skip;\r", 2,
         "error: {path}: 4:12: unknown node 'q2'\n"),
        (b"vars 1; # a\r\nsort int;\rnodes q1;\n\r\n\r\redge q1 -> q2 : skip;", 2,
         "error: {path}: 7:12: unknown node 'q2'\n"),
        (b"# " + b"a" * 9000 + b"\r\n\xff", 2,
         "error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 9004: invalid start byte\n"),
        (b"\xef\xbb\xbf" + _LF_PROGRAM.encode(), 2, "error: {path}: 1:1: unexpected character '\\ufeff'\n"),
        ("directory", 2, "error: cannot read {path}: [Errno 21] Is a directory: '{path}'\n"),
        ("missing", 2, "error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"),
    ],
    ids=["crlf", "cr", "crlf-error", "cr-error", "mixed-error", "bad-utf8-past-8k", "bom", "directory", "missing"],
)
def test_program_files_read_as_text_with_universal_newlines(tmp_path, capsys, content, code, err):
    """A program file is read as ``Path.read_text`` reads it: strict UTF-8,
    then CRLF and a lone CR as LF; an error names the file and, for a
    decoding error, the byte's position in the whole file."""
    path = {"directory": tmp_path, "missing": tmp_path / "missing.prog"}.get(content, tmp_path / "p.prog")
    if isinstance(content, bytes):
        path.write_bytes(content)
    argv = ["analyze", "--program", str(path), "--domain", "const", "--alg", "forward"]
    got = run(argv, capsys)
    if code == 0:
        (tmp_path / "lf.prog").write_text(_LF_PROGRAM, encoding="utf-8")
        argv[2] = str(tmp_path / "lf.prog")
        assert got == run(argv, capsys) and "found" in got[1]
    assert got[0] == code and got[2] == err.format(path=path)


def test_analyze_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("vars 1; sort int; nodes a; edge a -> zz : skip;")
    code, _, err = run(
        ["analyze", "--program", str(bad), "--domain", "const", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and "unknown node" in err


_BAD_PROGRAM = "vars 1; sort int; nodes a; edge a -> zz : skip;"


@pytest.mark.parametrize(
    "name, code, err",
    [
        ("a.prog/", 0, ""),
        ("./a.prog", 0, ""),
        ("./nodir//missing.prog", 2,
         "error: cannot read nodir/missing.prog: [Errno 2] No such file or directory: 'nodir/missing.prog'\n"),
        ("", 2, "error: cannot read .: [Errno 21] Is a directory: '.'\n"),
        ("sub", 2, "error: cannot read sub: [Errno 21] Is a directory: 'sub'\n"),
        ("./sub/", 2, "error: cannot read sub: [Errno 21] Is a directory: 'sub'\n"),
        (".//bad.prog", 2, "error: bad.prog: {syntax}\n"),
    ],
    ids=["trailing-slash", "dot-slash", "missing", "empty", "directory", "directory-slash", "syntax-error"],
)
def test_program_path_is_read_and_named_in_pathlib_form(tmp_path, monkeypatch, capsys, name, code, err):
    """``--program`` reads the file ``pathlib.Path`` names: a trailing slash
    and ``.`` components are dropped, doubled slashes are one and ``""`` is
    ``.``; every message names the file in that form."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.prog").write_text(Path(CONST).read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "bad.prog").write_text(_BAD_PROGRAM, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    with pytest.raises(ValueError) as syntax:
        parse_program(_BAD_PROGRAM)
    got = run(["analyze", "--program", name, "--domain", "const", "--alg", "forward"], capsys)
    if code == 0:
        assert got == run(["analyze", "--program", "a.prog", "--domain", "const", "--alg", "forward"], capsys)
        assert "found" in got[1]
    assert got[0] == code and got[2] == err.format(syntax=syntax.value)


def test_a_program_read_as_named_builds_no_path(monkeypatch, capsys):
    """pathlib's form of the name is made only once a read fails."""
    expected = run(["analyze", "--program", CONST, "--domain", "const", "--alg", "forward"], capsys)
    monkeypatch.setattr(cli, "Path", lambda name: pytest.fail(f"Path({name!r}) was built"))
    assert run(["analyze", "--program", CONST, "--domain", "const", "--alg", "forward"], capsys) == expected


def test_analyze_domain_sort_mismatch_exits_two(capsys):
    code, _, err = run(
        ["analyze", "--program", AFFINE, "--domain", "const", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and "sort" in err


def test_analyze_backward_affine_exits_two(capsys):
    code, _, err = run(
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "backward"],
        capsys,
    )
    assert code == 2 and "backward synthesis is not supported" in err


def test_analyze_bad_property_exits_two(capsys):
    code, _, err = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q9: top"],
        capsys,
    )
    assert code == 2 and "unknown node" in err
    code, _, err = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q2 top"],
        capsys,
    )
    assert code == 2


def test_property_literals_are_read_before_the_node_is_looked_up(capsys):
    """The node of a property is checked when the problem is built, after
    every literal has been parsed and every node named at most once."""
    base = ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward"]
    code, out, err = run(base + ["--prop", "q9: (1,2,3)"], capsys)
    assert (code, out) == (2, "") and err == "error: property at q9: 1:8: vector literal has 3 entries, expected 2\n"
    code, out, err = run(base + ["--prop", "q9: top", "--prop", "q9: top"], capsys)
    assert (code, out) == (2, "") and err == "error: node 'q9' has a second property\n"
    code, out, err = run(base + ["--prop", "q2: (top,2)", "--prop", "q9: top"], capsys)
    assert (code, out) == (2, "") and err == "error: unknown node 'q9' in property\n"


def test_zero_denominator_in_program_exits_two(tmp_path, capsys):
    prog = tmp_path / "zero.prog"
    prog.write_text("vars 1;\nsort rat;\nnodes q1;\ninit q1: (1/0);\n")
    code, out, err = run(
        ["analyze", "--program", str(prog), "--domain", "affine", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "4:13: zero denominator" in err


def test_zero_denominator_in_property_exits_two(capsys):
    code, out, err = run(
        ["analyze", "--program", AFFINE, "--domain", "affine", "--alg", "forward",
         "--prop", "q1: (1/0,0,0)"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "property at q1: 1:4: zero denominator" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vars 2; sort int; nodes q1; vars 1;", "'vars' is declared twice"),
        ("vars 1; sort int; sort rat; nodes q1;", "'sort' is declared twice"),
        ("vars 1; sort int; nodes q1; nodes q1 q2;", "'nodes' is declared twice"),
        ("vars 1; sort int; nodes q1; init q1: top; init q1: (3);", "second init"),
        ("vars 1; sort int; nodes q1 q1;", ": 1:28: duplicate node name 'q1'"),
    ],
    ids=["vars", "sort", "nodes", "init", "node-name"],
)
def test_redeclaration_exits_two(tmp_path, capsys, text, message):
    prog = tmp_path / "redeclared.prog"
    prog.write_text(text)
    code, out, err = run(
        ["analyze", "--program", str(prog), "--domain", "const", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and out == "" and message in err


def test_second_property_for_a_node_exits_two(capsys):
    code, out, err = run(
        ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
         "--prop", "q2: (top,2)", "--prop", "q2: (0,top)"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "node 'q2' has a second property" in err


def test_oracle_runs_and_exits_zero(capsys):
    code, out, _ = run(["oracle", "--suite", "lemma1", "--seed", "0", "--trials", "5"], capsys)
    assert code == 0
    assert "lemma1: trials=5 failures=0" in out


def test_oracle_zero_trials(capsys):
    code, out, _ = run(["oracle", "--suite", "all", "--seed", "0", "--trials", "0"], capsys)
    assert code == 0
    assert "total failures: 0" in out


def test_oracle_json_format(capsys):
    code, out, _ = run(
        ["oracle", "--suite", "adjunctions", "--seed", "1", "--trials", "3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["name"] == "adjunctions" and reports[0]["failures"] == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_reports_its_first_failure_and_exits_one(monkeypatch, capsys, fmt):
    """A suite whose trials 2 and 4 fail: the report counts both, names the
    seed of trial 2, and the exit code is 1."""
    monkeypatch.setitem(finite.SUITES, "lemma1", lambda s, k: k not in (2, 4))
    code, out, err = run(["oracle", "--suite", "lemma1", "--seed", "7", "--trials", "6", "--format", fmt], capsys)
    assert (code, err) == (1, "")
    if fmt == "json":
        assert json.loads(out) == [{"name": "lemma1", "trials": 6, "failures": 2, "first_failure_seed": "7:lemma1:2"}]
    else:
        assert out == "lemma1: trials=6 failures=2 first-failure-seed=7:lemma1:2\ntotal failures: 2\n"


def test_oracle_negative_trials_exits_two(capsys):
    code, out, err = run(["oracle", "--suite", "all", "--trials", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: --trials must be nonnegative\n")


def test_oracle_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--suite", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, prop, where",
    [
        (f"vars {10**20}; sort int; nodes q1; init q1: top;", None, ": 1:6: variable count must be <= "),
        ("vars ²; sort int; nodes q1;", None, ": 1:6: expected a variable count"),
        ("vars 1; sort int; nodes q1;\nedge q1 -> q1 : x1 := x²;", None, ": 2:23: expected a variable x1..x1"),
        ("vars 1; sort int; nodes q1;", "q1: (1²)", "property at q1: 1:3: expected ')'"),
        ("vars 1; sort int; nodes q1;", f"q1: ({'9' * 5000})", "property at q1: 1:2: number has too many digits"),
    ],
    ids=["oversized-count", "count-digit", "variable-digit", "property-digit", "property-too-long"],
)
def test_malformed_numbers_exit_two_with_a_position(tmp_path, capsys, text, prop, where):
    path = tmp_path / "bad.prog"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", "--program", str(path), "--domain", "const", "--alg", "forward"]
    code, out, err = run(argv + (["--prop", prop] if prop else []), capsys)
    assert code == 2 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, where",
    [
        ("vars 1; sort int; nodes q1;\nedge q1 -> q1 : x1 := 2*3;", ": 2:25: expected a variable x1..x1\n"),
        ("vars 1; sort int; nodes q1;\nedge -> q1 : skip;", ": 2:6: expected an identifier\n"),
        ("vars 1;\nsort 1;\nnodes q1;", ": 2:6: expected an identifier\n"),
    ],
    ids=["variable", "node", "sort"],
)
def test_missing_identifier_is_named_as_a_category(tmp_path, capsys, text, where):
    path = tmp_path / "bad.prog"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["analyze", "--program", str(path), "--domain", "const", "--alg", "forward"], capsys)
    assert code == 2 and out == ""
    assert err.endswith(where) and "'identifier'" not in err


@pytest.mark.parametrize(
    "text, where",
    [
        ("vars 1; sort int; nodes q1;\nedge q1 -> q1 : assume x1 + = 0;", ": 2:29: expected a term\n"),
        ("vars 1; sort int; nodes q1;\nedge q1 -> q1 : x1 := 2*x1 - ;", ": 2:30: expected a term\n"),
        ("vars 2; sort int; nodes q1;\nedge q1 -> q1 : x1 := x1 +, x2 := x2;", ": 2:27: expected a term\n"),
    ],
    ids=["guard", "assignment", "parallel-assignment"],
)
def test_sign_without_a_term_exits_two(tmp_path, capsys, text, where):
    """A run of '+'/'-' that no term follows is an error, not the end of the sum."""
    path = tmp_path / "bad.prog"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["analyze", "--program", str(path), "--domain", "const", "--alg", "forward"], capsys)
    assert code == 2 and out == ""
    assert err.endswith(where) and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("sort, domain", [("int", "const"), ("rat", "affine")])
@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--trace"]], ids=["text", "json", "trace"])
def test_result_too_long_to_print_exits_two(tmp_path, capsys, sort, domain, flags):
    """A computed number past Python's int-to-str digit limit is an error, not a traceback."""
    nines = "9" * 3000
    path = tmp_path / "big.prog"
    path.write_text(
        f"vars 1; sort {sort}; nodes q1 q2; init q1: ({nines}); edge q1 -> q2 : x1 := {nines}*x1;",
        encoding="utf-8",
    )
    argv = ["analyze", "--program", str(path), "--domain", domain, "--alg", "forward", *flags]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot print the result: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# The one-pass argv reader against argparse
# ---------------------------------------------------------------------------

_GOOD = {  # valid values by flag; the first three flags of analyze and the first of oracle are required
    "analyze": {
        "--program": ["p.prog", "dir/a b.prog", "é.prog", "+1", " "],
        "--domain": ["const", "affine"],
        "--alg": ["forward", "backward"],
        "--prop": ["q2: (top,2)", "q1: top", "", "q3: x1 = -1"],
        "--format": ["text", "json"],
    },
    "oracle": {
        "--suite": ["all", "lemma1", "algorithms"],
        "--seed": ["0", "7", "123", "+5", " 7", "1_000", "٣", "007"],
        "--trials": ["5", "100", "+0"],
        "--format": ["text", "json"],
    },
}
_REQUIRED = {"analyze": 3, "oracle": 1}
_FLAGS = sorted({flag for flags in _GOOD.values() for flag in flags} | {"--trace"})
_NOISE = [
    *_FLAGS, *(v for flags in _GOOD.values() for values in flags.values() for v in values),
    "--prog", "--dom", "--al", "--pr", "--tr", "--form", "--f", "--su", "--se", "--tri", "--t", "--h",
    "--program=p.prog", "--domain=const", "--seed=3", "--format=json", "--prop=q1: top", "--trace=1",
    "-h", "--help", "--", "-", "-3", "-x", "--x", "-1e3", "",
    "constant", "Forward", "JSON", "lemma", "7.0", "0x10", "1e3", "٣٣", "9" * 4301, "²",
    "extra", "analyze", "oracle", "--PROGRAM",
]


def _well_formed_argv(rng: random.Random) -> list[str]:
    command = rng.choice(sorted(_GOOD))
    flags = list(_GOOD[command])
    chosen = flags[: _REQUIRED[command]] + rng.choices(flags, k=rng.randint(0, 4))
    rng.shuffle(chosen)
    argv = [command]
    for flag in chosen:
        argv += [flag, rng.choice(_GOOD[command][flag])]
        if command == "analyze" and rng.random() < 0.3:
            argv.append("--trace")
    return argv


def _mutated_argv(rng: random.Random) -> list[str]:
    argv = _well_formed_argv(rng)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(argv))
        op = rng.choice(["insert", "delete", "replace"])
        if op == "insert":
            argv.insert(i, rng.choice(_NOISE))
        elif argv:
            if op == "delete":
                del argv[min(i, len(argv) - 1)]
            else:
                argv[min(i, len(argv) - 1)] = rng.choice(_NOISE)
    return argv


def _rewritten_argv(rng: random.Random) -> list[str]:
    """A well-formed argv with one flag abbreviated, or joined to its value by ``=``."""
    argv = _well_formed_argv(rng)
    i = rng.choice([i for i, token in enumerate(argv) if token in _FLAGS and token != "--trace"])
    if rng.random() < 0.5:
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    else:
        argv[i] = argv[i][: rng.randint(3, len(argv[i]) - 1)]
    return argv


def _captured(call):
    """(result or exit code, stdout, stderr) of ``call()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_FIXED_ARGVS = [
    ["oracle", "--suite", "all", "--seed", value] for value in ("+5", " 7", "1_000", "٣", "-3", "", "7.0", "9" * 4301)
] + [
    [], ["-h"], ["analyze", "-h"], ["oracle", "--help"], ["analyze"], ["oracle", "--suite", "all", "--"],
    ["analyze", "--program", "p", "--domain", "const", "--alg", "forward", "--prop", "-q2: top"],
    ["analyze", "--program", "p", "--domain", "const", "--alg", "forward", "--prop"],
    ["analyze", "--program", "p", "--domain", "const", "--alg", "forward", "--suite", "all"],
    ["oracle", "--suite", "all", "--trace"],
    ["analyze", "--program", "p", "--domain", "const", "--alg", "forward", "stray"],
]


@pytest.mark.parametrize("seed", range(3))
def test_one_pass_reader_agrees_with_argparse(monkeypatch, seed):
    """On every argv the reader's Namespace is argparse's, and wherever
    argparse exits (help or a usage error) the reader declines, so that
    ``main`` prints, writes to stderr and exits exactly as bare argparse."""
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(f"argv:{seed}")
    argvs = (_FIXED_ARGVS if seed == 0 else []) + [_well_formed_argv(rng) for _ in range(300)]
    argvs += [_rewritten_argv(rng) for _ in range(200)] + [_mutated_argv(rng) for _ in range(700)]
    parser = cli._build_parser()
    counts = {"read": 0, "declined": 0, "exit": 0, "help": 0}
    for argv in argvs:
        read = cli._read_argv(argv)
        expected = _captured(lambda: parser.parse_args(argv))
        if isinstance(expected[0], argparse.Namespace):
            counts["declined" if read is None else "read"] += 1
            if read is not None:
                typed = lambda ns: [(k, type(v), v) for k, v in vars(ns).items()]
                assert typed(read) == typed(expected[0]), argv
                assert expected[1:] == ("", "")
        else:
            assert read is None, argv
            counts["help" if expected[0] == 0 else "exit"] += 1
            assert _captured(lambda: main(argv)) == expected, argv
    assert counts["read"] >= 300 and counts["declined"] >= 100 and counts["exit"] >= 300 and counts["help"] >= 10, counts


# ---------------------------------------------------------------------------
# Fuzzing: any program text ends in exit code 0, 1 or 2 with a message
# ---------------------------------------------------------------------------

_LEXEME = re.compile(r"\s+|\w+|:=|->|<=|>=|!=|/\\|\S")
_DEMO_TOKENS = [
    _LEXEME.findall((PROGRAMS_DIR / name).read_text(encoding="utf-8"))
    for name in ("const_demo.prog", "affine_demo.prog")
]
_VOCABULARY = sorted({t for toks in _DEMO_TOKENS for t in toks} | {
    "vars", "sort", "int", "rat", "bot", "skip", "?", "or", "/", "{", "}",
    "0", "7", "x0", "x9", "#", "\n", "\t", "é", "٣", "²",
})


@st.composite
def _mutated_demo(draw) -> str:
    toks = list(draw(st.sampled_from(_DEMO_TOKENS)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or not toks:
            toks.insert(i, draw(st.sampled_from(_VOCABULARY)))
        elif op == "delete":
            del toks[min(i, len(toks) - 1)]
        else:
            toks[min(i, len(toks) - 1)] = draw(st.sampled_from(_VOCABULARY))
    return "".join(toks)


@pytest.fixture(scope="module")
def fuzz_program(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.prog"


_PROPS = ["q2: (0,top)", "q2: (top,2)", "q3: (1,top)", "q4: x1 + x2 + 1 = 0", "q4: x1 = 5", "q2: bot"]


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=st.one_of(st.text(max_size=80), _mutated_demo()),
    domain=st.sampled_from(["const", "affine"]),
    alg=st.sampled_from(["forward", "backward"]),
    prop=st.one_of(st.none(), st.sampled_from(_PROPS), st.text(max_size=12)),
)
@example(text=f"vars {10**20}; sort int; nodes q1; init q1: top;", domain="const", alg="forward", prop=None)
def test_analyze_fuzzed_text_ends_in_a_verdict_or_an_error(fuzz_program, text, domain, alg, prop):
    """An exception escaping ``main`` (a traceback from the CLI) fails the test.

    Generated numbers stay small: a large count that fits in memory would
    make the program hold n * n coefficients per edge.  The explicit example
    is a count far above ``MAX_VARS`` that cannot be allocated at all.
    """
    fuzz_program.write_text(text, encoding="utf-8")
    argv = ["analyze", "--program", str(fuzz_program), "--domain", domain, "--alg", alg]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ([f"--prop={prop}"] if prop is not None else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue().startswith("no abstract inductive invariant")
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
