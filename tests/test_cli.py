"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from absinv.cli import main
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


def test_analyze_output_is_deterministic(capsys):
    args = ["analyze", "--program", CONST, "--domain", "const", "--alg", "forward",
            "--prop", "q2: (top,2)", "--trace", "--format", "json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


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


def test_analyze_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("vars 1; sort int; nodes a; edge a -> zz : skip;")
    code, _, err = run(
        ["analyze", "--program", str(bad), "--domain", "const", "--alg", "forward"],
        capsys,
    )
    assert code == 2 and "unknown node" in err


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
    ],
    ids=["vars", "sort", "nodes", "init"],
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
    ],
    ids=["oversized-count", "count-digit", "variable-digit", "property-digit"],
)
def test_malformed_numbers_exit_two_with_a_position(tmp_path, capsys, text, prop, where):
    path = tmp_path / "bad.prog"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", "--program", str(path), "--domain", "const", "--alg", "forward"]
    code, out, err = run(argv + (["--prop", prop] if prop else []), capsys)
    assert code == 2 and out == ""
    assert where in err and "Traceback" not in err


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
