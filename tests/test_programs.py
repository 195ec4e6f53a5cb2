"""Program model: parsing, printing, collecting semantics, edge queries."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from absinv import programs as pg
from conftest import random_program


def test_parse_const_demo_shape(const_demo):
    assert const_demo.nodes == ("q1", "q2", "q3", "q4")
    assert const_demo.n == 2
    assert const_demo.sort == "int"
    assert len(const_demo.edges) == 4
    assert isinstance(const_demo.init_decl("q1"), pg.InitTop)
    assert isinstance(const_demo.init_decl("q2"), pg.InitBot)


def test_parse_affine_demo_shape(affine_demo):
    assert affine_demo.n == 3
    assert affine_demo.sort == "rat"
    kinds = [type(e.transfer).__name__ for e in affine_demo.edges]
    assert kinds == [
        "ParallelAffineAssign",
        "ParallelAffineAssign",
        "ParallelAffineAssign",
        "EqGuard",
        "Identity",
    ]
    # rational coefficients throughout
    first = affine_demo.edges[0].transfer
    assert all(isinstance(c, Fraction) for r in first.rows for c in r.coeffs)


def test_parse_empty_edge_section():
    prog = pg.parse_program("vars 1; sort int; nodes q1; init q1: (7);")
    assert prog.edges == ()
    assert prog.init_decl("q1") == pg.InitVector((7,))


def test_parse_unknown_node_rejected():
    src = "vars 1; sort int; nodes q1; edge q1 -> q9 : skip;"
    with pytest.raises(pg.ProgramSyntaxError, match="unknown node"):
        pg.parse_program(src)


def test_parse_error_carries_position():
    with pytest.raises(pg.ProgramSyntaxError) as exc:
        pg.parse_program("vars 1;\nsort int;\nnodes q1;\nedge q1 -> q1 : x1 := x2;")
    assert exc.value.line == 4
    assert exc.value.col > 0


def test_parse_rejects_mixed_and_or():
    src = "vars 2; sort int; nodes a; edge a -> a : assume x1 = 0 and x2 = 0 or x1 = 0;"
    with pytest.raises(pg.ProgramSyntaxError, match="mix"):
        pg.parse_program(src)


def test_parse_rejects_mixed_relations():
    src = "vars 2; sort int; nodes a; edge a -> a : assume x1 = 0 and x2 >= 0;"
    with pytest.raises(pg.ProgramSyntaxError, match="relation"):
        pg.parse_program(src)


def test_parse_rejects_inequality_guard_for_rat():
    src = "vars 1; sort rat; nodes a; edge a -> a : assume x1 >= 0;"
    with pytest.raises(pg.ProgramSyntaxError, match="not supported for sort rat"):
        pg.parse_program(src)


def test_parse_allows_neq_guard_for_rat():
    src = "vars 1; sort rat; nodes a; edge a -> a : assume x1 != 0;"
    t = pg.parse_program(src).edges[0].transfer
    assert isinstance(t, pg.RelGuard) and t.rel == "!="


def test_parse_rejects_double_assignment():
    src = "vars 2; sort int; nodes a; edge a -> a : x1 := 1, x1 := 2;"
    with pytest.raises(pg.ProgramSyntaxError, match="assigned twice"):
        pg.parse_program(src)


def test_parse_rejects_nondet_mixed_with_assignments():
    src = "vars 2; sort int; nodes a; edge a -> a : x1 := ?, x2 := 0;"
    with pytest.raises(pg.ProgramSyntaxError, match="cannot be combined"):
        pg.parse_program(src)


def test_parse_rejects_constraint_literal_for_int_sort():
    src = "vars 2; sort int; nodes a; init a: x1 + x2 = 0;"
    with pytest.raises(pg.ProgramSyntaxError):
        pg.parse_program(src)


def test_parse_point_set_and_constraint_literals():
    src = (
        "vars 2; sort rat; nodes a b;\n"
        "init a: {(1,0);(-1,0)};\n"
        "init b: x1 + 2*x2 = 0 /\\ x2 - 1/2 = 0;"
    )
    prog = pg.parse_program(src)
    pts = prog.init_decl("a")
    assert isinstance(pts, pg.InitPoints)
    assert pts.points == {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))}
    cons = prog.init_decl("b")
    assert isinstance(cons, pg.InitConstraints)
    assert cons.rows[1].const == Fraction(-1, 2)


def test_parallel_assignment_reads_old_values():
    src = "vars 2; sort int; nodes a; edge a -> a : x1 := x2, x2 := x1;"
    t = pg.parse_program(src).edges[0].transfer
    assert pg.apply_transfer_concrete(t, {(1, 9)}) == {(9, 1)}


def test_roundtrip_print_parse(const_demo, affine_demo):
    for prog in (const_demo, affine_demo):
        assert pg.parse_program(pg.print_program(prog)) == prog


def test_roundtrip_covers_all_literal_forms():
    src = (
        "vars 2; sort rat; nodes a b c d;\n"
        "init a: top;\n"
        "init b: (1/2,top);\n"
        "init c: {(0,0);(1,3)};\n"
        "init d: x1 - x2 = 0;\n"
        "edge a -> b : x1 := ?;\n"
        "edge b -> c : assume x1 = 0 or x2 = 0;\n"
        "edge c -> d : skip;"
    )
    prog = pg.parse_program(src)
    assert pg.parse_program(pg.print_program(prog)) == prog


# ---------------------------------------------------------------------------
# Collecting semantics
# ---------------------------------------------------------------------------


def test_concrete_guard_filters_points():
    guard = pg.EqGuard((pg.LinExpr((1, 0), 0),), "conj")  # x1 = 0
    assert pg.apply_transfer_concrete(guard, {(1, 0), (-1, 0)}) == frozenset()
    assert pg.apply_transfer_concrete(guard, {(0, 5), (1, 5)}) == {(0, 5)}


def test_concrete_identity_and_assign():
    pts = {(0, 2), (1, 1)}
    assert pg.apply_transfer_concrete(pg.Identity(), pts) == pts
    assign = pg.ParallelAffineAssign(
        (pg.LinExpr((1, 2), 0), pg.LinExpr((0, 1), -1))  # x1+2x2, x2-1
    )
    assert pg.apply_transfer_concrete(assign, {(0, 2)}) == {(4, 1)}


def test_concrete_nondet_uses_witnesses():
    t = pg.NondetAssign(1)
    out = pg.apply_transfer_concrete(t, {(9, 3)}, nondet_witnesses=(0, 1))
    assert out == {(0, 3), (1, 3)}
    with pytest.raises(ValueError, match="witness"):
        pg.apply_transfer_concrete(t, {(9, 3)})


def test_concrete_guard_is_subset_of_input():
    import random

    rng = random.Random(0)
    for _ in range(50):
        pts = frozenset(
            (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))
        )
        rel = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        e = pg.LinExpr((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-2, 2))
        t = (
            pg.EqGuard((e,), "conj")
            if rel == "="
            else pg.RelGuard((e,), rel, "conj")
        )
        assert pg.apply_transfer_concrete(t, pts) <= pts


def test_post_edges_into(const_demo, affine_demo):
    into_q4 = pg.post_edges_into(const_demo, "q4")
    assert len(into_q4) == 1
    src, t = into_q4[0]
    assert src == "q2" and isinstance(t, pg.RelGuard) and t.rel == ">="
    assert pg.post_edges_into(const_demo, "q1") == []
    into_q3 = pg.post_edges_into(affine_demo, "q3")
    assert len(into_q3) == 2 and {s for s, _ in into_q3} == {"q2"}


def test_post_edges_partition_edge_list(const_demo):
    total = sum(len(pg.post_edges_into(const_demo, q)) for q in const_demo.nodes)
    assert total == len(const_demo.edges)


def test_state_vector_is_total_mapping():
    sv = pg.StateVector(("a", "b"), (1, 2))
    assert sv["a"] == 1 and sv["b"] == 2
    assert dict(sv) == {"a": 1, "b": 2}
    with pytest.raises(KeyError):
        sv["c"]
    with pytest.raises(ValueError):
        pg.StateVector(("a", "b"), (1,))


def test_zero_denominator_is_a_syntax_error():
    with pytest.raises(pg.ProgramSyntaxError, match="zero denominator") as exc:
        pg.parse_program("vars 1; sort rat; nodes q1;\ninit q1: (1/0);")
    assert (exc.value.line, exc.value.col) == (2, 13)


@pytest.mark.parametrize(
    "src, message",
    [
        ("vars 2; sort int; nodes q1; vars 1;", "'vars' is declared twice"),
        ("vars 1; sort int; nodes q1; sort int;", "'sort' is declared twice"),
        ("vars 1; sort int; nodes q1; nodes q2;", "'nodes' is declared twice"),
        ("vars 1; sort int; nodes q1; init q1: top; init q1: (3);", "second init"),
    ],
    ids=["vars", "sort", "nodes", "init"],
)
def test_redeclaration_is_rejected(src, message):
    with pytest.raises(pg.ProgramSyntaxError, match=message):
        pg.parse_program(src)


def test_programs_are_hashable_and_immutable():
    a = pg.parse_program("vars 1; sort int; nodes q1 q2; init q2: (1); init q1: top;")
    b = pg.parse_program("vars 1; sort int; nodes q1 q2; init q1: top; init q2: (1);")
    assert a == b and hash(a) == hash(b)
    assert a.init_decl("q2") == pg.InitVector((1,))
    assert pg.parse_program(pg.print_program(a)) == a
    with pytest.raises(TypeError):
        a.inits["q2"] = pg.InitTop()


@pytest.mark.parametrize("sort", ["int", "rat"])
def test_print_parse_print_is_print(sort):
    for k in range(300):
        text = pg.print_program(random_program(random.Random(f"rt:{sort}:{k}"), sort))
        assert pg.print_program(pg.parse_program(text)) == text


def test_all_identity_assignment_prints_as_skip():
    rows = tuple(pg.identity_row(i, 2, 0, 1) for i in range(2))
    prog = pg.Program(("a",), 2, "int", (pg.Edge("a", pg.ParallelAffineAssign(rows), "a"),), {})
    assert pg.print_program(prog).endswith("edge a -> a : skip;\n")
    assert pg.parse_program(pg.print_program(prog)).edges[0].transfer == pg.Identity()


@pytest.mark.parametrize("tail", ["init q1: top;", "edge q1 -> q1 : x1 := 1;"])
def test_oversized_variable_count_is_a_syntax_error(tail):
    with pytest.raises(pg.ProgramSyntaxError, match=f"variable count must be <= {pg.MAX_VARS}") as exc:
        pg.parse_program(f"sort int;\nvars {10**20}; nodes q1; {tail}")
    assert (exc.value.line, exc.value.col) == (2, 6)
    assert pg.parse_program(f"vars {pg.MAX_VARS}; sort int; nodes q1; {tail}").n == pg.MAX_VARS


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("vars ²;", 1, 6, "expected a variable count"),
        ("vars 2; sort int; nodes q1;\nedge q1 -> q1 : x1 := x²;", 2, 23, "expected a variable x1..x2"),
        ("vars 1; sort int; nodes q1; init q1: (1²);", 1, 40, "expected '\\)'"),
    ],
    ids=["count", "variable", "literal"],
)
def test_non_decimal_digits_are_syntax_errors(src, line, col, message):
    with pytest.raises(pg.ProgramSyntaxError, match=message) as exc:
        pg.parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_decimal_digits_of_any_script_are_numbers():
    prog = pg.parse_program("vars ٢; sort int; nodes q1; init q1: (٣,top);")
    assert prog.n == 2 and prog.init_decl("q1") == pg.InitVector((3, "top"))


def test_positions_count_blanks_and_skip_comments():
    src = "vars 1; # a comment ; with $ symbols\r\n\tsort int;\n  nodes q1; init q1: top; $"
    with pytest.raises(pg.ProgramSyntaxError, match="unexpected character '\\$'") as exc:
        pg.parse_program(src)
    assert (exc.value.line, exc.value.col) == (3, 27)
