"""Program model: parsing, printing, collecting semantics, edge queries."""

from __future__ import annotations

import collections
import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

import reference_parser as ref
from absinv import const_domain as cd
from absinv import programs as pg
from conftest import (
    BAD_GRAPHS, PARSED_LABELS, PROGRAMS_DIR, dense_assign, graph_error, identity_row, random_assignment,
    random_label_program, random_linexpr_int, random_program, rebuilt_differences,
)


def test_parse_const_demo_shape(const_demo):
    assert const_demo.nodes == ("q1", "q2", "q3", "q4")
    assert const_demo.n == 2
    assert const_demo.sort == "int"
    assert len(const_demo.edges) == 4
    assert isinstance(const_demo.init_decl("q1"), pg.InitTop)
    assert const_demo.init_decl("q2") is pg.BOT


def test_parse_affine_demo_shape(affine_demo):
    assert affine_demo.n == 3
    assert affine_demo.sort == "rat"
    kinds = [type(t).__name__ for _, t, _ in affine_demo.edges]
    assert kinds == [
        "ParallelAffineAssign",
        "ParallelAffineAssign",
        "ParallelAffineAssign",
        "Guard",
        "ParallelAffineAssign",
    ]
    assert affine_demo.edges[-1][1].rows == ()  # skip
    # rational coefficients throughout
    first = affine_demo.edges[0][1]
    assert all(isinstance(c, Fraction) for _, r in first.rows for c in r.coeffs)


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
    t = pg.parse_program(src).edges[0][1]
    assert isinstance(t, pg.Guard) and t.rel == "!="


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
    t = pg.parse_program(src).edges[0][1]
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
    guard = pg.Guard((pg.LinExpr((1, 0), 0),), "=", "conj")  # x1 = 0
    assert pg.apply_transfer_concrete(guard, {(1, 0), (-1, 0)}) == frozenset()
    assert pg.apply_transfer_concrete(guard, {(0, 5), (1, 5)}) == {(0, 5)}


def test_concrete_identity_and_assign():
    pts = {(0, 2), (1, 1)}
    assert pg.apply_transfer_concrete(pg.SKIP, pts) == pts
    assign = dense_assign((pg.LinExpr((1, 2), 0), pg.LinExpr((0, 1), -1)))  # x1+2x2, x2-1
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
        t = pg.Guard((e,), rel, "conj")
        assert pg.apply_transfer_concrete(t, pts) <= pts


def test_post_edges_into(const_demo, affine_demo):
    into_q4 = pg.post_edges_into(const_demo, "q4")
    assert len(into_q4) == 1
    src, t = into_q4[0]
    assert src == "q2" and isinstance(t, pg.Guard) and t.rel == ">="
    assert pg.post_edges_into(const_demo, "q1") == []
    into_q3 = pg.post_edges_into(affine_demo, "q3")
    assert len(into_q3) == 2 and {s for s, _ in into_q3} == {"q2"}


def test_post_edges_partition_edge_list(const_demo):
    total = sum(len(pg.post_edges_into(const_demo, q)) for q in const_demo.nodes)
    assert total == len(const_demo.edges)


def test_state_vector_is_total_mapping():
    sv = pg.StateVector(("a", "b"), (1, 2))
    assert sv["a"] == 1 and sv["b"] == 2
    assert dict(sv.items()) == {"a": 1, "b": 2}
    # fields are stored as tuples, so vectors built from lists compare and hash alike
    assert sv.values == (1, 2) and pg.StateVector(["a", "b"], [1, 2]) == sv
    assert hash(pg.StateVector(["a", "b"], [1, 2])) == hash(sv)
    with pytest.raises(KeyError):
        sv["c"]
    with pytest.raises(ValueError):
        pg.StateVector(("a", "b"), (1,))
    # a repeated name would make the second value unreachable by name
    with pytest.raises(ValueError, match="duplicate node names"):
        pg.StateVector(("a", "a"), (1, 2))
    # with_values keeps the checked nodes, and still checks the length
    assert sv.with_values(iter([1, 2])) == sv and sv.with_values([3, 4]).nodes is sv.nodes
    for values in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="^state vector must be total on the node set$"):
            sv.with_values(values)


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


def test_programs_built_in_code_reject_a_second_init():
    # (node, decl) pairs, unlike a mapping, can declare a node twice; the
    # last one used to win without a word
    pairs = (("q1", pg.InitTop()), ("q2", pg.InitVector((1,))), ("q1", pg.InitVector((2,))))
    with pytest.raises(ValueError, match="node 'q1' has a second init"):
        pg.Program(("q1", "q2"), 1, "int", (), pairs)
    assert pg.Program(("q1", "q2"), 1, "int", (), pairs[:2]).inits == pairs[:2]
    assert pg.Program(("q1", "q2"), 1, "int", (), dict(pairs)).inits == (pairs[2], pairs[1])


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
    t = dense_assign(identity_row(i, 2, 0, 1) for i in range(2))
    assert t.rows == () and t == pg.SKIP
    prog = pg.Program(("a",), 2, "int", ((0, t, 0),), {})
    assert pg.print_program(prog).endswith("edge a -> a : skip;\n")
    reparsed = pg.parse_program(pg.print_program(prog))
    assert reparsed.edges[0][1] is pg.SKIP
    assert reparsed == prog and hash(reparsed) == hash(prog)


def _built_program_parts(rng: random.Random) -> tuple:
    """The parts of a ``Program`` as code might build them: mostly well
    formed, and each with a small chance of a fault that would print text
    ``parse_program`` rejects or reads as another program.  An explicit
    ``bot`` init and a one-row ``disj`` guard are drawn too: ``Program``
    drops the first and ``Guard`` makes the second ``conj``, so both
    round-trip.  Every guard has a row."""

    def bad() -> bool:
        return rng.random() < 0.03

    n = rng.choice((0, -1, pg.MAX_VARS + 1)) if bad() else rng.randint(1, 3)
    sort = rng.choice(("float", "real")) if bad() else rng.choice(("int", "rat"))
    k = rng.randint(1, 4)
    names = [f"q{i + 1}" for i in range(k)]
    if bad():  # not one identifier token
        names[rng.randrange(k)] = rng.choice(("a b", "1q", "q-1", ""))
    nodes = () if bad() else tuple(names) + (("q1",) if bad() else ())

    def width() -> int:
        return max(n, 1) + rng.choice((-1, 1)) if bad() else max(n, 1)

    def num():
        if bad():
            return rng.choice((True, 0.5, Fraction(1, 3)))
        v = rng.randint(-3, 3)
        return Fraction(v, rng.randint(1, 3)) if sort == "rat" and rng.random() < 0.5 else v

    def row() -> pg.LinExpr:
        return pg.LinExpr(tuple(num() for _ in range(width())), num())

    def transfer() -> pg.TransferFunction:
        kind, w = rng.randrange(4), max(n, 1)
        if kind == 0:
            return pg.SKIP
        if kind == 1:
            return pg.NondetAssign(rng.choice((0, w + 1)) if bad() else rng.randint(1, w))
        if kind == 2:
            targets = rng.sample(range(w), rng.randint(1, w)) + ([w] if bad() else [])
            return pg.ParallelAffineAssign(tuple((j, row()) for j in targets))
        rows = tuple(row() for _ in range(rng.randint(1, 2)))
        rel = rng.choice(("=", "!=") if sort == "rat" and not bad() else tuple(pg.RELATIONS))
        return pg.Guard(rows, rel, rng.choice(("conj", "disj")))

    def endpoint() -> int:
        return rng.choice((-1, len(nodes))) if bad() else rng.randrange(k)

    def init() -> pg.InitDecl:
        kind, w = rng.randrange(4), max(n, 1)
        if kind == 0:
            return rng.choice((pg.InitTop(), pg.BOT))
        if kind == 1:
            return pg.InitVector(tuple(pg.TOP if rng.random() < 0.3 else num() for _ in range(width())))
        if kind == 2:
            count = 0 if bad() else rng.randint(1, 3)
            return pg.InitPoints(frozenset(tuple(num() for _ in range(width())) for _ in range(count)))
        if sort != "rat" and not bad():
            return pg.InitVector((pg.TOP,) * w)
        count = 0 if bad() else rng.randint(1, 2)
        return pg.InitConstraints(tuple(pg.LinExpr(row().coeffs, num()) for _ in range(count)))

    edges = tuple((endpoint(), transfer(), endpoint()) for _ in range(rng.randint(0, 5)))
    inits = {q: init() for q in rng.sample(names, rng.randint(0, k))}
    return nodes, n, sort, edges, inits


def test_a_program_built_in_code_is_rejected_or_prints_back():
    """Every ``Program`` built in code is rejected with ``ValueError``, or
    prints text that parses to an equal ``Program``.  The draws include
    each fault that once printed text the parser rejects (``vars 0;``,
    ``sort float;``, a literal of the wrong length, ``x1 := 1/2*x1``, a
    constraint literal over ``int``, no node, an empty constraint literal,
    ``x1 < 0`` over ``rat``) or reads as another program (a node name
    ``a b``), and each fault of the graph.  An empty point set is ``bot``,
    the default, which the program drops."""
    rejected, accepted = collections.Counter(), 0
    for k in range(3000):
        try:
            program = pg.Program(*_built_program_parts(random.Random(f"built:{k}")))
        except ValueError as e:
            rejected[re.sub(r"'[^']*'|-?\d+", "_", re.sub(r"^bad slot value [^:]*", "bad slot value _", str(e)))] += 1
            continue
        accepted += 1
        text = pg.print_program(program)
        assert pg.parse_program(text) == program, text
    faults = {
        "variable count must be >= _", "variable count must be <= _", "sort must be _ or _",
        "duplicate node names", "an edge endpoint is not a node index in range(_)",
        "nondet assignment target out of range", "assignment dimension mismatch", "guard dimension mismatch",
        "bad slot value _: a transfer over sort _ needs int entries",
        "bad slot value _: a transfer over sort _ needs int or Fraction entries",
        "vector literal has _ entries, expected _", "point has _ coordinates, expected _",
        "bad slot value _", "constraint literals need sort _", "constraint dimension mismatch",
        "a program needs one or more nodes, each named by an identifier",
        "a constraint literal needs at least one row", "inequality guard _ is not supported for sort rat",
    }
    assert set(rejected) == faults, rejected
    assert accepted > 1000 and min(rejected.values()) >= 5, (accepted, rejected)
    row = pg.LinExpr((1,), 0)
    assert pg.Guard((row,), "<", "disj") == pg.Guard((row,), "<", "conj")
    assert pg.Program(("q1",), 1, "int", (), {"q1": pg.BOT}).inits == ()


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
    assert prog.n == 2 and prog.init_decl("q1") == pg.InitVector((3, pg.TOP))


@pytest.mark.parametrize("sort, text, first", [("int", "(1,top)", 1), ("rat", "(1/2, top)", Fraction(1, 2))])
def test_a_top_entry_is_the_one_top_marker(sort, text, first):
    """A vector literal carries ``programs.TOP``, the constant domain's slot
    marker too; pickling and copying give back the marker itself."""
    decl = pg.parse_init_literal(text, 2, sort)
    assert decl == pg.InitVector((first, pg.TOP)) and decl.entries[1] is pg.TOP is cd.TOP
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(decl, protocol)).entries[1] is pg.TOP
    assert copy.copy(pg.TOP) is pg.TOP and copy.deepcopy(decl).entries[1] is pg.TOP
    printed = pg.print_program(pg.Program(("q1",), 2, sort, (), {"q1": decl}))
    assert printed.endswith(f"init q1: {text.replace(' ', '')};\n")


def test_positions_count_blanks_and_skip_comments():
    src = "vars 1; # a comment ; with $ symbols\r\n\tsort int;\n  nodes q1; init q1: top; $"
    with pytest.raises(pg.ProgramSyntaxError, match="unexpected character '\\$'") as exc:
        pg.parse_program(src)
    assert (exc.value.line, exc.value.col) == (3, 27)


def test_duplicate_node_names_are_syntax_errors():
    with pytest.raises(pg.ProgramSyntaxError, match="duplicate node name 'q1'") as exc:
        pg.parse_program("vars 1; sort int;\nnodes q1 q2 q1;")
    assert (exc.value.line, exc.value.col) == (2, 13)
    # programs built in code are still checked
    with pytest.raises(ValueError, match="duplicate node names"):
        pg.Program(("a", "a"), 1, "int", (), {})


def test_guard_relation_must_be_known():
    assert pg.Guard((pg.LinExpr((1,), 0),), "<=", "conj").rel == "<="
    with pytest.raises(ValueError, match="unknown relation '=='"):
        pg.Guard((pg.LinExpr((1,), 0),), "==", "conj")


@pytest.mark.parametrize("mode", ["conj", "disj"])
def test_guard_needs_a_row(mode):
    # a guard with no row would print as `edge a -> b : ;`, which does not parse
    with pytest.raises(ValueError, match="^a guard needs at least one row$"):
        pg.Guard((), "=", mode)


def test_guard_mode_must_be_known():
    # the concrete semantics and the const transfer would read an unknown
    # mode differently (any mode but "conj" as a disjunction, any mode but
    # "disj" as a conjunction), so it is rejected at construction
    rows = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), 0))
    assert pg.Guard(rows, "=", "disj").mode == "disj"
    with pytest.raises(ValueError, match="unknown guard mode 'and'"):
        pg.Guard(rows, "=", "and")


LONG = "9" * 5000  # above Python's default limit of 4300 digits for int()


@pytest.mark.parametrize(
    "src, line, col",
    [
        (f"vars {LONG};", 1, 6),
        (f"vars 1; sort int; nodes q1;\ninit q1: ({LONG});", 2, 11),
        (f"vars 1; sort rat; nodes q1;\ninit q1: (1/{LONG});", 2, 13),
        (f"vars 1; sort int; nodes q1;\nedge q1 -> q1 : x1 := x{LONG};", 2, 23),
    ],
    ids=["count", "number", "denominator", "variable"],
)
def test_over_long_numbers_are_syntax_errors(src, line, col):
    with pytest.raises(pg.ProgramSyntaxError, match="number has too many digits") as exc:
        pg.parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, col)


# ---------------------------------------------------------------------------
# The parser against the reference parser kept in tests/reference_parser.py
# ---------------------------------------------------------------------------

BIG = "9" * 4301  # one digit above Python's default int() limit
VOCAB = [
    *r":= -> <= >= != /\ ( ) { } , ; : ? * / + - = < >".split(),
    *"vars sort nodes init edge skip assume and or top bot int rat".split(),
    "x1", "x2", "x0", "x9", "x٣", "x²", "xy", "q1", "q2", "qq", "0", "1", "3", "65", "٣", "²", "é",
    "_a", "$", "!", "\\", "@", "# c $ ;\n", "\t", "\r", "\r\n", "\n", BIG, "1/0", "2/3",
]

# Every message the parser raises, as a pattern; the corpus must produce each.
MESSAGES = [
    "unexpected character", "expected '", "expected an identifier", "expected a number",
    "expected a denominator", "zero denominator", "number has too many digits",
    "expected a variable x1..x", "out of range", "expected a term", "expected a relation symbol",
    "cannot mix 'and' and 'or'", "mixed relation symbols", "is not supported for sort rat",
    "assigned twice", "cannot be combined", "vector literal has", "point has",
    "expected top, bot", "constraint literals must use", "trailing input after literal",
    "'vars' must be declared first", "'sort' must be declared", "'nodes' must be declared",
    "unknown node", "is declared twice", "variable count must be >= 1", "variable count must be <=",
    "sort must be", "duplicate node name", "expected at least one node name", "second init",
    "unknown declaration", "program must declare",
]
FIXED_PROGRAMS = [
    "vars ٢; sort int; nodes q1; init q1: (٣,top);",
    "vars ²;",
    "vars 1; sort int; nodes é ü_1 q²; edge é -> ü_1 : skip; init q²: top;",
    "vars 1;\t# a comment ; with $ symbols\r\n\tsort int;\r\n  nodes q1; init q1: top; $",
    f"vars 1; sort int; nodes q1; init q1: ({BIG});",
    f"vars 1; sort int; nodes q1;\nedge q1 -> q1 : x1 := x{BIG};",
    "vars 65; sort int; nodes q1;",
    "vars 64; sort int; nodes q1; edge q1 -> q1 : x64 := x1;",
    "vars 0;",
    "", "  \n# only a comment", "vars", "vars 1; sort int; nodes q1; edge q1 -> q1 : x1 := x1 +",
    "vars 1; sort rat; nodes q1; init q1: (1/0);",
    "vars 1; sort rat; nodes q1; init q1: (1/);",
    "vars 2; sort rat; nodes q1; init q1: x1 = 0 /\\ x2 != 0;",
    "vars 2; sort rat; nodes q1; init q1: x1 + 2/3 = x2 /\\ -x2 = 1;",
    "vars 1; sort int; nodes q1; init q1: x1 = 0;",
    "vars 1; sort int; nodes q1; edge q1 -> q1 : assume x1 < 0 and x1 < 1 or x1 < 2;",
    "vars 1; sort int; nodes q1; edge q1 -> q1 : assume x1 < 0 and x1 > 1;",
    "vars 1; sort rat; nodes q1; edge q1 -> q1 : assume x1 < 0;",
    "vars 1; sort int; nodes q1; edge q1 -> q1 : x1 := ?, x1 := 1;",
    "vars 2; sort int; nodes q1; edge q1 -> q1 : x1 := ?, x2 := 1;",
    "vars 2; sort int; nodes q1; edge q1 -> q1 : x1 := x1 + ;",
    "vars 1; sort int; nodes q1; edge q1 -> q1 : assume x1 + = 0;",
    "vars 1; sort int; nodes q1; edge q1 -> q1 : x1 := x1 - # a comment\n - ;",
    "vars 2; sort int; nodes q1; edge q1 -> q1 : x3 := 1;",
    "vars 2; sort int; nodes q1; init q1: (1);",
    "vars 2; sort int; nodes q1; init q1: {(1,2);(3)};",
    "vars 2; sort int; nodes q1; init q1: {(1,2);(3,4);};",
    "sort int;", "vars 1; nodes q1;", "vars 1; sort int; init q1: top;", "vars 1; sort int;",
    "vars 1; sort real;", "vars 1; sort int; nodes ;", "vars 1; sort int; nodes q1; loop q1;",
    "vars 1; sort int; nodes q1; init q1: top; init q1: bot;",
    # every ASCII character, and a few others, as a token and inside one
    *(f"vars 1; sort int; nodes q{c} {c}a; init {c}: ({c});" for c in [*map(chr, range(128)), "é", "٣", "²", "\u2028"]),
]


def _outcome(parse, *args):
    """The ``repr`` of the parse, each point set as its sorted points, or the error's place.

    A point set's iteration order is that of its hash table, and that differs between
    equal sets built in different orders (``(-1,)`` and ``(-2,)`` have one hash)."""
    try:
        result = parse(*args)
    except pg.ProgramSyntaxError as exc:
        return (exc.msg, exc.line, exc.col)
    if isinstance(result, pg.Program):
        inits = tuple((q, _sorted_points(decl)) for q, decl in result.inits)
        return f"{repr(result).partition(', inits=')[0]}, inits={inits!r})"
    return repr(_sorted_points(result))


def _sorted_points(decl: pg.InitDecl) -> object:
    return ("InitPoints", sorted(decl.points)) if isinstance(decl, pg.InitPoints) else decl


def _after_a_sign(text: str, line: int, col: int) -> bool:
    """Is the last token before ``line:col`` in ``text`` a '+' or '-'?"""
    lines = text.split("\n")
    before = "\n".join([*lines[: line - 1], lines[line - 1][: col - 1]])
    return re.sub(r"#[^\n]*", "", before).rstrip()[-1:] in ("+", "-")


def _check_agrees(parse: str, *args) -> str | tuple:
    """The outcome of ``pg.<parse>(*args)``, checked against the reference's.

    Two differences are declared: the reference's "expected 'identifier'" is
    reworded, and a run of '+'/'-' that no term follows, which the reference
    drops, is "expected a term" (the reference accepts the input or fails no
    earlier).
    """
    new, old = _outcome(getattr(pg, parse), *args), _outcome(getattr(ref, parse), *args)
    if isinstance(new, tuple) and new[0] == "expected a term" and new != old:
        assert _after_a_sign(args[0], *new[1:]), (args, old, new)
        assert isinstance(old, str) or old[1:] >= new[1:], (args, old, new)
    elif isinstance(old, tuple) and old[0] == "expected 'identifier'":
        assert isinstance(new, tuple) and new[1:] == old[1:], (args, old, new)
        assert new[0] == "expected an identifier" or new[0].startswith("expected a variable x1..x"), new
    else:
        assert new == old, (args, old, new)
    return new


def _crlf_program(last: str) -> str:
    """A 2,000-line program with CRLF line ends, tabs and comments, whose last line is ``last``."""
    head = ["vars 2;\t# two variables: x1 x2 $", "sort int;", "nodes q1\tq2;  # nodes ; edge q1 -> q2"]
    body = [f"\tedge q{1 + k % 2} -> q{2 - k % 2} : x1 := x1 + {k};\t# edge {k} ; $" for k in range(1996)]
    return "\r\n".join([*head, *body, last])


@pytest.mark.parametrize(
    "last, col",
    [
        ("\tedge q1 -> q3 : skip;", 13),
        ("@\t# right after the comment that ends line 1999", 1),
        ("edge q1 -> q2 : x1 := x1 +\t", 27),
        ("\t  edge q1 -> q2 : assume x1 < 1 and\tx2 > 2 or x1 = 0;", 48),
    ],
    ids=["unknown-node", "character-after-comment", "past-the-end", "mixed-guard"],
)
def test_error_positions_on_the_last_line_of_a_long_program(last, col):
    text = _crlf_program(last)
    with pytest.raises(pg.ProgramSyntaxError) as exc:
        pg.parse_program(text)
    assert (exc.value.line, exc.value.col) == (2000, col)
    assert _check_agrees("parse_program", text)[1:] == (2000, col)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("vars 1; # a b ; c\n$ sort int;", 2, 1),
        ("vars 1; # a ; b\r\n\t$", 2, 2),
        ("#\n#x\n@", 3, 1),
        ("vars 1; sort int; nodes q1; # init q1 : top ;\n  init q1: (1 ! 2);", 2, 15),
    ],
)
def test_unexpected_character_right_after_a_comment(text, line, col):
    with pytest.raises(pg.ProgramSyntaxError, match="unexpected character") as exc:
        pg.parse_program(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert _check_agrees("parse_program", text)[1:] == (line, col)


def _mutants(rng: random.Random, text: str, count: int) -> list[str]:
    """``text`` with one to three token insertions, deletions or replacements each."""
    out = []
    for _ in range(count):
        t = text
        for _ in range(rng.randint(1, 3)):
            spans = [m.span() for m in ref._TOKEN.finditer(t) if m.lastgroup in ("int", "ident", "sym")]
            if not spans:
                break
            s, e = rng.choice(spans)
            v, op = rng.choice(VOCAB), rng.randrange(3)
            t = t[:s] + t[e:] if op == 0 else t[:s] + v + t[e:] if op == 1 else t[:s] + v + rng.choice(("", " ")) + t[s:]
        out.append(t)
    return out


def test_parser_matches_the_reference_parser():
    """Fixed cases, printed random programs and their init literals, and
    mutants of both, parse to the same repr or fail at the same position."""
    outcomes = [_check_agrees("parse_program", text) for text in FIXED_PROGRAMS]
    for sort in ("int", "rat"):
        for k in range(150):
            rng = random.Random(f"ref:{sort}:{k}")
            program = random_program(rng, sort)
            text = pg.print_program(program)
            for t in [text, *_mutants(rng, text, 8)]:
                outcomes.append(_check_agrees("parse_program", t))
            literals = [pg.render_init(decl) for _, decl in program.inits]
            rows = [random_linexpr_int(rng, program.n) for _ in range(rng.randint(1, 2))]
            literals.append(" /\\ ".join(f"{pg.render_linexpr(r)} = 0" for r in rows))
            for lit in literals:
                for t in [lit, lit + " top", *_mutants(rng, lit, 4)]:
                    outcomes.append(_check_agrees("parse_init_literal", t, program.n, sort))
    programs = [o for o in outcomes if isinstance(o, str)]
    messages = [o[0] for o in outcomes if isinstance(o, tuple)]
    assert len(programs) > 500 and len(messages) > 1000
    assert {"int", "rat"} <= {o.split("sort='", 1)[1][:3] for o in programs if o.startswith("Program(")}
    assert [m for m in MESSAGES if not any(m in msg for msg in messages)] == []


# Declarations that take every path of the descent: the `qa -> qb :` header,
# `xj := ?`, parallel assignments, signs, coefficients with and without '*',
# `p/q` numbers, `and`/`or` guards, `x٣`, an over-long number and literals.
# They end in a blank, a comment or nothing, so the text ends in one or two
# sentinel tokens.
SINGLE_TOKEN_SEEDS = [
    ("parse_program", "vars 3; sort int; nodes q1 q2;\nedge q1 -> q2 : x1 := -2*x2 + x1 - 3, x٣ := ?;\n"),
    ("parse_program", "vars 2; sort int; nodes q1 q2; edge q2 -> q1 : x2 := - -x1 + +4*x2, x1 := 1; "),
    ("parse_program", "vars 2; sort int; nodes q; edge q -> q : assume x1 + 1 < x2 and 2*x1 >= 0;# end"),
    ("parse_program", "vars 2; sort rat; nodes q; init q: (1/2,top); edge q -> q : x2 := 2/3*x1 - 1/4;"),
    ("parse_program", "vars 2; sort rat; nodes q; edge q -> q : assume x1 = 0 or assume 2/3*x2 != x1;\t"),
    ("parse_program", f"vars 1; sort int; nodes q; init q: {{(1);(-2)}}; edge q -> q : x1 := {BIG}*x1;"),
    ("parse_init_literal", "x1 + 2/3 = x2 /\\ -x2 = 1 # c"),
]


def test_every_single_token_mutant_matches_the_reference_parser():
    """Each seed with one of its tokens deleted, or replaced by each
    vocabulary entry, parses as the reference parser does."""
    outcomes = []
    for parse, seed in SINGLE_TOKEN_SEEDS:
        args = (2, "rat") if parse == "parse_init_literal" else ()
        spans = [m.span() for m in ref._TOKEN.finditer(seed) if m.lastgroup in ("int", "ident", "sym")]
        for s, e in spans:
            for v in ["", *VOCAB]:
                outcomes.append(_check_agrees(parse, seed[:s] + v + seed[e:], *args))
    messages = {o[0] for o in outcomes if isinstance(o, tuple)}
    assert len(outcomes) > 12_000 and sum(isinstance(o, str) for o in outcomes) > 250
    assert len(messages) > 150


# Every normalization the parser makes in place of the constructors: rows out
# of target order and self-assignments, a one-row guard, inits out of node
# order and an explicit bot.
NORMALIZED = (
    "vars 2; sort int; nodes a b c; init c: (1,top); init b: bot; init a: top;\n"
    "edge a -> b : x2 := 1, x1 := x1; edge b -> c : x2 := x2, x1 := 3 - x2; edge c -> a : x1 := x1;\n"
    "edge c -> a : assume x1 < 0; edge c -> c : assume x1 = 0 or x2 = 1;\n"
)


def test_parsed_programs_equal_their_rebuild_through_the_checking_constructors():
    """The parser builds ``Program``, ``ParallelAffineAssign`` and ``Guard``
    without their constructors' checks, which its grammar enforces.  On the
    demo programs, printed random programs, programs with repeated labels
    and the fuzz corpus above (its fixed programs, mutants and single-token
    mutants), every parsed object equals its rebuild through those
    constructors, ``widths`` included."""
    texts = [NORMALIZED, *FIXED_PROGRAMS, *(path.read_text() for path in sorted(PROGRAMS_DIR.glob("*.prog")))]
    for sort in ("int", "rat"):
        for k in range(150):
            rng = random.Random(f"final:{sort}:{k}")
            text = pg.print_program(random_program(rng, sort))
            texts += [text, *_mutants(rng, text, 4), random_label_program(rng, sort)]
    for parse, seed in SINGLE_TOKEN_SEEDS:
        spans = [m.span() for m in ref._TOKEN.finditer(seed) if m.lastgroup in ("int", "ident", "sym")]
        texts += [seed[:s] + v + seed[e:] for s, e in spans for v in ["", *VOCAB] if parse == "parse_program"]
    kinds = collections.Counter()
    for text in texts:
        try:
            program = pg.parse_program(text)
        except pg.ProgramSyntaxError:
            continue
        assert rebuilt_differences(program) == [], text
        kinds.update(type(t).__name__ for _, t, _ in program.edges)
        kinds["program"] += 1
    assert kinds["program"] > 800 and min(kinds["ParallelAffineAssign"], kinds["Guard"]) > 1_000
    program = pg.parse_program(NORMALIZED)
    assert program.inits == (("a", pg.InitTop()), ("c", pg.InitVector((1, pg.TOP))))
    assert [t.rows for _, t, _ in program.edges[:2]] == [
        ((1, pg.LinExpr((0, 0), 1)),), ((0, pg.LinExpr((0, -1), 3)),)
    ]
    assert program.edges[2][1] == pg.SKIP and [t.mode for _, t, _ in program.edges[3:]] == ["conj", "disj"]


# ---------------------------------------------------------------------------
# Edge labels with the same tokens share one transfer
# ---------------------------------------------------------------------------


def test_repeated_labels_share_one_transfer():
    text = """vars 2; sort int; nodes q1 q2;
    edge q1 -> q2 : x1 := x1 + 1;
    edge q2 -> q1 : x1 :=\tx1+1 # the same tokens
    ;
    edge q2 -> q2 : x1 := x1 + 2;
    edge q1 -> q1 : x1 := 1 + x1;
    edge q1 -> q1 : x1 := x1 + 1, x2 := 0;
    edge q2 -> q1 : assume x1 = 0;  edge q1 -> q2 : assume x1 = 0;
    edge q1 -> q1 : x2 := ?;  edge q2 -> q2 : x2 := ?;
    edge q1 -> q1 : skip;  edge q2 -> q2 : skip;
    """
    t = [t for _, t, _ in pg.parse_program(text).edges]
    assert t[0] is t[1] and t[5] is t[6] and t[7] is t[8] and t[9] is t[10]
    assert len({id(x) for x in t}) == len(t) - 4
    # other tokens, the same value: equal, not shared
    assert t[3] == t[0] and t[3] is not t[0]
    # nothing is shared across parses
    assert pg.parse_program(text).edges[0][1] is not t[0]


def test_arity_is_checked_on_every_edge(monkeypatch):
    """The checking constructors check the transfer of every edge, however
    many edges share it, at each n; building a problem from a program, which
    passed that check, runs none."""
    from absinv.synthesis import AnalysisProblem, ConstAdapter

    checked = []
    original = pg._check_transfer
    monkeypatch.setattr(pg, "_check_transfer", lambda t, n, sort: checked.append((t, n)) or original(t, n, sort))
    t, u = pg.NondetAssign(1), pg.NondetAssign(1)
    edges = ((0, t, 0),) * 3 + ((0, u, 0),)
    program = pg.Program(("a",), 1, "int", edges, {})
    assert [(id(x), n) for x, n in checked] == [(id(t), 1)] * 3 + [(id(u), 1)]
    AnalysisProblem.build(program, "const")
    assert len(checked) == 4
    adapter = ConstAdapter(1)
    vector = pg.StateVector(("a",), (adapter.bottom(),))
    AnalysisProblem(("a",), edges, adapter, vector, vector)
    assert [(id(x), n) for x, n in checked[4:]] == [(id(t), 1)] * 3 + [(id(u), 1)]
    pg.Program(("a",), 2, "int", ((0, t, 0),), {})  # another n: checked again
    assert [(id(x), n) for x, n in checked[8:]] == [(id(t), 2)]
    # a self-assignment of the wrong length: construction drops the row, not its length
    bad = pg.ParallelAffineAssign(((0, pg.LinExpr((1,), 0)),))
    assert bad.rows == ()
    with pytest.raises(ValueError, match="assignment dimension mismatch"):
        pg.Program(("a",), 2, "int", ((0, bad, 0),) * 2, {})


def test_a_parse_runs_no_transfer_check(monkeypatch):
    """The parser builds every transfer over the declared n and sort, and
    its grammar is the check: no call of ``_check_transfer`` follows.  Each
    one it builds passes that check at the declared n and sort, so the
    grammar rejects no less than the check does."""
    checked = []
    original = pg._check_transfer
    monkeypatch.setattr(pg, "_check_transfer", lambda t, n, sort: checked.append(t) or original(t, n, sort))
    for sort, labels in PARSED_LABELS.items():
        text = f"vars 2; sort {sort}; nodes a b;\n" + "".join(f"edge a -> b : {label};\n" for label in labels)
        program = pg.parse_program(text)
        assert checked == []
        transfers = {id(t): t for _, t, _ in program.edges}.values()
        # the repeated label shares its transfer, and the self-assignment and skip share SKIP
        assert len(transfers) == len(labels) - 2
        kinds = {type(t) for t in transfers}
        assert kinds == {pg.ParallelAffineAssign, pg.NondetAssign, pg.Guard}
        for t in transfers:
            original(t, 2, sort)


@pytest.mark.parametrize(
    "edges, inits, message",
    [pytest.param(edges, {}, message, id=name) for name, edges, message in BAD_GRAPHS]
    + [pytest.param((), {"q9": pg.InitTop()}, "unknown node 'q9'", id="init-node")],
)
def test_a_program_built_in_code_is_checked(edges, inits, message):
    """The graphs of ``BAD_GRAPHS``, which ``AnalysisProblem`` rejects too, in both sorts."""
    for sort in pg.SORTS:
        with pytest.raises(ValueError, match=graph_error(message, sort)):
            pg.Program(("q1",), 2, sort, edges, inits)


def test_transfer_entries_must_be_numbers_of_the_sort():
    """A ``Fraction`` coefficient is a number of sort ``rat`` only: ``x1 :=
    1/2*x1`` over ``int`` would print text that does not parse back."""
    half = pg.ParallelAffineAssign(((0, pg.LinExpr((Fraction(1, 2),), 0)),))
    with pytest.raises(ValueError, match=r"^bad slot value Fraction\(1, 2\): a transfer over sort 'int' needs int entries$"):
        pg.Program(("a",), 1, "int", ((0, half, 0),), {})
    program = pg.Program(("a",), 1, "rat", ((0, half, 0),), {})
    assert pg.print_program(program).endswith("edge a -> a : x1 := 1/2*x1;\n")
    assert pg.parse_program(pg.print_program(program)) == program


def test_the_checking_constructors_store_lists_as_tuples():
    """A ``Program``, ``Guard`` or ``AnalysisProblem`` built in code from lists
    stores tuples: it hashes, equals its tuple twin and, for a program, its
    reparse; a problem over list nodes is no longer rejected.  A program's
    vector literal, point set or constraint literal built from lists is stored
    in the tuples (and, for points, the ``frozenset``) that its check returns.
    A constraint row whose coefficients are a list is rejected, as a
    transfer's row is (``BAD_GRAPHS``)."""
    from absinv.synthesis import AnalysisProblem, ConstAdapter

    row = pg.LinExpr((1,), -2)
    guard = pg.Guard([row], "=", "conj")
    assert guard == pg.Guard((row,), "=", "conj") and hash(guard) == hash(pg.Guard((row,), "=", "conj"))
    for nodes, edges, sort, init in [
        (["q1"], [], "int", pg.InitTop()),
        (["q1", "q2"], [(0, guard, 1), (1, pg.SKIP, 0)], "int", pg.InitTop()),
        (["q1"], [], "int", pg.InitVector([1])),
        (["q1"], [], "int", pg.InitVector([pg.TOP])),
        (["q1"], [], "int", pg.InitPoints([[1], [3]])),
        (["q1"], [], "rat", pg.InitPoints({(Fraction(1, 2),)})),
        (["q1"], [], "rat", pg.InitConstraints([pg.LinExpr((1,), 2)])),
    ]:
        program = pg.Program(nodes, 1, sort, edges, {"q1": init})
        twin = pg.Program(tuple(nodes), 1, sort, tuple(edges), {"q1": init})
        reparsed = pg.parse_program(pg.print_program(program))
        assert program == twin == reparsed and hash(program) == hash(twin) == hash(reparsed), init
        adapter = ConstAdapter(1)
        v = pg.StateVector(nodes, (adapter.top(),) * len(nodes))
        problem = AnalysisProblem(nodes, edges, adapter, v, v)
        assert (problem.nodes, problem.edges) == (tuple(nodes), tuple(edges))
        assert problem == AnalysisProblem(tuple(nodes), tuple(edges), adapter, v, v)
    vector = pg.InitVector((1, 2))
    assert pg.Program(("a",), 2, "int", (), {"a": vector}).inits[0][1].entries is vector.entries
    with pytest.raises(ValueError, match=r"^row coefficients \[1, 0\] are not a tuple$"):
        pg.Program(("a",), 2, "rat", (), {"a": pg.InitConstraints((pg.LinExpr([1, 0], 0),))})
    with pytest.raises(ValueError, match="^vector literal None is not iterable$"):
        pg.Program(("a",), 2, "int", (), {"a": pg.InitVector(None)})


@pytest.mark.parametrize("sort", ["int", "rat"])
def test_bot_is_the_point_set_with_no_points(sort):
    """``bot`` parses to ``BOT``, the point set with no points.  Built in code
    from an empty set or list, it is dropped as the default: the program
    equals and hashes as the one without that init, and equals its reparse."""
    assert pg.parse_init_literal("bot", 2, sort) is pg.BOT == pg.InitPoints(frozenset())
    assert pg.render_init(pg.BOT) == "bot"
    bare = pg.Program(("a", "b"), 2, sort, ((0, pg.SKIP, 1),), {"a": pg.InitTop()})
    for empty in (pg.BOT, pg.InitPoints(frozenset()), pg.InitPoints([])):
        program = pg.Program(("a", "b"), 2, sort, ((0, pg.SKIP, 1),), {"a": pg.InitTop(), "b": empty})
        assert program == bare == pg.parse_program(pg.print_program(program)) and hash(program) == hash(bare)
        assert program.init_decl("b") is pg.BOT


@pytest.mark.parametrize("decl", ["junk", None, pg.TOP, pg.InitTop], ids=["str", "None", "TOP", "class"])
def test_an_init_that_is_not_a_literal_is_rejected(decl):
    """``print_program`` could not write it, so ``Program`` rejects it."""
    with pytest.raises(ValueError, match="^unknown init declaration "):
        pg.Program(("a",), 2, "int", (), {"a": decl})


def test_a_row_list_that_is_not_iterable_or_holds_a_non_row_is_a_value_error():
    """A list of rows, or of points, that is not iterable gets the ``ValueError``
    of a vector that is not; so does a row that is not a ``LinExpr``."""
    for build, message in [
        (lambda: pg.Guard(None, "=", "conj"), "guard row list None is not iterable"),
        (lambda: pg.Guard((None,), "=", "conj"), "row None is not a LinExpr"),
        (lambda: pg.ParallelAffineAssign(None), "assignment row list None is not iterable"),
        (lambda: pg.ParallelAffineAssign(((0, None),)), "row None is not a LinExpr"),
        (lambda: pg.Program(("a",), 2, "rat", (), {"a": pg.InitConstraints(None)}),
         "constraint literal None is not iterable"),
        (lambda: pg.Program(("a",), 2, "rat", (), {"a": pg.InitConstraints((None,))}), "row None is not a LinExpr"),
        (lambda: pg.Program(("a",), 2, "int", (), {"a": pg.InitPoints(None)}), "point set None is not iterable"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_an_assignment_target_must_be_an_int():
    """A target that is not an ``int`` (``x1.0``, ``xTrue``) is rejected at construction."""
    row = pg.LinExpr((1, 0), 1)
    for j in (1.0, True, "1"):
        with pytest.raises(ValueError, match="^an assignment target is not an int$"):
            pg.ParallelAffineAssign(((j, row),))


def test_an_assignment_rejects_a_repeated_target():
    row = pg.LinExpr((1, 0), 1)
    with pytest.raises(ValueError, match="^an assignment target is repeated$"):
        pg.ParallelAffineAssign(((1, row), (0, row), (1, pg.LinExpr((0, 1), 0))))
    # a self-assignment still counts as one
    with pytest.raises(ValueError, match="^an assignment target is repeated$"):
        pg.ParallelAffineAssign(((0, pg.LinExpr((1, 0), 0)), (0, row)))


def test_program_edges_are_the_index_triples_the_engines_read():
    from absinv.synthesis import AnalysisProblem

    text = "vars 1; sort int; nodes a b c; edge c -> a : x1 := 1; edge a -> c : skip; edge b -> b : skip;"
    program = pg.parse_program(text)
    assert [(src, dst) for src, _, dst in program.edges] == [(2, 0), (0, 2), (1, 1)]
    assert AnalysisProblem.build(program, "const").edges is program.edges
    assert pg.post_edges_into(program, "a") == [("c", program.edges[0][1])]
    assert pg.out_edges(program, "a") == [(pg.SKIP, "c")]


@pytest.mark.parametrize(
    "last, line, col, message",
    [
        ("edge q2 -> q1 : x1 := x1 + 1 x2;", 3, 30, "expected ';'"),
        ("edge q2 -> q1 : x1 := x1 + 1, x1 := 2;", 3, 37, "assigned twice"),
        ("edge q2 -> q1 : x1 := x1 + 1, x3 := 2;", 3, 31, "out of range"),
        ("edge q2 -> q1 : x1 := x1 + 1 # no ';'\nedge q1 -> q2 : x1 := x1 + 1;", 4, 1, "expected ';'"),
        ("edge q2 -> q1 : x1 := x1 + 1", 3, 29, "expected ';'"),
        ("edge q2 -> q3 : x1 := x1 + 1;", 3, 12, "unknown node 'q3'"),
    ],
    ids=["extra-token", "assigned-twice", "out-of-range", "next-line", "end-of-text", "unknown-node"],
)
def test_a_malformed_repeat_of_a_label_fails_at_its_own_position(last, line, col, message):
    text = f"vars 2; sort int; nodes q1 q2;\nedge q1 -> q2 : x1 := x1 + 1;\n{last}"
    with pytest.raises(pg.ProgramSyntaxError, match=message) as exc:
        pg.parse_program(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert _check_agrees("parse_program", text)[1:] == (line, col)


def test_programs_with_repeated_labels_match_the_reference_parser():
    """Programs whose labels repeat, and their mutants, which make
    malformed repeats of well-formed labels, parse as the reference parser
    does; the parsed edges share one transfer per distinct label text."""
    shared = errors = 0
    for sort in ("int", "rat"):
        for k in range(120):
            rng = random.Random(f"labels:{sort}:{k}")
            text = random_label_program(rng, sort)
            program = pg.parse_program(text)
            by_label = {}
            for (_, t, _), line in zip(program.edges, text.split("edge ")[1:]):
                key = re.sub(r"#[^\n]*|\s", "", line.split(":", 1)[1])
                assert by_label.setdefault(key, t) is t
            shared += len(program.edges) - len(by_label)
            for t in [text, *_mutants(rng, text, 8)]:
                errors += isinstance(_check_agrees("parse_program", t), tuple)
    assert shared > 500 and errors > 1000


def _assigned_oracle(rows: tuple[pg.LinExpr, ...]) -> tuple:
    """The assigned rows of the dense ``rows`` by their definition: every
    row unequal to the identity row."""
    n = len(rows)
    return tuple(
        (j, tuple((i, c) for i, c in enumerate(r.coeffs) if c != 0), r.const)
        for j, r in enumerate(rows)
        if r != identity_row(j, n, 0, 1)
    )


def _dense_rows(t: pg.ParallelAffineAssign, n: int, sort: str) -> tuple[pg.LinExpr, ...]:
    """Row j of ``t`` for every j: the identity row where ``t`` assigns none."""
    one = Fraction(1) if sort == "rat" else 1
    rows = dict(t.rows)
    return tuple(rows.get(j, identity_row(j, n, one * 0, one)) for j in range(n))


def test_parsed_assigned_rows_equal_those_of_fresh_rows():
    """On random programs of both sorts, a parsed assignment equals the one
    built from its dense rows, fresh identity rows included, and its
    ``assigned`` is that of the definition, which compares every row."""
    checked = 0
    for sort in ("int", "rat"):
        for k in range(1200):
            rng = random.Random(f"assigned:{sort}:{k}")
            texts = [random_label_program(rng, sort), pg.print_program(random_program(rng, sort))]
            for program in map(pg.parse_program, texts):
                for _, t, _ in program.edges:
                    if isinstance(t, pg.ParallelAffineAssign):
                        rows = _dense_rows(t, program.n, sort)
                        fresh = dense_assign(rows)
                        assert fresh == t and t.assigned == fresh.assigned == _assigned_oracle(rows), t
                        checked += 1
    assert checked > 10_000


def test_dense_rows_and_assigned_rows_agree():
    """On random dense rows, written-out identity rows included, the
    assignment built from all of them applies, lists its assigned rows and
    prints as evaluating and comparing every row does."""
    seen: set[str] = set()
    for k in range(400):
        rng = random.Random(f"dense:{k}")
        n = rng.randint(1, 5)
        rows = random_assignment(rng, n, seen)
        t = dense_assign(rows)
        for _ in range(3):
            v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            assert t.apply_point(v) == tuple(r.eval(v) for r in rows)
        assert t.assigned == _assigned_oracle(rows)
        changed = [(j, r) for j, r in enumerate(rows) if r != identity_row(j, n, 0, 1)]
        text = ", ".join(f"x{j + 1} := {pg.render_linexpr(r)}" for j, r in changed)
        assert pg.render_transfer(t) == (text or "skip")
    assert {"identity", "constant", "random", "parallel pair"} <= seen
