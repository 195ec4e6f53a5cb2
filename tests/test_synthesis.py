"""Synthesis engines: forward lfp, backward gfp, verification, bounds."""

from __future__ import annotations

import collections
import itertools
import random
import re
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, get_args

import pytest

from absinv import affine as af
from absinv import const_domain as cd
from absinv import programs as pg
from absinv import synthesis
from absinv.finite import (
    ClosureFamily,
    FiniteTS,
    greatest_invariant_enum,
    powerset_family,
    random_closure_family,
    random_ts,
    run_algorithm1,
    run_algorithm4,
)
from absinv.lattice import IterationBudgetExceeded, kleene, lfp_iterate
from absinv.synthesis import (
    ALGORITHMS,
    AnalysisProblem,
    UnsupportedDomain,
    abstract_post_step,
    abstract_pret_step,
    ainv_forward,
    backward_gfp,
    verify_invariant,
)
from conftest import (
    BAD_GRAPHS, PARSED_LABELS, built_differences, checked_problem, graph_error, pointwise_leq, random_const_vec,
    random_program, rational_view, stray_attributes,
)

TOP = cd.TOP
F = Fraction


def cvec(*slots) -> cd.ConstVec:
    return slots


def sv(problem: AnalysisProblem, *values) -> pg.StateVector:
    return pg.StateVector(problem.nodes, values)


@pytest.fixture()
def const_problem(const_demo) -> AnalysisProblem:
    prop = {"q2": pg.InitVector((pg.TOP, 2))}
    return AnalysisProblem.build(const_demo, "const", prop)


@pytest.fixture()
def affine_problem(affine_demo) -> AnalysisProblem:
    prop = {"q4": pg.InitConstraints((pg.LinExpr((F(1), F(1), F(0)), F(1)),))}
    return AnalysisProblem.build(affine_demo, "affine", prop)


# ---------------------------------------------------------------------------
# Forward analysis on the constant-domain demo
# ---------------------------------------------------------------------------

CONST_TRACE = [
    ("(top,top)", "bot", "bot", "bot"),
    ("(top,top)", "(0,2)", "bot", "bot"),
    ("(top,top)", "(0,2)", "(4,1)", "bot"),
    ("(top,top)", "(top,2)", "(4,1)", "bot"),
    ("(top,top)", "(top,2)", "(top,1)", "(top,2)"),
]


def test_forward_const_trace_matches_expected(const_problem):
    result = ainv_forward(const_problem)
    assert result.found and result.kind == "least"
    rendered = [
        tuple(cd.render_const(x) for x in vec.values) for vec in result.trace
    ]
    assert rendered == CONST_TRACE
    assert result.invariant == result.trace[-1]
    assert verify_invariant(const_problem, result.invariant)


def test_forward_const_single_steps(const_problem):
    j0 = const_problem.init
    j1 = abstract_post_step(const_problem, j0)
    assert j1 == sv(const_problem, cvec(TOP, TOP), cvec(0, 2), None, None)
    j3 = sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(4, 1), None)
    j4 = abstract_post_step(const_problem, j3)
    assert j4 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, 1), cvec(TOP, 2))


def test_forward_step_on_all_bottom_stays_bottom(const_demo):
    prog = pg.Program(const_demo.nodes, 2, "int", const_demo.edges, {})
    problem = AnalysisProblem.build(prog, "const")
    bot_vec = pg.StateVector(prog.nodes, (None,) * len(prog.nodes))
    assert abstract_post_step(problem, bot_vec) == bot_vec


def test_forward_const_not_found_at_step_three(const_demo):
    prop = {"q2": pg.InitVector((0, pg.TOP))}
    problem = AnalysisProblem.build(const_demo, "const", prop)
    result = ainv_forward(problem)
    assert not result.found
    assert result.reason == "property-violated"
    assert len(result.trace) - 1 == 3
    assert result.trace[-1]["q2"] == cvec(TOP, 2)


def test_forward_found_is_least_among_sampled_invariants(const_problem):
    result = ainv_forward(const_problem)
    rng = random.Random(4)
    dom = const_problem.adapter
    hits = 0
    for _ in range(400):
        candidate = sv(
            const_problem,
            *[
                (rng.choice([TOP, 0, 2, 3, 4]), rng.choice([TOP, 1, 2]))
                for _ in range(4)
            ],
        )
        if verify_invariant(const_problem, candidate):
            hits += 1
            assert pointwise_leq(const_problem, result.invariant, candidate)
    assert hits > 0


def test_empty_program_analysis_returns_init_abstraction():
    prog = pg.parse_program("vars 1; sort int; nodes q1; init q1: (7);")
    problem = AnalysisProblem.build(prog, "const")
    result = ainv_forward(problem)
    assert result.found
    assert result.invariant == problem.init
    assert len(result.trace) == 1


# ---------------------------------------------------------------------------
# Backward analysis on the constant-domain demo
# ---------------------------------------------------------------------------

BACKWARD_TRACE = [
    ("(top,top)", "(top,top)", "(top,top)", "(top,top)"),
    ("(top,top)", "(top,2)", "(top,top)", "(top,top)"),
    ("(top,top)", "(top,2)", "(top,1)", "(top,top)"),
]


def test_backward_const_trace_matches_expected(const_problem):
    result = backward_gfp(const_problem)
    assert result.found and result.kind == "greatest"
    rendered = [tuple(cd.render_const(x) for x in vec.values) for vec in result.trace]
    assert rendered == BACKWARD_TRACE
    assert verify_invariant(const_problem, result.invariant)


def test_backward_result_strictly_weaker_than_forward(const_problem):
    fwd = ainv_forward(const_problem).invariant
    bwd = backward_gfp(const_problem).invariant
    assert pointwise_leq(const_problem, fwd, bwd)
    assert fwd != bwd


def test_backward_pret_single_steps(const_problem):
    nodes = const_problem.nodes
    i0 = pg.StateVector(nodes, (cvec(TOP, TOP),) * len(nodes))
    i1 = abstract_pret_step(const_problem, i0)
    assert i1 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, TOP), cvec(TOP, TOP))
    i2 = abstract_pret_step(const_problem, i1)
    assert i2 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, 1), cvec(TOP, TOP))
    assert abstract_pret_step(const_problem, i2) == i2


def test_backward_pret_on_all_bottom(const_problem):
    nodes = const_problem.nodes
    bot_vec = pg.StateVector(nodes, (None,) * len(nodes))
    assert abstract_pret_step(const_problem, bot_vec) == bot_vec


def test_backward_not_found_when_init_node_demands_bottom(const_demo):
    prop = {"q1": pg.InitPoints(frozenset())}  # bottom at the initial node
    problem = AnalysisProblem.build(const_demo, "const", prop)
    result = backward_gfp(problem)
    assert not result.found
    assert result.reason == "init-not-entailed"
    assert len(result.trace) - 1 == 1


def test_backward_greater_than_sampled_invariants(const_problem):
    result = backward_gfp(const_problem)
    rng = random.Random(9)
    for _ in range(400):
        candidate = sv(
            const_problem,
            *[
                (rng.choice([TOP, 0, 3]), rng.choice([TOP, 1, 2]))
                for _ in range(4)
            ],
        )
        if verify_invariant(const_problem, candidate):
            assert pointwise_leq(const_problem, candidate, result.invariant)


def test_build_rejects_a_property_at_an_unknown_node(const_demo):
    bot = pg.BOT
    with pytest.raises(ValueError, match="^unknown node 'q9' in property$"):
        AnalysisProblem.build(const_demo, "const", {"q9": bot})
    result = ainv_forward(AnalysisProblem.build(const_demo, "const", {"q4": bot}))
    assert result.reason == "property-violated"


@pytest.mark.parametrize("domain, sort", [("const", "int"), ("affine", "rat")])
def test_build_gives_nodes_without_an_init_one_bottom(monkeypatch, domain, sort):
    """One ``bottom()`` for every node without an init, ``bot`` included: ``build``
    reads no literal for such a node."""
    program = pg.parse_program(f"vars 1; sort {sort}; nodes a b c d; init b: top; init d: bot;")
    adapter, read = synthesis._shared(synthesis.DOMAINS[domain], 1), []
    from_init = adapter.from_init
    monkeypatch.setattr(adapter, "from_init", lambda decl: read.append(decl) or from_init(decl))
    problem = AnalysisProblem.build(program, domain)
    assert problem.adapter is adapter and read == [pg.InitTop()]
    assert [a is adapter.bottom() for a in problem.init.values] == [True, False, True, True]
    assert problem.init.values[1] is adapter.top()


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
def test_adapters_build_their_bounds_once(domain):
    adapter = synthesis.DOMAINS[domain](3)
    assert adapter.top() is adapter.top() and adapter.bottom() is adapter.bottom()
    assert adapter.from_init(pg.InitTop()) is adapter.top()
    assert adapter.from_init(pg.BOT) is adapter.from_init(pg.InitPoints(frozenset())) is adapter.bottom()
    bottom, top = {
        "const": (None, (TOP, TOP, TOP)),
        "affine": (af.AffSubspace.empty(3), af.AffSubspace.full(3)),
    }[domain]
    assert (adapter.bottom(), adapter.top()) == (bottom, top)


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
@pytest.mark.parametrize(
    "n, points", [(2, [(1, 2, 3)]), (3, [(1, 2)]), (2, [(1, 2), (1, 2, 3)])], ids=["long", "short", "second-long"]
)
def test_alpha_rejects_a_point_of_another_length(domain, n, points):
    """In the parser's wording, at the first point whose length is not n."""
    k = next(len(p) for p in points if len(p) != n)
    with pytest.raises(ValueError, match=f"^point has {k} coordinates, expected {n}$"):
        synthesis.DOMAINS[domain](n).alpha(points)


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
@pytest.mark.parametrize("point", [(1,), (1, 5, 9), ()], ids=["short", "long", "empty"])
def test_contains_rejects_a_point_of_another_length(domain, point):
    """gamma-membership at n = 2 checks the point's length, on bottom and on
    nonbottom elements, as ``alpha`` does."""
    adapter = synthesis.DOMAINS[domain](2)
    elements = (adapter.bottom(), adapter.top(), adapter.alpha([(1, 5)]), adapter.alpha([(1, 5), (1, 6)]))
    for a in elements:
        assert adapter.contains(a, (1, 5)) == (a != adapter.bottom())
        with pytest.raises(ValueError, match=f"^point has {len(point)} coordinates, expected 2$"):
            adapter.contains(a, point)


@pytest.mark.parametrize("entries", [(F(1, 2), TOP), (1, 2.5), (1, "top")], ids=repr)
def test_a_const_vector_literal_takes_only_integers_and_top(entries):
    """The entries are the slots: nothing is truncated or converted."""
    adapter = synthesis.ConstAdapter(2)
    assert adapter.from_init(pg.InitVector([-3, TOP])) == (-3, TOP)
    with pytest.raises(ValueError, match="^bad slot value"):
        adapter.from_init(pg.InitVector(entries))


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
@pytest.mark.parametrize("bad", ["top", 2.5, True, None], ids=repr)
def test_both_vector_literals_reject_the_same_bad_entries(domain, bad):
    """A string, a float, a bool and None are no slot value in either domain;
    the affine literal takes ints, Fractions and TOP.  Every door rejects the
    entry with the literal's message: alpha of points, gamma-membership and a
    ``Program`` whose init is the literal or a point set.  A point, unlike a
    literal, has no ``TOP`` entry."""
    assert synthesis.AffAdapter(2).from_init(pg.InitVector((F(1, 2), TOP))) == af.AffSubspace(2, (1, 0), ((0, 1),), 2)
    adapter = synthesis.DOMAINS[domain](2)
    doors = [
        lambda: adapter.from_init(pg.InitVector((1, bad))),
        lambda: adapter.alpha([(bad, 1), (1, 1)]),
        lambda: adapter.contains(adapter.top(), (bad, 1)),
        lambda: pg.Program(("a",), 2, adapter.sort, (), {"a": pg.InitVector((1, bad))}),
        lambda: pg.Program(("a",), 2, adapter.sort, (), {"a": pg.InitPoints(frozenset({(bad, 1)}))}),
    ]
    for door in doors:
        with pytest.raises(ValueError, match=f"^bad slot value {re.escape(repr(bad))}$"):
            door()
    with pytest.raises(ValueError, match="^bad slot value top$"):
        adapter.alpha([(TOP, 1)])
    with pytest.raises(ValueError, match="^bad slot value top$"):
        adapter.contains(adapter.top(), (TOP, 1))


@pytest.mark.parametrize(
    "rows, message",
    [
        ((pg.LinExpr((1, 1, 1), 0),), "constraint dimension mismatch"),
        ((pg.LinExpr((F(1, 2),), 1),), "constraint dimension mismatch"),
        ((pg.LinExpr((0.5, 1), 1),), "bad slot value 0.5"),
        ((pg.LinExpr((1, 1), 0), pg.LinExpr(("a", 1), 0)), "bad slot value 'a'"),
        ((pg.LinExpr((1, 1), True),), "bad slot value True"),
        ((), "a constraint literal needs at least one row"),
    ],
    ids=["wide", "narrow", "float", "string", "bool-constant", "empty"],
)
def test_the_constraint_cell_rejects_what_a_program_rejects(rows, message):
    """``programs.checked_constraints`` is the one check of a constraint
    literal: a ``Program`` init, the affine cell and a property of ``build``
    reject the same rows with the same message, and pass them as they are."""
    decl, adapter = pg.InitConstraints(rows), synthesis.AffAdapter(2)
    program = pg.parse_program("vars 2; sort rat; nodes a;")
    doors = [
        lambda: pg.Program(("a",), 2, "rat", (), {"a": decl}),
        lambda: adapter.from_init(decl),
        lambda: AnalysisProblem.build(program, "affine", {"a": decl}),
        lambda: pg.checked_constraints(rows, 2, "rat"),
    ]
    for door in doors:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            door()
    good = (pg.LinExpr((F(1, 2), 1), -1), pg.LinExpr((0, 1), 0))
    assert pg.checked_constraints(good, 2, "rat") is good
    assert adapter.from_init(pg.InitConstraints(good)) == af.AffSubspace.point_of((2, 0))
    with pytest.raises(ValueError, match="^constraint literals need sort 'rat'$"):
        pg.checked_constraints(good, 2, "int")


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
def test_meet_is_the_greatest_lower_bound(domain):
    """On seeded elements (alpha of one to three points, and the bounds),
    meet(a, b) is below a and b, and so is every c below both of them."""
    rng = random.Random(f"glb:{domain}")
    adapter = synthesis.DOMAINS[domain](2)
    num = int if domain == "const" else Fraction
    pool = [adapter.bottom(), adapter.top()]
    for _ in range(24):
        points = [(num(rng.randint(-2, 2)), num(rng.randint(-2, 2))) for _ in range(rng.randint(1, 3))]
        pool.append(adapter.alpha(points))
    strict = 0
    for a, b in itertools.product(pool, repeat=2):
        m = adapter.meet(a, b)
        assert adapter.leq(m, a) and adapter.leq(m, b), (a, b)
        assert all(adapter.leq(c, m) for c in pool if adapter.leq(c, a) and adapter.leq(c, b)), (a, b)
        strict += m not in (a, b, adapter.bottom())
    assert strict > 0


def test_affine_rejects_an_inequality_guard_built_in_code():
    """The parser rejects ``<`` in a ``sort rat`` program, and so do
    ``Program`` and ``AnalysisProblem`` built in code, with its message."""
    guard = pg.Guard((pg.LinExpr((F(1),), F(0)),), "<", "conj")
    message = "^inequality guard '<' is not supported for sort rat$"
    with pytest.raises(ValueError, match=message):
        pg.Program(("q1", "q2"), 1, "rat", ((0, guard, 1),), {"q1": pg.InitTop()})
    adapter, nodes = synthesis.AffAdapter(1), ("q1", "q2")
    vector = pg.StateVector(nodes, (adapter.top(), adapter.top()))
    with pytest.raises(ValueError, match=message):
        AnalysisProblem(nodes, ((0, guard, 1),), adapter, vector, vector)
    with pytest.raises(pg.ProgramSyntaxError, match=message[1:]):
        pg.parse_program("vars 1; sort rat; nodes q1 q2; edge q1 -> q2 : assume x1 < 0;")


def _random_decl(rng: random.Random, n: int, sort: str) -> pg.InitDecl:
    """A declaration of any kind the sort has; some give bottom or a top that is not the adapter's object."""
    num = Fraction if sort == "rat" else int
    kinds = [
        pg.InitTop, lambda: pg.BOT,
        lambda: pg.InitVector(tuple(TOP if rng.random() < 0.4 else num(rng.randint(-2, 2)) for _ in range(n))),
        lambda: pg.InitPoints(frozenset(tuple(num(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2))),
    ]
    if sort == "rat":
        kinds.append(lambda: pg.InitConstraints((pg.LinExpr(tuple(num(rng.randint(-1, 1)) for _ in range(n)), num(1)),)))
    return rng.choice(kinds)()


@pytest.mark.parametrize("sort, domain", [("int", "const"), ("rat", "affine")])
def test_build_equals_the_checking_constructor(sort, domain):
    """``build`` skips the constructor's checks and makes every field itself:
    its problem equals, field by field and in the key order of the bound
    maps, the one the constructor makes of the same graph and of the vectors
    of the inits and the property, also when the property names its nodes
    out of node order and when a declaration gives bottom or top."""
    rng, out_of_order = random.Random(f"build-{sort}"), 0
    for _ in range(300):
        program = random_program(rng, sort)
        n, nodes = program.n, program.nodes
        inits = {q: _random_decl(rng, n, sort) for q in rng.sample(nodes, rng.randint(0, len(nodes)))}
        program = replace(program, inits=inits)
        prop = {q: _random_decl(rng, n, sort) for q in rng.sample(nodes, rng.randint(0, len(nodes)))}
        out_of_order += list(prop) != sorted(prop, key=nodes.index)
        assert built_differences(program, domain, prop) == []
    assert out_of_order >= 100


@pytest.mark.parametrize("sort, domain", [("int", "affine"), ("rat", "const")])
def test_build_rejects_a_domain_of_another_sort(sort, domain):
    program = pg.parse_program(f"vars 1; sort {sort}; nodes q1;")
    other = "rat" if sort == "int" else "int"
    with pytest.raises(UnsupportedDomain, match=f"^domain '{domain}' requires sort '{other}', program has '{sort}'$"):
        AnalysisProblem.build(program, domain)


def test_build_shares_one_adapter_per_domain_and_n():
    """Problems over equal (domain, n) get one adapter object, whatever the
    program; another domain or n gets another.  A direct constructor call
    still makes a fresh adapter."""
    adapters = {}
    for sort, domain in (("int", "const"), ("rat", "affine")):
        for n in (1, 2, 3):
            for nodes in ("a", "a b", "a b c"):
                program = pg.parse_program(f"vars {n}; sort {sort}; nodes {nodes}; init a: top;")
                adapter = AnalysisProblem.build(program, domain).adapter
                assert adapters.setdefault((domain, n), adapter) is adapter
                assert type(adapter) is synthesis.DOMAINS[domain] and adapter.n == n
    assert len({id(a) for a in adapters.values()}) == len(adapters) == 6
    fresh = synthesis.ConstAdapter(2)
    assert fresh is not adapters["const", 2] and fresh is not synthesis.ConstAdapter(2)


@pytest.mark.parametrize("sort, domain", [("int", "const"), ("rat", "affine")])
def test_shared_adapters_give_the_results_of_fresh_ones(sort, domain):
    """Forward, then (constants) backward, run back to back on problems that
    share their adapters give, on seeded random programs and properties,
    the results of the same problems made by the checking constructor over
    a fresh ``DOMAINS[domain](n)``; ``build`` stays equal to that
    constructor over its own adapter."""
    rng, shared = random.Random(f"shared-{sort}"), set()
    algorithms = [ainv_forward, backward_gfp] if domain == "const" else [ainv_forward]
    for _ in range(150):
        program = random_program(rng, sort, max_vars=3)
        n, nodes = program.n, program.nodes
        program = replace(program, inits={q: _random_decl(rng, n, sort) for q in rng.sample(nodes, rng.randint(0, 2))})
        prop = {q: _random_decl(rng, n, sort) for q in rng.sample(nodes, rng.randint(0, 2))}
        built = AnalysisProblem.build(program, domain, prop)
        shared.add(built.adapter)
        checked = checked_problem(program, synthesis.DOMAINS[domain](n), prop)
        assert [alg(built) for alg in algorithms] == [alg(checked) for alg in algorithms]
        assert built_differences(program, domain, prop) == []
    assert len(shared) == 3  # n = 1, 2, 3: each adapter served about 50 problems


def test_a_parsed_literal_reaches_its_cell_through_one_check(monkeypatch):
    """The entries of a parsed init or property literal are the element as
    they are, once one ``checked_vector`` call per literal has passed
    them, as for an equal literal built in code."""
    program = pg.parse_program("vars 2; sort int; nodes a b; init a: (1, top); edge a -> b : x1 := x1 + 1;")
    prop = {"b": pg.parse_init_literal("(2, top)", 2, "int")}
    AnalysisProblem.build(program, "const", prop)  # the shared adapter is made, and its top checked, here
    calls, original = [], synthesis.checked_vector
    monkeypatch.setattr(synthesis, "checked_vector", lambda v, *args: calls.append(v) or original(v, *args))
    problem = AnalysisProblem.build(program, "const", prop)
    init, safety = program.inits[0][1].entries, prop["b"].entries
    assert problem.init.values[0] is init and problem.safety.values[1] is safety
    assert ainv_forward(problem).invariant.values == ((1, TOP), (2, TOP))
    assert len(calls) == 2 and calls[0] is init and calls[1] is safety
    AnalysisProblem.build(program, "const", {"b": pg.InitVector((2, TOP))})  # equal, built in code
    assert calls[2:] == [(1, TOP), (2, TOP)]


@pytest.mark.parametrize("cls", list(synthesis.DOMAINS.values()), ids=list(synthesis.DOMAINS))
def test_a_vector_that_is_not_iterable_is_a_value_error(cls):
    """A point or vector literal that is not iterable gets the ``ValueError``
    of every other bad vector, at each door of both domains."""
    adapter = cls(2)
    for entry, message in [
        (lambda: adapter.alpha([5]), "point 5 is not iterable"),
        (lambda: adapter.contains(adapter.top(), 5), "point 5 is not iterable"),
        (lambda: adapter.from_init(pg.InitVector(None)), "vector literal None is not iterable"),
        (lambda: adapter.from_init(pg.InitPoints([7])), "point 7 is not iterable"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            entry()


def test_a_constraint_literal_that_is_not_a_row_list_is_a_value_error():
    adapter = synthesis.AffAdapter(2)
    with pytest.raises(ValueError, match="^constraint literal 5 is not iterable$"):
        adapter.from_init(pg.InitConstraints(5))
    with pytest.raises(ValueError, match="^row None is not a LinExpr$"):
        adapter.from_init(pg.InitConstraints((None,)))


@pytest.mark.parametrize("sort, domain", [("int", "const"), ("rat", "affine")])
def test_no_check_leaves_a_mark_on_a_transfer_or_literal(sort, domain):
    """After a parse, a build, every engine of the domain and a print, each
    transfer and literal holds only its fields and the memos its class
    declares: no check records on the object that it passed."""
    labels = PARSED_LABELS[sort]
    text = (f"vars 2; sort {sort}; nodes a b; init a: (1, top);\n"
            + "".join(f"edge a -> b : {label};\nedge b -> a : {label};\n" for label in labels))
    program = pg.parse_program(text)
    prop = {"b": pg.parse_init_literal("(top, 2)", 2, sort)}
    problem = AnalysisProblem.build(program, domain, prop)
    for alg in ALGORITHMS.values() if domain == "const" else [ainv_forward]:
        result = alg(problem)
        synthesis.render_state_vector(problem.adapter, result.last)
    pg.parse_program(pg.print_program(program))
    objects = [t for _, t, _ in program.edges] + [decl for _, decl in program.inits] + list(prop.values())
    assert {type(x) for x in objects} >= {pg.ParallelAffineAssign, pg.NondetAssign, pg.Guard, pg.InitVector}
    assert [(x, stray_attributes(x)) for x in objects if stray_attributes(x)] == []


@pytest.mark.parametrize(
    "entries, message",
    [
        ((True, 0), "bad slot value True"),
        ((1.5, 0), "bad slot value 1.5"),
        ((F(1, 2), 0), "bad slot value Fraction(1, 2)"),
        ((1,), "vector literal has 1 entries, expected 2"),
        ((1, 2, TOP), "vector literal has 3 entries, expected 2"),
    ],
    ids=["bool", "float", "fraction", "short", "long"],
)
def test_a_const_literal_built_in_code_is_checked(entries, message):
    """A literal built in code is checked where the cell reads it, as a
    parsed one is: by ``from_init`` and as a property of ``build``."""
    program = pg.parse_program("vars 2; sort int; nodes a b;")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesis.ConstAdapter(2).from_init(pg.InitVector(entries))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnalysisProblem.build(program, "const", {"b": pg.InitVector(entries)})


def test_a_parsed_literal_is_checked_again_at_another_n_or_sort():
    """The cell checks a parsed literal at every read, as it checks one
    built in code: it passes at the n and sort it was parsed at and fails
    at another n or sort."""
    literal = pg.parse_init_literal("(1, top)", 2, "int")
    assert synthesis.ConstAdapter(2).from_init(literal) is literal.entries
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"^vector literal has 2 entries, expected {n}$"):
            synthesis.ConstAdapter(n).from_init(literal)
        program = pg.parse_program(f"vars {n}; sort int; nodes a;")
        with pytest.raises(ValueError, match=f"^vector literal has 2 entries, expected {n}$"):
            AnalysisProblem.build(program, "const", {"a": literal})
    rational = pg.parse_init_literal("(1, top)", 2, "rat")
    with pytest.raises(ValueError, match=r"^bad slot value Fraction\(1, 1\)$"):
        synthesis.ConstAdapter(2).from_init(rational)


def test_unknown_domain_and_zero_variables_are_rejected():
    program = pg.parse_program("vars 1; sort int; nodes q1;")
    with pytest.raises(UnsupportedDomain, match="^unknown domain 'box'$"):
        AnalysisProblem.build(program, "box")
    for cls in synthesis.DOMAINS.values():
        with pytest.raises(ValueError, match="^need at least one variable$"):
            cls(0)


def test_a_directly_built_problem_is_checked():
    """Node names must be distinct, edge endpoints must be node indices (no
    negative aliasing, no index past the end), init and safety must be
    vectors over the nodes, and, in both domains, each transfer must fit
    the adapter's n and sort: the graphs of ``BAD_GRAPHS``, which a
    ``Program`` rejects too, are rejected with the same messages.  A
    ``Fraction`` coefficient or constant is a number of sort ``rat`` only."""
    adapter = synthesis.ConstAdapter(1)
    nodes, ident = ("a", "b"), pg.SKIP
    init = pg.StateVector(nodes, (adapter.top(), adapter.bottom()))
    safety = pg.StateVector(nodes, (adapter.top(),) * 2)
    result = ainv_forward(AnalysisProblem(nodes, ((0, ident, 1),), adapter, init, safety))
    assert result.found and result.invariant.values == (adapter.top(),) * 2
    for edge in ((-2, ident, 1), (0, ident, 2), (2, ident, 0)):
        with pytest.raises(ValueError, match="edge endpoint"):
            AnalysisProblem(nodes, (edge,), adapter, init, safety)
    with pytest.raises(ValueError, match="over the problem's nodes"):
        AnalysisProblem(("a", "b", "c"), ((0, ident, 1),), adapter, init, safety)
    with pytest.raises(ValueError, match="over the problem's nodes"):
        AnalysisProblem(nodes, (), adapter, init, pg.StateVector(("a", "c"), safety.values))
    with pytest.raises(ValueError, match="duplicate node names"):
        AnalysisProblem(("a", "a"), ((0, ident, 1),), adapter, init, safety)
    for cls in synthesis.DOMAINS.values():
        wide = cls(2)
        top = pg.StateVector(("q1",), (wide.top(),))
        for _, edges, message in BAD_GRAPHS:
            with pytest.raises(ValueError, match=graph_error(message, cls.sort)):
                AnalysisProblem(("q1",), edges, wide, top, top)
    half = Fraction(1, 2)
    for t in (
        pg.ParallelAffineAssign(((0, pg.LinExpr((half,), 0)),)),
        pg.ParallelAffineAssign(((0, pg.LinExpr((1,), half)),)),
        pg.Guard((pg.LinExpr((half,), 1),), "=", "conj"),
    ):
        with pytest.raises(ValueError, match=r"^bad slot value Fraction\(1, 2\): a transfer over sort 'int' needs int entries$"):
            AnalysisProblem(nodes, ((0, t, 1),), adapter, init, safety)
        aff = synthesis.AffAdapter(1)
        top = pg.StateVector(nodes, (aff.top(),) * 2)
        assert ainv_forward(AnalysisProblem(nodes, ((0, t, 1),), aff, top, top)).found


def _assert_indexed(problem: AnalysisProblem) -> None:
    """The edge lists and bound maps of ``problem`` are per-node scans of
    its edges and vectors, in edge and node order."""
    nodes, edges, adapter = range(len(problem.nodes)), problem.edges, problem.adapter
    assert problem.preds == tuple(tuple((s, t) for s, t, d in edges if d == j) for j in nodes)
    assert problem.succs == tuple(tuple((t, d) for s, t, d in edges if s == j) for j in nodes)
    assert list(problem.nonbottom_init.items()) == [
        (j, a) for j, a in enumerate(problem.init.values) if a != adapter.bottom()
    ]
    assert list(problem.nontop_safety.items()) == [
        (j, a) for j, a in enumerate(problem.safety.values) if a != adapter.top()
    ]


def test_a_problem_indexes_its_edges_and_bounds_at_construction():
    """Right after construction, before any engine runs, each node lists its
    incoming and outgoing edges, and the bound maps hold the initial values
    that are not bottom and the safety values that are not top; ``replace``
    with a new safety vector maps that vector."""
    rng, changed = random.Random("problem-index"), 0
    for k in range(200):
        if k % 3 == 2:  # built directly: any node count, edges in any order
            adapter, nodes = synthesis.ConstAdapter(2), tuple(f"v{i}" for i in range(rng.randint(1, 6)))
            edges = tuple(
                (rng.randrange(len(nodes)), rng.choice([pg.SKIP, pg.NondetAssign(1)]), rng.randrange(len(nodes)))
                for _ in range(rng.randint(0, 12))
            )
            init = pg.StateVector(nodes, tuple(
                adapter.bottom() if rng.random() < 0.5 else random_const_vec(rng, 2) for _ in nodes
            ))
            problem = AnalysisProblem(nodes, edges, adapter, init, init.with_values((adapter.top(),) * len(nodes)))
        else:
            sort = "int" if k % 3 == 0 else "rat"
            problem = AnalysisProblem.build(random_program(rng, sort), "const" if sort == "int" else "affine")
        _assert_indexed(problem)
        top, bottom = problem.adapter.top(), problem.adapter.bottom()
        safety = problem.init.with_values(tuple(rng.choice((top, bottom, *problem.init.values)) for _ in problem.nodes))
        other = replace(problem, safety=safety)
        _assert_indexed(other)
        assert not problem.nontop_safety and other.preds == problem.preds
        changed += bool(other.nontop_safety)
    assert changed >= 150


def test_backward_rejected_for_affine(affine_problem, monkeypatch):
    """The affine domain has no wp column: backward synthesis is rejected
    before any step, also on a program with no edges."""
    monkeypatch.setattr(synthesis, "abstract_pret_diff", lambda *args: pytest.fail("a backward step ran"))
    no_edges = pg.parse_program("vars 1; sort rat; nodes q1; init q1: top;")
    for engine, problem in itertools.product(
        (ALGORITHMS["backward"], backward_gfp), (affine_problem, AnalysisProblem.build(no_edges, "affine"))
    ):
        with pytest.raises(UnsupportedDomain, match="^backward synthesis is not supported for the affine domain$"):
            engine(problem)


#: (domain, column, kind) -> why the domain's table has no cell there
HOLES = {
    **{("affine", "wp", kind): "no affine wp is written yet" for kind in get_args(pg.TransferFunction)},
    ("const", "init", pg.InitConstraints): "constraint literals are rat-only syntax",
}


def kind_samples(sort: str) -> list:
    """One value of every transfer and init-declaration kind, on two variables."""
    program = pg.parse_program(
        f"vars 2; sort {sort}; nodes q1; edge q1 -> q1 : skip; edge q1 -> q1 : x1 := x1 + x2;"
        " edge q1 -> q1 : x2 := ?; edge q1 -> q1 : assume x1 = 1 and x2 = 0;"
    )
    literals = [pg.parse_init_literal(x, 2, sort) for x in ("top", "bot", "(1, top)", "{(1, 2); (3, 2)}")]
    return [t for _, t, _ in program.edges] + literals + [pg.InitConstraints((pg.LinExpr((1, 0), -1),))]


@pytest.mark.parametrize("domain", synthesis.DOMAINS)
def test_every_kind_has_a_cell_or_a_listed_hole(domain):
    """Walk the domain's table: each transfer kind's post and wp and each
    init kind's element is a cell that returns an element, or a listed hole
    that raises ``UnsupportedDomain`` (so the CLI exits 2), not ``TypeError``
    or ``KeyError``; the table has no other cells."""
    adapter = synthesis.DOMAINS[domain](2)
    transfers, inits = get_args(pg.TransferFunction), get_args(pg.InitDecl)
    columns = {"post": transfers, "wp": transfers, "init": inits}
    samples = {type(x): x for x in kind_samples(adapter.sort)}
    assert set(samples) == {*transfers, *inits}
    method = {"post": "transfer", "wp": "wp", "init": "from_init"}
    for column, kinds in columns.items():
        call = getattr(adapter, method[column], None)  # None: the domain has no such column
        for kind in kinds:
            args = (samples[kind],) if column == "init" else (samples[kind], adapter.top())
            if (domain, column, kind) not in HOLES:
                assert adapter.leq(call(*args), adapter.top())
                continue
            assert (kind, column) not in adapter.table
            with pytest.raises(UnsupportedDomain, match=f"^no {column} cell for {kind.__name__}$"):
                adapter.table[kind, column]
            if call is not None:
                with pytest.raises(UnsupportedDomain):
                    call(*args)
    assert set(adapter.table) <= {(kind, column) for column, kinds in columns.items() for kind in kinds}
    assert hasattr(adapter, "wp") == any(column == "wp" for _, column in adapter.table)


# ---------------------------------------------------------------------------
# Forward analysis on the affine demo
# ---------------------------------------------------------------------------


def line_q2() -> af.AffSubspace:
    return af.from_equalities(
        [pg.LinExpr((F(1), F(2), F(0)), F(0)), pg.LinExpr((F(0), F(0), F(1)), F(-1))], 3
    )


def test_forward_affine_trace(affine_problem):
    result = ainv_forward(affine_problem)
    assert result.found and result.kind == "least"
    assert len(result.trace) == 4
    start_point = af.AffSubspace.point_of((-2, 1, 1))
    i1 = result.trace[1]
    assert i1["q2"] == start_point and i1["q3"].is_empty
    i2 = result.trace[2]
    assert i2["q2"] == start_point and i2["q3"] == line_q2()
    inv = result.invariant
    assert inv["q1"] == af.AffSubspace.full(3)
    assert inv["q2"] == line_q2()
    assert inv["q3"] == line_q2()
    # the guard successor collapses to the exact solution point, which
    # entails (is included in) the weaker printed property line
    assert inv["q4"] == start_point
    prop_line = af.from_equalities(
        [pg.LinExpr((F(1), F(1), F(0)), F(1)), pg.LinExpr((F(0), F(0), F(1)), F(-1))], 3
    )
    assert af.includes(prop_line, inv["q4"])
    assert verify_invariant(affine_problem, inv)


def test_forward_affine_exact_arithmetic(affine_problem):
    result = ainv_forward(affine_problem)
    for vec in result.trace:
        for x in vec.values:
            if not x.is_empty:
                point, basis = rational_view(x)  # asserts int entries
                assert all(isinstance(c, F) for c in point)
                assert all(isinstance(c, F) for b in basis for c in b)


# ---------------------------------------------------------------------------
# Trace shape and termination bounds
# ---------------------------------------------------------------------------


def test_traces_are_strict_chains(const_problem):
    fwd = ainv_forward(const_problem)
    for lo, hi in zip(fwd.trace, fwd.trace[1:]):
        assert pointwise_leq(const_problem, lo, hi) and lo != hi
    bwd = backward_gfp(const_problem)
    for hi, lo in zip(bwd.trace, bwd.trace[1:]):
        assert pointwise_leq(const_problem, lo, hi) and lo != hi


def test_random_const_programs_respect_height_bound():
    for seed in range(200):
        rng = random.Random(f"termination-const:{seed}")
        prog = random_program(rng, "int")
        problem = AnalysisProblem.build(prog, "const")
        result = ainv_forward(problem)
        assert result.found  # safety defaults to top
        assert len(result.trace) <= (prog.n + 1) * len(prog.nodes) + 1


def test_random_affine_programs_respect_height_bound():
    for seed in range(200):
        rng = random.Random(f"termination-affine:{seed}")
        prog = random_program(rng, "rat")
        problem = AnalysisProblem.build(prog, "affine")
        result = ainv_forward(problem)
        assert result.found
        assert len(result.trace) <= (prog.n + 1) * len(prog.nodes) + 1


# ---------------------------------------------------------------------------
# Soundness against concrete execution
# ---------------------------------------------------------------------------

WITNESSES = (-1, 0, 3)  # values a nondeterministic assignment may pick


def reached_states(program: pg.Program, problem: AnalysisProblem, rounds: int = 6) -> dict[str, set]:
    """The states at each node that ``rounds`` steps of concrete execution reach.

    Execution starts at q from the points of the box [-2,2]^n in gamma of the
    initial abstraction at q, plus the points of a declared point set.
    """
    adapter = problem.adapter
    num = F if program.sort == "rat" else int
    box = [tuple(map(num, p)) for p in itertools.product(range(-2, 3), repeat=program.n)]
    reached = {}
    for q, a in zip(program.nodes, problem.init.values):
        decl = program.init_decl(q)
        declared = decl.points if isinstance(decl, pg.InitPoints) else ()
        reached[q] = {p for p in box if adapter.contains(a, p)} | set(declared)
    frontier = {q: set(points) for q, points in reached.items()}
    for _ in range(rounds):
        new = {q: set() for q in program.nodes}
        for src, t, dst in program.edges:
            src, dst = program.nodes[src], program.nodes[dst]
            image = pg.apply_transfer_concrete(t, frontier[src], map(num, WITNESSES))
            new[dst] |= image - reached[dst]
        for q in program.nodes:
            reached[q] |= new[q]
        frontier = new
    return reached


@pytest.mark.parametrize(
    "sort, alg, min_found",
    [("int", "forward", 100), ("rat", "forward", 100), ("int", "backward", 80)],
    ids=["const-forward", "affine-forward", "const-backward"],
)
def test_invariants_contain_every_concretely_reached_state(sort, alg, min_found):
    """Each found invariant holds on 6 rounds of concrete execution.

    Backward runs take the forward invariant's value at the last node as
    the property, so an invariant below it exists.
    """
    domain = "const" if sort == "int" else "affine"
    found = 0
    for k in range(100):
        prog = random_program(random.Random(f"sound:{sort}:{k}"), sort, max_vars=3, max_nodes=6)
        problem = AnalysisProblem.build(prog, domain)
        result = ainv_forward(problem)
        if alg == "backward":
            last = prog.nodes[-1]
            prop = pg.parse_init_literal(problem.adapter.render(result.invariant[last]), prog.n, sort)
            problem = AnalysisProblem.build(prog, domain, {last: prop})
            result = backward_gfp(problem)
        if not result.found:
            continue
        found += 1
        for q, points in reached_states(prog, problem).items():
            element = result.invariant[q]
            assert all(problem.adapter.contains(element, p) for p in points), (k, q)
    assert found >= min_found


def test_const_wp_bounds_the_abstract_right_adjoint():
    """transfer(t, a) <= b implies a <= wp(t, b) on every edge.

    So the wp transformer is sound: every abstract inductive invariant below
    the property lies below each descending iterate, which is what makes
    ``init-not-entailed`` a sound verdict.  Half of the draws widen b to
    contain the image, so the premise holds often.
    """
    draws = held = 0
    for k in range(60):
        rng = random.Random(f"wp:{k}")
        prog = random_program(rng, "int", max_vars=3, max_nodes=4)
        adapter = synthesis.ConstAdapter(prog.n)
        for _, t, _ in prog.edges:
            for _ in range(50):
                a, b = (random_const_vec(rng, prog.n, -2, 2) for _ in range(2))
                if rng.random() < 0.5:
                    b = adapter.join(b, adapter.transfer(t, a))
                draws += 1
                if adapter.leq(adapter.transfer(t, a), b):
                    held += 1
                    assert adapter.leq(a, adapter.wp(t, b)), (k, t, a, b)
    assert held >= draws // 2 and draws - held >= draws // 10


def test_const_post_and_wp_are_monotone():
    """a <= b implies transfer(t, a) <= transfer(t, b) and wp(t, a) <= wp(t, b)
    on every edge: with the adjoint bound above, this is the contract that
    backward synthesis relies on.  Each pair is an element and its join with
    another, or its meet with another, so a strict a < b is common."""
    draws = strict = 0
    for k in range(60):
        rng = random.Random(f"monotone:{k}")
        prog = random_program(rng, "int", max_vars=3, max_nodes=4)
        adapter = synthesis.ConstAdapter(prog.n)
        for _, t, _ in prog.edges:
            for _ in range(50):
                a, c = (random_const_vec(rng, prog.n, -2, 2) for _ in range(2))
                a, b = (a, adapter.join(a, c)) if rng.random() < 0.5 else (adapter.meet(a, c), a)
                assert adapter.leq(a, b)
                draws += 1
                strict += a != b
                assert adapter.leq(adapter.transfer(t, a), adapter.transfer(t, b)), (k, t, a, b)
                assert adapter.leq(adapter.wp(t, a), adapter.wp(t, b)), (k, t, a, b)
    assert strict >= draws // 2


def test_affine_post_is_monotone():
    """a <= b implies transfer(t, a) <= transfer(t, b) on every edge kind of
    a ``sort rat`` program, the ``!=`` guard included: the forward step
    applies only the edges whose input changed, which gives the full step's
    iterates only for monotone transfers.  Each pair is an element and its
    join with another, or its meet with another."""
    draws = strict = 0
    kinds = set()
    for k in range(60):
        rng = random.Random(f"affine-monotone:{k}")
        prog = random_program(rng, "rat", max_vars=3, max_nodes=4)
        adapter = synthesis.AffAdapter(prog.n)

        def element():
            return adapter.alpha([tuple(Fraction(rng.randint(-1, 1)) for _ in range(prog.n))
                                  for _ in range(rng.randint(0, 3))])

        for _, t, _ in prog.edges:
            kinds.add(t.rel if isinstance(t, pg.Guard) else type(t))
            for _ in range(30):
                a, c = element(), element()
                a, b = (a, adapter.join(a, c)) if rng.random() < 0.5 else (adapter.meet(a, c), a)
                assert adapter.leq(a, b)
                draws += 1
                strict += a != b
                assert adapter.leq(adapter.transfer(t, a), adapter.transfer(t, b)), (k, t, a, b)
    assert kinds == {pg.ParallelAffineAssign, pg.NondetAssign, "=", "!="}
    assert strict >= draws // 3


# ---------------------------------------------------------------------------
# Check-before-step order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine, step, prop, found",
    [
        (ainv_forward, "abstract_post_diff", {"q2": pg.InitVector((pg.TOP, 2))}, True),
        (ainv_forward, "abstract_post_diff", {"q2": pg.InitVector((0, pg.TOP))}, False),
        (backward_gfp, "abstract_pret_diff", {"q2": pg.InitVector((pg.TOP, 2))}, True),
        (backward_gfp, "abstract_pret_diff", {"q1": pg.InitPoints(frozenset())}, False),
    ],
)
def test_engines_check_each_iterate_before_stepping_it(monkeypatch, const_demo, engine, step, prop, found):
    """The engine's diff step reads its working list; each call records the
    iterate that list holds."""
    calls = []
    original = getattr(synthesis, step)

    def counted(problem, x, changed):
        calls.append(pg.StateVector(problem.nodes, x))
        return original(problem, x, changed)

    monkeypatch.setattr(synthesis, step, counted)
    result = engine(AnalysisProblem.build(const_demo, "const", prop))
    assert result.found == found
    # a found invariant took one more step to confirm it repeats; a failed
    # check stops before stepping the violating iterate
    assert len(calls) == (len(result.trace) if found else len(result.trace) - 1)
    assert calls == list(result.trace[: len(calls)])


def kleene_applications(budget: int) -> int:
    """The applications of a step that never stabilizes that lattice.kleene
    makes under ``budget`` before it raises."""
    calls = 0

    def step(x: int) -> int:
        nonlocal calls
        calls += 1
        return x + 1

    with pytest.raises(IterationBudgetExceeded):
        for _ in kleene(step, 0, budget):
            pass
    return calls


@pytest.mark.parametrize(
    "domain, engine, step",
    [("const", ainv_forward, "abstract_post_diff"), ("const", backward_gfp, "abstract_pret_diff"),
     ("affine", ainv_forward, "abstract_post_diff")],
    ids=["const-forward", "const-backward", "affine-forward"],
)
def test_engine_budget_is_height_times_nodes_plus_one(monkeypatch, const_demo, affine_demo, domain, engine, step):
    """A step whose diff is never empty runs exactly as many times as
    lattice.kleene applies a step under a budget of height·N + 1."""
    program = const_demo if domain == "const" else affine_demo
    problem = AnalysisProblem.build(program, domain)
    calls = 0

    def endless(problem, x, changed):
        nonlocal calls
        calls += 1
        return {0: problem.adapter.top()}  # a nonempty diff; top passes every check

    monkeypatch.setattr(synthesis, step, endless)
    with pytest.raises(IterationBudgetExceeded):
        engine(problem)
    budget = problem.adapter.height() * len(problem.nodes) + 1
    assert calls == kleene_applications(budget) == budget + 1


# ---------------------------------------------------------------------------
# Incremental steps against full Jacobi steps
# ---------------------------------------------------------------------------


def full_post_step(problem: AnalysisProblem, v: pg.StateVector) -> pg.StateVector:
    """The forward step recomputed at every node: init ⊔ the edge images.

    It reads the edge triples directly, not the per-node lists the engine
    reads, and joins at every node, bounds included.
    """
    adapter, x = problem.adapter, v.values
    posts = list(problem.init.values)
    for src, t, dst in problem.edges:
        posts[dst] = adapter.join(posts[dst], adapter.transfer(t, x[src]))
    return v.with_values(posts)


def full_pret_step(problem: AnalysisProblem, v: pg.StateVector) -> pg.StateVector:
    """The backward step recomputed at every node: wp-meet, then ∩ v ∩ safety.

    It reads the edge triples directly, not the per-node lists the engine reads.
    """
    adapter, x = problem.adapter, v.values
    wps = [adapter.top() for _ in x]
    for src, t, dst in problem.edges:
        wps[src] = adapter.meet(wps[src], adapter.wp(t, x[dst]))
    meet = adapter.meet
    return v.with_values(map(meet, map(meet, wps, x), problem.safety.values))


def reference_run(problem: AnalysisProblem, alg: str) -> dict:
    """Either engine's outcome, from lattice.kleene over a full Jacobi step."""
    top, budget = problem.adapter.top(), problem.adapter.height() * len(problem.nodes) + 1
    if alg == "forward":
        start, step, kind = problem.init, full_post_step, "least"
        check, reason = (lambda v: pointwise_leq(problem, v, problem.safety)), "property-violated"
    else:
        start, step, kind = sv(problem, *[top for _ in problem.nodes]), full_pret_step, "greatest"
        check, reason = (lambda v: pointwise_leq(problem, problem.init, v)), "init-not-entailed"
    trace = []
    for v in kleene(lambda v: step(problem, v), start, budget):
        trace.append(v)
        if not check(v):
            return dict(found=False, kind=None, reason=reason, trace=trace)
    if alg == "backward" and not verify_invariant(problem, v):
        return dict(found=False, kind=None, reason="verification-failed", trace=trace)
    return dict(found=True, kind=kind, reason=None, trace=trace)


def failing_property(program: pg.Program, problem: AnalysisProblem, trace) -> dict[str, pg.InitDecl]:
    """A property the least invariant (the last forward iterate) violates.

    It is the second-to-last iterate at a node that the last step raised,
    so the forward run fails at its last iterate; with a one-iterate trace
    it is bottom at a node where the initial abstraction is not.
    """
    last = trace[-1]
    before = trace[-2] if len(trace) > 1 else sv(problem, *[problem.adapter.bottom() for _ in problem.nodes])
    j = next(j for j, (a, b) in enumerate(zip(before.values, last.values)) if a != b)
    render = cd.render_const if program.sort == "int" else af.render_affine
    text = render(before.values[j])
    return {program.nodes[j]: pg.parse_init_literal(text, program.n, program.sort)}


def explicit_bounds(program: pg.Program, prop: dict[str, pg.InitDecl]) -> tuple[pg.Program, dict[str, pg.InitDecl]]:
    """The same problem with every bound written out: an ``init q: bot``
    line (which ``Program`` drops) or, over ``rat``, the unsatisfiable
    constraint ``0 = 1``, at each node without an init, and a
    ``(top,…,top)`` property literal at each node without a property."""
    inits = dict(program.inits)
    literals = ("bot", "0 = 1") if program.sort == "rat" else ("bot",)
    empty = itertools.cycle([pg.parse_init_literal(text, program.n, program.sort) for text in literals])
    inits.update({q: next(empty) for q in program.nodes if q not in inits})
    top = pg.parse_init_literal("(" + ",".join(["top"] * program.n) + ")", program.n, program.sort)
    return replace(program, inits=inits), {q: prop.get(q, top) for q in program.nodes}


@pytest.mark.parametrize(
    "sort, alg, explicit",
    [(sort, alg, explicit) for explicit in (False, True)
     for sort, alg in (("int", "forward"), ("int", "backward"), ("rat", "forward"))],
    ids=[f"{name}{suffix}" for suffix in ("", "-explicit-bounds")
         for name in ("const-forward", "const-backward", "affine-forward")],
)
def test_incremental_engines_match_full_jacobi_iteration(sort, alg, explicit):
    """Each engine, with no property and with one that fails, gives the
    outcome and every iterate of lattice.kleene over the full step.  With
    explicit bounds, the initial and safety vectors hold elements equal to
    the adapter's bottom and top but not the same objects (a constant
    bottom is ``None``, which has no copy)."""
    domain = "const" if sort == "int" else "affine"
    outcomes = collections.Counter()
    incremental = 0  # runs that take a step told the changed nodes
    copies = 0  # explicit runs with an initial value equal to bottom, not the adapter's object
    for k in range(300):
        prog = random_program(random.Random(f"inc:{k}"), sort, max_vars=3, max_nodes=12)
        free = AnalysisProblem.build(prog, domain)
        least = reference_run(free, "forward")["trace"]
        for prop in ({}, failing_property(prog, free, least)):
            program, prop = explicit_bounds(prog, prop) if explicit else (prog, prop)
            problem = AnalysisProblem.build(program, domain, prop)
            if explicit:
                top = problem.adapter.top()
                assert any(a == top and a is not top for a in problem.safety.values), k
                bottom = problem.adapter.bottom()
                copies += any(a == bottom and a is not bottom for a in problem.init.values)
            result, expected = ALGORITHMS[alg](problem), reference_run(problem, alg)
            got = dict(found=result.found, kind=result.kind, reason=result.reason, trace=list(result.trace))
            assert got == expected, k
            assert result.steps == len(result.trace) - 1 and result.last == result.trace[-1], k
            outcomes[result.reason] += 1
            incremental += len(result.trace) >= 3
    assert outcomes[None] == 300 and incremental >= 200 and copies >= (400 if explicit and domain == "affine" else 0)
    if alg == "forward":
        assert outcomes["property-violated"] == 300
    else:
        assert outcomes["init-not-entailed"] >= 100 and outcomes["verification-failed"] >= 30


def ring_program(N: int) -> pg.Program:
    """Ring q1 -> ... -> qN -> q1: each forward edge adds 1 to one of x1..x3,
    x4 stays 0 and the back edge is skip."""
    lines = ["vars 4;", "sort int;", "nodes " + " ".join(f"q{i}" for i in range(1, N + 1)) + ";"]
    lines.append("init q1: (1,2,3,0);")
    lines += [f"edge q{i} -> q{i + 1} : x{i % 3 + 1} := x{i % 3 + 1} + 1;" for i in range(1, N)]
    lines.append(f"edge q{N} -> q1 : skip;")
    return pg.parse_program("\n".join(lines))


@pytest.mark.parametrize(
    "alg, method, built_per_step",
    [("forward", "transfer", 1), ("backward", "wp", 4)],
    ids=["forward-transfer", "backward-wp"],
)
def test_steps_recompute_only_nodes_reading_a_changed_node(monkeypatch, alg, method, built_per_step):
    """After the first step, which applies every edge's transfer, a forward
    step on this ring applies about one: one node changes per step.  The
    first backward step applies no wp, since every target is top, and each
    later one applies exactly one; the verification of the backward
    candidate is a forward step, which applies no wp.  A step makes only
    the elements whose values are new: of the results of the transfer, the
    wp, ``cd.join`` and ``cd.meet``, at most one per step forward and four
    backward is not one of the operands (the count includes the
    verification of the backward candidate)."""
    calls, built = [], 0

    def fresh(result, *operands):
        nonlocal built
        built += all(result is not x for x in operands)
        return result

    for name in ("transfer", "wp"):
        cell = getattr(synthesis.ConstAdapter, name)

        def counted(self, t, a, cell=cell, name=name):
            if name == method:
                calls.append(t)
            return fresh(cell(self, t, a), a)

        monkeypatch.setattr(synthesis.ConstAdapter, name, counted)
    for name in ("join", "meet"):
        monkeypatch.setattr(cd, name, lambda a, b, op=getattr(cd, name): fresh(op(a, b), a, b))
    for N in (40, 1280):
        prop = {f"q{N}": pg.parse_init_literal("(top,top,top,0)", 4, "int")}
        problem = AnalysisProblem.build(ring_program(N), "const", prop)
        calls.clear()
        built = 0
        result = ALGORITHMS[alg](problem)
        assert result.found
        assert result.steps == (2 * N - 1 if alg == "forward" else N)
        # a full step per iterate would make N * (steps + 1) calls
        if alg == "forward":
            assert N < len(calls) <= N + 2 * result.steps
        else:
            assert len(calls) == result.steps == N
        assert built <= built_per_step * result.steps


@pytest.mark.parametrize("alg, method, step", [("forward", "transfer", "abstract_post_diff"),
                                              ("backward", "wp", "abstract_pret_diff")])
def test_steps_apply_only_the_edges_whose_input_changed(monkeypatch, alg, method, step):
    """The first step applies every edge's transfer, and no wp: backward,
    every target is still top.  A later step applies only the out-edges
    (in-edges) of the nodes the previous step changed.
    The join node q4 is fed by the loop at q2 and by q3, which settles at
    step 1, so step 3 applies q2's two out-edges and not q3's; backward, q1
    has two out-edges, and step 3, which finds the fixpoint, applies only
    the one into q3, which changed at step 2."""
    program = pg.parse_program(
        "vars 2; sort int; nodes q1 q2 q3 q4; init q1: (0,0);\n"
        "edge q1 -> q2 : x1 := 0; edge q2 -> q2 : x1 := x1 + 1; edge q1 -> q3 : x2 := 5;\n"
        "edge q3 -> q4 : skip; edge q2 -> q4 : x2 := 5;\n"
    )
    problem = AnalysisProblem.build(program, "const", {"q4": pg.parse_init_literal("(top,5)", 2, "int")})
    applied, steps = [], []
    cell = getattr(synthesis.ConstAdapter, method)
    monkeypatch.setattr(synthesis.ConstAdapter, method, lambda self, t, a: applied.append(t) or cell(self, t, a))
    original = getattr(synthesis, step)

    def counted(problem, x, changed):
        before = len(applied)
        diff = original(problem, x, changed)
        steps.append((None if changed is None else set(changed), len(applied) - before))
        return diff

    monkeypatch.setattr(synthesis, step, counted)
    result = ALGORITHMS[alg](problem)
    assert result.found and len(steps) == result.steps + 1 == (4 if alg == "forward" else 3)
    # forward, the out-edges of a changed node lead to the nodes a step
    # recomputes, each of which a full recomputation reads through all its in-edges
    edges, full = (problem.succs, problem.preds) if alg == "forward" else (problem.preds, problem.succs)
    assert steps[0] == (None, len(program.edges) if alg == "forward" else 0)
    fewer = False
    for changed, count in steps[1:]:
        assert count == sum(len(edges[i]) for i in changed)
        recomputed = {e[1] if alg == "forward" else e[0] for i in changed for e in edges[i]}
        fewer |= count < sum(len(full[j]) for j in recomputed)
    assert fewer


@pytest.mark.parametrize("explicit", [False, True], ids=["implicit-bounds", "explicit-bounds"])
@pytest.mark.parametrize("alg", ["forward", "backward"])
def test_checks_run_only_where_a_bound_can_fail(monkeypatch, alg, explicit):
    """On a 40-node ring with a property at q40 and an initial value at q1,
    forward checks only q40: at the start and at its two changes (reached at
    step 39, widened at step 79).  Backward checks only q1: at the start and
    when the property reaches it at step 40, plus one in ``verify_invariant``:
    I ≤ safety at q40, the one node whose safety value is not top, and none
    of init ⊔ post(I) ≤ I, since one forward step from I changes no node.
    Written-out bottom inits and top properties are skipped the same way."""
    N = 40
    program, prop = ring_program(N), {f"q{N}": pg.parse_init_literal("(top,top,top,0)", 4, "int")}
    if explicit:
        program, prop = explicit_bounds(program, prop)
    problem = AnalysisProblem.build(program, "const", prop)
    calls = 0
    original = synthesis.ConstAdapter.leq

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return original(self, a, b)

    monkeypatch.setattr(synthesis.ConstAdapter, "leq", counted)
    result = ALGORITHMS[alg](problem)
    assert result.found and result.steps == (2 * N - 1 if alg == "forward" else N)
    assert calls == (1 + 2 if alg == "forward" else 1 + 1 + 1)


def failed_parts(problem: AnalysisProblem, candidate: pg.StateVector) -> tuple[bool, bool, bool]:
    """Which of init ≤ I, post(I) ≤ I and I ≤ safety fail, each by
    ``pointwise_leq`` over full vectors; post(I) joins the edge images from
    bottom and reads the edge triples directly."""
    adapter, x = problem.adapter, candidate.values
    posts = [adapter.bottom() for _ in x]
    for src, t, dst in problem.edges:
        posts[dst] = adapter.join(posts[dst], adapter.transfer(t, x[src]))
    return (
        not pointwise_leq(problem, problem.init, candidate),
        not pointwise_leq(problem, candidate.with_values(posts), candidate),
        not pointwise_leq(problem, candidate, problem.safety),
    )


@pytest.mark.parametrize("sort", ["int", "rat"])
def test_verify_invariant_is_its_definition(sort):
    """``verify_invariant``, which reads one forward diff step and checks
    only the nodes it changes and the nodes whose safety value is not top,
    holds exactly when init ≤ I, post(I) ≤ I and I ≤ safety do.  The
    candidates are the forward iterates and the least invariant, the full
    and the empty vector, and the least invariant with one node set to
    bottom or top, under no property, a property that holds and one that
    fails; each part fails alone in some of them."""
    domain = "const" if sort == "int" else "affine"
    parts = collections.Counter()
    for k in range(150):
        rng = random.Random(f"verify:{sort}:{k}")
        program = random_program(rng, sort, max_vars=3, max_nodes=8)
        free = AnalysisProblem.build(program, domain)
        trace = ainv_forward(free).trace
        least, adapter = trace[-1], free.adapter
        j = rng.randrange(len(program.nodes))
        text = adapter.render(least.values[j]).strip("{}")
        holding = {program.nodes[j]: pg.parse_init_literal(text, program.n, sort)}
        for prop in ({}, holding, failing_property(program, free, trace)):
            problem = AnalysisProblem.build(program, domain, prop)
            bottom, top = adapter.bottom(), adapter.top()
            candidates = [*trace, least.with_values([top] * len(least.values))]
            candidates.append(least.with_values([bottom] * len(least.values)))
            for i in range(len(least.values)):
                for a in (bottom, top):
                    candidates.append(least.with_values(least.values[:i] + (a,) + least.values[i + 1 :]))
            for candidate in candidates:
                failed = failed_parts(problem, candidate)
                assert verify_invariant(problem, candidate) == (not any(failed)), (k, candidate)
                parts[failed] += 1
    for alone in ((False,) * 3, (True, False, False), (False, True, False), (False, False, True)):
        assert parts[alone] >= 500, parts


@pytest.mark.parametrize("alg", ["forward", "backward"])
def test_engine_memory_does_not_grow_with_node_count_times_steps(alg):
    """A 1,280-node ring takes 2,559 forward (1,280 backward) steps that
    each change one node: a full iterate per step peaks at 27 MB (14 MB
    backward), a start vector and per-step diffs under 2 MB (1 MB)."""
    N = 1280
    prop = {f"q{N}": pg.parse_init_literal("(top,top,top,0)", 4, "int")}
    problem = AnalysisProblem.build(ring_program(N), "const", prop)
    tracemalloc.start()
    try:
        result = ALGORITHMS[alg](problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.found and result.steps == (2 * N - 1 if alg == "forward" else N)
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# Finite-instance forward gfp
# ---------------------------------------------------------------------------


def test_forward_gfp_finite_trivial_safety():
    ts = FiniteTS(3, frozenset({(0, 1)}), init=0b001, safe=0b111)
    assert run_algorithm4(ts, powerset_family(3)).found


def test_forward_gfp_finite_no_transitions():
    ts = FiniteTS(3, frozenset(), init=0b001, safe=0b011)
    result = run_algorithm4(ts, powerset_family(3))
    assert result.found  # init avoids the unsafe region outright


def test_forward_gfp_finite_agrees_with_concrete_dual_check():
    for seed in range(120):
        rng = random.Random(f"fgfp:{seed}")
        n = 3
        ts = FiniteTS(
            n,
            frozenset(
                (a, b) for a in range(n) for b in range(n) if rng.random() < 0.4
            ),
            init=rng.getrandbits(n),
            safe=rng.getrandbits(n),
        )
        got = run_algorithm4(ts, powerset_family(n)).found

        def pre(x: int) -> int:  # read from the transitions, not through ``ts.dual``
            return sum({1 << a for a, b in ts.transitions if x >> b & 1})

        dual = lfp_iterate(lambda x: (ts.full & ~ts.safe) | pre(x), 0)
        assert got == ((dual & ts.init) == 0)


def test_forward_gfp_finite_rejects_unclosed_family():
    from absinv.finite import ClosureViolation

    ts = FiniteTS(2, frozenset(), init=0b01, safe=0b11)
    fam = ClosureFamily(2, frozenset({0b11, 0b01}))  # not union-closed (no empty set)
    with pytest.raises(ClosureViolation):
        run_algorithm4(ts, fam)


# ---------------------------------------------------------------------------
# The engines on finite families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyAdapter:
    """A Moore family as an engine domain; each edge's transfer is a FiniteTS.

    ``transfer`` is mu_up ∘ post, the best abstraction of post.  ``wp`` is
    ``close`` ∘ pret: mu_down ∘ pret is exact on a union-closed family, and
    mu_up ∘ pret is sound on any family.
    """

    fam: ClosureFamily
    close: Callable[[int], int]

    def leq(self, a: int, b: int) -> bool:
        return self.fam.leq(a, b)

    def join(self, a: int, b: int) -> int:
        return self.fam.join(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.fam.meet(a, b)

    def bottom(self) -> int:
        return self.fam.bottom()

    def top(self) -> int:
        return self.fam.top()

    def height(self) -> int:
        return self.fam.size + 1

    def transfer(self, ts: FiniteTS, a: int) -> int:
        return self.fam.mu_up(ts.post(a))

    def wp(self, ts: FiniteTS, b: int) -> int:
        return self.close(ts.pret(b))


def one_node_problem(ts: FiniteTS, adapter: FamilyAdapter, safety: int) -> AnalysisProblem:
    """One node with a self-loop labelled ``ts``; init is the closure of ts.init."""
    nodes = ("s",)
    init = adapter.fam.mu_up(ts.init)
    return AnalysisProblem(
        nodes, ((0, ts, 0),), adapter, pg.StateVector(nodes, (init,)), pg.StateVector(nodes, (safety,))
    )


def masks(result) -> tuple:
    """(found, invariant, trace) of an engine result, as bit masks."""
    inv = result.invariant.values[0] if result.found else None
    return result.found, inv, tuple(v.values[0] for v in result.trace)


def test_backward_engine_is_algorithms_1_and_4_on_union_closed_families():
    verdicts = collections.Counter()
    for k in range(1500):
        ts = random_ts(f"engine-alg:{k}")
        fam = random_closure_family(f"engine-alg:{k}:L", ts.size, union_closed=True)
        adapter = FamilyAdapter(fam, fam.mu_down)
        a1 = run_algorithm1(ts, fam)
        assert masks(backward_gfp(one_node_problem(ts, adapter, fam.mu_down(ts.safe)))) == (
            a1.found, a1.invariant, a1.trace
        ), k
        flipped = ts.dual
        a4 = run_algorithm4(ts, fam)
        assert masks(backward_gfp(one_node_problem(flipped, adapter, fam.mu_down(flipped.safe)))) == (
            a4.found, a4.invariant, a4.trace
        ), k
        verdicts[a1.found, a4.found] += 1
        verdicts["long"] += len(a1.trace) >= 3 or len(a4.trace) >= 3
    assert min(verdicts[True, True], verdicts[False, False], verdicts["long"]) >= 50


@pytest.mark.parametrize("union_closed", [True, False], ids=["union-closed", "not-union-closed"])
def test_forward_engine_decides_existence_on_any_family(union_closed):
    """Corollary 9: an invariant in the family exists iff ainv_forward finds one."""
    found = 0
    for k in range(1500):
        ts = random_ts(f"engine-cor9:{k}")
        fam = random_closure_family(f"engine-cor9:{k}:L", ts.size, union_closed=union_closed)
        result = ainv_forward(one_node_problem(ts, FamilyAdapter(fam, fam.mu_up), ts.safe))
        assert result.found == (greatest_invariant_enum(ts, fam) is not None), k
        found += result.found
    assert 150 <= found <= 1350


def test_backward_verdicts_are_sound_on_families_not_union_closed():
    """With wp mu_up ∘ pret and a member as the safety set, init-not-entailed
    means no invariant exists and found means one does.  verification-failed
    claims neither, and that is a known fault: on a family that is not
    union-closed the stabilized candidate can fail re-verification although
    an invariant exists, and ``backward_gfp`` then reports none.  It happens
    at exactly these five instances; a fallback that decides existence would
    mend them."""
    outcomes, missed = collections.Counter(), set()
    for k in range(1500):
        ts = random_ts(f"engine-sound:{k}")
        fam = random_closure_family(f"engine-sound:{k}:L", ts.size, union_closed=False)
        safe = random.Random(f"engine-sound:{k}:P").choice(sorted(fam.members))
        ts = FiniteTS(ts.size, ts.transitions, ts.init, safe)
        result = backward_gfp(one_node_problem(ts, FamilyAdapter(fam, fam.mu_up), safe))
        exists = greatest_invariant_enum(ts, fam) is not None
        assert result.reason != "init-not-entailed" or not exists, k
        assert not result.found or exists, k
        outcomes[result.reason, exists] += 1
        if result.reason == "verification-failed" and exists:
            missed.add(k)
    assert min(outcomes[None, True], outcomes["init-not-entailed", False]) >= 300
    assert missed == {138, 168, 702, 1112, 1486}


def test_verify_invariant_is_its_definition_on_finite_families():
    """On one-node problems over families with and without the empty set,
    ``verify_invariant`` of each member holds exactly when init ≤ I,
    post(I) ≤ I and I ≤ safety do; each part fails alone for some member."""
    parts, empty = collections.Counter(), collections.Counter()
    for k in range(400):
        ts = random_ts(f"verify-family:{k}")
        fam = random_closure_family(f"verify-family:{k}:L", ts.size, union_closed=k % 2 == 0)
        safe = random.Random(f"verify-family:{k}:P").choice(sorted(fam.members))
        problem = one_node_problem(ts, FamilyAdapter(fam, fam.mu_up), safe)
        for member in sorted(fam.members):
            candidate = sv(problem, member)
            failed = failed_parts(problem, candidate)
            assert verify_invariant(problem, candidate) == (not any(failed)), (k, member)
            parts[failed] += 1
        empty[0 in fam.members] += 1
    assert min(empty.values()) >= 100 and len(empty) == 2
    for alone in ((False,) * 3, (True, False, False), (False, True, False), (False, False, True)):
        assert parts[alone] >= 50, parts


def test_forward_applies_the_edges_from_a_bottom_that_is_not_strict():
    """A step must not skip an edge whose source is bottom: over the family
    {0b011, 0b111}, bottom is mu_up(∅) = 0b011 and its post under 0 -> 2
    is 0b111.  From the initial value 0b011, which is bottom, forward takes
    one step, to 0b111."""
    fam = ClosureFamily(3, frozenset({0b011, 0b111}))
    ts = FiniteTS(3, frozenset({(0, 2)}), init=0b001, safe=0b111)
    adapter = FamilyAdapter(fam, fam.mu_up)
    assert adapter.bottom() == fam.mu_up(ts.init) == 0b011 and adapter.transfer(ts, 0b011) == 0b111
    result = ainv_forward(one_node_problem(ts, adapter, ts.safe))
    assert masks(result) == (True, 0b111, (0b011, 0b111)) and result.steps == 1
