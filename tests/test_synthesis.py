"""Synthesis engines: forward lfp, backward gfp, verification, bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from absinv import affine as af
from absinv import const_domain as cd
from absinv import programs as pg
from absinv.finite import ClosureFamily, FiniteTS, powerset_family, run_algorithm4
from absinv.lattice import lfp_iterate
from absinv.synthesis import (
    AnalysisProblem,
    UnsupportedDomain,
    abstract_post_step,
    abstract_pret_step,
    ainv_forward,
    backward_gfp,
    synthesize,
    verify_invariant,
)
from conftest import random_program

TOP = cd.TOP
F = Fraction


def cvec(*slots) -> cd.ConstVec:
    return cd.ConstVec.of(*slots)


def sv(problem: AnalysisProblem, *values) -> pg.StateVector:
    return pg.StateVector(problem.program.nodes, values)


@pytest.fixture()
def const_problem(const_demo) -> AnalysisProblem:
    prop = {"q2": pg.InitVector((pg.TOP_ENTRY, 2))}
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
    assert j1 == sv(const_problem, cvec(TOP, TOP), cvec(0, 2), cd.ConstVec.bottom(2), cd.ConstVec.bottom(2))
    j3 = sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(4, 1), cd.ConstVec.bottom(2))
    j4 = abstract_post_step(const_problem, j3)
    assert j4 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, 1), cvec(TOP, 2))


def test_forward_step_on_all_bottom_stays_bottom(const_demo):
    prog = pg.Program(const_demo.nodes, 2, "int", const_demo.edges, {})
    problem = AnalysisProblem.build(prog, "const")
    bot_vec = pg.StateVector.uniform(prog.nodes, cd.ConstVec.bottom(2))
    assert abstract_post_step(problem, bot_vec) == bot_vec


def test_forward_const_not_found_at_step_three(const_demo):
    prop = {"q2": pg.InitVector((0, pg.TOP_ENTRY))}
    problem = AnalysisProblem.build(const_demo, "const", prop)
    result = ainv_forward(problem)
    assert not result.found
    assert result.reason == "property-violated"
    assert result.step == 3
    assert result.violating["q2"] == cvec(TOP, 2)


def test_forward_found_is_least_among_sampled_invariants(const_problem):
    result = ainv_forward(const_problem)
    rng = random.Random(4)
    dom = const_problem.adapter.domain
    hits = 0
    for _ in range(400):
        candidate = sv(
            const_problem,
            *[
                cd.ConstVec(2, (rng.choice([TOP, 0, 2, 3, 4]), rng.choice([TOP, 1, 2])))
                for _ in range(4)
            ],
        )
        if verify_invariant(const_problem, candidate):
            hits += 1
            assert const_problem.leq(result.invariant, candidate)
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
    assert const_problem.leq(fwd, bwd)
    assert fwd != bwd


def test_backward_pret_single_steps(const_problem):
    i0 = pg.StateVector.uniform(const_problem.program.nodes, cvec(TOP, TOP))
    i1 = abstract_pret_step(const_problem, i0)
    assert i1 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, TOP), cvec(TOP, TOP))
    i2 = abstract_pret_step(const_problem, i1)
    assert i2 == sv(const_problem, cvec(TOP, TOP), cvec(TOP, 2), cvec(TOP, 1), cvec(TOP, TOP))
    assert abstract_pret_step(const_problem, i2) == i2


def test_backward_pret_on_all_bottom(const_problem):
    bot_vec = pg.StateVector.uniform(const_problem.program.nodes, cd.ConstVec.bottom(2))
    assert abstract_pret_step(const_problem, bot_vec) == bot_vec


def test_backward_not_found_when_init_node_demands_bottom(const_demo):
    prop = {"q1": pg.InitPoints(frozenset())}  # bottom at the initial node
    problem = AnalysisProblem.build(const_demo, "const", prop)
    result = backward_gfp(problem)
    assert not result.found
    assert result.reason == "init-not-entailed"
    assert result.step == 1


def test_backward_greater_than_sampled_invariants(const_problem):
    result = backward_gfp(const_problem)
    rng = random.Random(9)
    for _ in range(400):
        candidate = sv(
            const_problem,
            *[
                cd.ConstVec(2, (rng.choice([TOP, 0, 3]), rng.choice([TOP, 1, 2])))
                for _ in range(4)
            ],
        )
        if verify_invariant(const_problem, candidate):
            assert const_problem.leq(candidate, result.invariant)


def test_backward_rejected_for_affine(affine_problem):
    with pytest.raises(UnsupportedDomain):
        synthesize(affine_problem, "backward")
    with pytest.raises(UnsupportedDomain):
        backward_gfp(affine_problem)
    no_edges = pg.parse_program("vars 1; sort rat; nodes q1; init q1: top;")
    with pytest.raises(UnsupportedDomain):
        backward_gfp(AnalysisProblem.build(no_edges, "affine"))


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
                assert all(isinstance(c, F) for c in x.point)
                assert all(isinstance(c, F) for b in x.basis for c in b)


# ---------------------------------------------------------------------------
# Trace shape and termination bounds
# ---------------------------------------------------------------------------


def test_traces_are_strict_chains(const_problem):
    fwd = ainv_forward(const_problem)
    for lo, hi in zip(fwd.trace, fwd.trace[1:]):
        assert const_problem.leq(lo, hi) and lo != hi
    bwd = backward_gfp(const_problem)
    for hi, lo in zip(bwd.trace, bwd.trace[1:]):
        assert const_problem.leq(lo, hi) and lo != hi


def test_random_const_programs_respect_height_bound():
    for seed in range(200):
        rng = random.Random(f"termination-const:{seed}")
        prog = random_program(rng, "int")
        problem = AnalysisProblem.build(prog, "const")
        result = ainv_forward(problem)
        assert result.found  # safety defaults to top
        assert len(result.trace) <= 2 * prog.n * len(prog.nodes) + 1


def test_random_affine_programs_respect_height_bound():
    for seed in range(200):
        rng = random.Random(f"termination-affine:{seed}")
        prog = random_program(rng, "rat")
        problem = AnalysisProblem.build(prog, "affine")
        result = ainv_forward(problem)
        assert result.found
        assert len(result.trace) <= (prog.n + 1) * len(prog.nodes) + 1


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
        dual = lfp_iterate(lambda x: (ts.full & ~ts.safe) | ts.pre(x), 0)
        assert got == ((dual & ts.init) == 0)


def test_forward_gfp_finite_rejects_unclosed_family():
    from absinv.finite import ClosureViolation

    ts = FiniteTS(2, frozenset(), init=0b01, safe=0b11)
    fam = ClosureFamily(2, frozenset({0b11, 0b01}))  # not union-closed (no empty set)
    with pytest.raises(ClosureViolation):
        run_algorithm4(ts, fam)
