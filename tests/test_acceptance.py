"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ...: PASS|FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them inline).  Criterion 7a
checks constant-domain assignments for soundness and for completeness up to
its true boundary, rows that read at most one unknown slot; beyond it the
README's counterexample shows completeness failing.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from absinv import affine as af
from absinv import const_domain as cd
from absinv import finite as fin
from absinv import programs as pg
from absinv.cli import main
from absinv.synthesis import (
    AnalysisProblem,
    ainv_forward,
    backward_gfp,
    verify_invariant,
)
from conftest import (
    PROGRAMS_DIR, chain_gi, dense_assign, random_program, rational_view, solve_square_system, three_chain_f,
)

F = Fraction
TOP = cd.TOP
CONST_PROG = str(PROGRAMS_DIR / "const_demo.prog")
AFFINE_PROG = str(PROGRAMS_DIR / "affine_demo.prog")


def _report(ident: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail and not ok else ""
    print(f"ACCEPTANCE {ident} ({label}): {status}{suffix}")
    assert ok, f"criterion {ident} failed{suffix}"


def _const_problem(const_demo):
    return AnalysisProblem.build(
        const_demo, "const", {"q2": pg.InitVector((pg.TOP, 2))}
    )


def _affine_problem(affine_demo):
    prop_row = pg.LinExpr((F(1), F(1), F(0)), F(1))  # x1 + x2 + 1 = 0
    return AnalysisProblem.build(
        affine_demo, "affine", {"q4": pg.InitConstraints((prop_row,))}
    )


# ---------------------------------------------------------------------------


def test_criterion_1_forward_const_trace(const_demo, capsys):
    expected = [
        ("(top,top)", "bot", "bot", "bot"),
        ("(top,top)", "(0,2)", "bot", "bot"),
        ("(top,top)", "(0,2)", "(4,1)", "bot"),
        ("(top,top)", "(top,2)", "(4,1)", "bot"),
        ("(top,top)", "(top,2)", "(top,1)", "(top,2)"),
    ]
    problem = _const_problem(const_demo)
    t0 = time.perf_counter()
    result = ainv_forward(problem)
    elapsed = time.perf_counter() - t0
    rendered = [tuple(cd.render_const(x) for x in v.values) for v in result.trace]
    ok = (
        result.found
        and result.kind == "least"
        and rendered == expected
        and len(result.trace) == 5
        and elapsed < 0.1
    )
    # the CLI surface must show the same five iterates verbatim
    code = main(
        ["analyze", "--program", CONST_PROG, "--domain", "const", "--alg", "forward",
         "--prop", "q2: (top,2)", "--trace"]
    )
    out = capsys.readouterr().out.splitlines()
    ok = ok and code == 0 and out[:5] == [
        "0: q1=(top,top) q2=bot q3=bot q4=bot",
        "1: q1=(top,top) q2=(0,2) q3=bot q4=bot",
        "2: q1=(top,top) q2=(0,2) q3=(4,1) q4=bot",
        "3: q1=(top,top) q2=(top,2) q3=(4,1) q4=bot",
        "4: q1=(top,top) q2=(top,2) q3=(top,1) q4=(top,2)",
    ]
    _report("1", "forward constant-domain trace", ok, f"elapsed={elapsed:.3f}s")


def test_criterion_2_forward_affine_trace(affine_demo):
    problem = _affine_problem(affine_demo)
    t0 = time.perf_counter()
    result = ainv_forward(problem)
    elapsed = time.perf_counter() - t0
    line = af.from_equalities(
        [pg.LinExpr((F(1), F(2), F(0)), F(0)), pg.LinExpr((F(0), F(0), F(1)), F(-1))], 3
    )
    start_point = af.AffSubspace.point_of((-2, 1, 1))
    printed_weaker = af.from_equalities(
        [pg.LinExpr((F(1), F(1), F(0)), F(1)), pg.LinExpr((F(0), F(0), F(1)), F(-1))], 3
    )
    trace_ok = (
        len(result.trace) == 4
        and result.trace[0].values
        == (af.AffSubspace.full(3),) + (af.AffSubspace.empty(3),) * 3
        and result.trace[1]["q2"] == start_point
        and result.trace[2]["q3"] == line
        and result.invariant["q2"] == line
        and result.invariant["q3"] == line
    )
    # the exit node: exact value is the solution point of the guard system,
    # cross-checked by an independent dense solver, and it entails the
    # weaker two-constraint form
    solver_point = solve_square_system(
        [
            ([F(1), F(2), F(0)], F(0)),
            ([F(0), F(0), F(1)], F(-1)),
            ([F(1), F(0), F(2)], F(0)),
        ],
        3,
    )
    q4_ok = (
        result.invariant["q4"] == start_point
        and solver_point is not None
        and result.invariant["q4"] == af.AffSubspace.point_of(solver_point)
        and af.includes(printed_weaker, result.invariant["q4"])
    )
    exact_ok = all(
        isinstance(c, F)
        for v in result.trace
        for x in v.values
        if not x.is_empty
        for c in rational_view(x)[0]  # asserts int entries
    )
    ok = result.found and trace_ok and q4_ok and exact_ok and elapsed < 0.1
    _report("2", "forward affine-domain trace", ok, f"elapsed={elapsed:.3f}s")


def test_criterion_3_backward_const_trace(const_demo):
    expected = [
        ("(top,top)", "(top,top)", "(top,top)", "(top,top)"),
        ("(top,top)", "(top,2)", "(top,top)", "(top,top)"),
        ("(top,top)", "(top,2)", "(top,1)", "(top,top)"),
    ]
    problem = _const_problem(const_demo)
    t0 = time.perf_counter()
    result = backward_gfp(problem)
    elapsed = time.perf_counter() - t0
    rendered = [tuple(cd.render_const(x) for x in v.values) for v in result.trace]
    forward = ainv_forward(problem).invariant
    ok = (
        result.found
        and result.kind == "greatest"
        and rendered == expected
        and verify_invariant(problem, result.invariant)
        and problem.leq(forward, result.invariant)
        and forward != result.invariant
        and elapsed < 0.1
    )
    _report("3", "backward constant-domain trace", ok, f"elapsed={elapsed:.3f}s")


def test_criterion_4_micro_examples(four_chain_gi):
    gi, f = four_chain_gi
    abs_lfp = fin.lfp_table(gi.A, gi.bca(f))
    chain_ok = abs_lfp == 0b0011  # value 2
    # property "3" has an abstract inductive proof, "1" does not
    provable = gi.C.leq(abs_lfp, 0b0111) and fin.check_lemma1(gi, f, (0b0111,))
    witness_exists = any(gi.C.leq(f[a], a) and gi.C.leq(a, 0b0111) for a in gi.A.members)
    unprovable = (not gi.C.leq(abs_lfp, 0b0001)) and fin.check_lemma1(gi, f, (0b0001,))
    no_witness = not any(gi.C.leq(f[a], a) and gi.C.leq(a, 0b0001) for a in gi.A.members)
    g = three_chain_f()
    incomplete = fin.check_fixpoint_completeness_char(chain_gi(3, 2, 3), g)
    complete = fin.check_fixpoint_completeness_char(chain_gi(3, 1, 3), g)
    ok = (
        chain_ok
        and provable
        and witness_exists
        and unprovable
        and no_witness
        and incomplete["consistent"]
        and not incomplete["plain"]
        and not incomplete["single_witness"]
        and complete["consistent"]
        and complete["plain"]
    )
    _report("4", "chain micro-examples", ok)


def test_criterion_5_completeness_witnesses():
    x_pts = [(1, 0), (-1, 0)]
    guard = pg.Guard((pg.LinExpr((1, 0), 0),), "=", "conj")
    const_direct = cd.alpha_points(pg.apply_transfer_concrete(guard, x_pts), 2)
    const_via_domain = cd.bca_eq_guard(pg.LinExpr((1, 0), 0), cd.alpha_points(x_pts, 2))
    const_ok = const_direct == cd.ConstVec.bottom(2) and const_via_domain == cd.ConstVec(2, (0, 0))

    q_pts = [(F(1), F(0)), (F(-1), F(0))]
    aff_guard = pg.Guard((pg.LinExpr((F(1), F(0)), F(0)),), "=", "conj")
    aff_direct = af.hull_points(pg.apply_transfer_concrete(aff_guard, q_pts), 2)
    aff_via_domain = af.meet_hyperplane(af.hull_points(q_pts, 2), aff_guard.cleared[0])
    aff_ok = aff_direct.is_empty and aff_via_domain == af.AffSubspace.point_of((0, 0))
    _report("5", "guard incompleteness witnesses", const_ok and aff_ok)


def test_criterion_6_oracle_suites(capsys):
    t0 = time.perf_counter()
    code = main(["oracle", "--suite", "all", "--seed", "0", "--trials", "500"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    reports = fin.run_suites("all", seed=0, trials=0)  # names only
    names = {r["name"] for r in reports}
    ok = (
        code == 0
        and "total failures: 0" in out
        and names
        == {"lemma1", "completeness", "lemma6", "algorithms", "corollary9", "adjunctions"}
        and elapsed < 60.0
    )
    _report("6", "oracle suites, 500 trials", ok, f"elapsed={elapsed:.1f}s")


def test_criterion_7a_const_assignment_completeness():
    """Constant-domain assignments: sound everywhere, complete up to the boundary.

    With a = alpha(X), lhs = alpha(t(X)) and rhs = bca(a), every trial checks:

    - soundness: lhs <= rhs, and both are bot when X is empty;
    - completeness wherever it is possible: on each row that reads at most one
      slot that is top in a (counting only nonzero coefficients), the two
      sides agree on that row's slot;
    - best from the abstraction: each row that reads a top slot of a is top
      in rhs.

    Beyond the boundary completeness cannot hold for any function of a:
    {(0,0),(1,-1)} and {(0,0),(1,1)} both abstract to (top,top), but
    x1 := x1 + x2 maps them to (0,top) and (top,top).  The README witness is
    checked after the loop.
    """
    rng = random.Random("acceptance-7a")
    errors = []
    differ = 0
    for k in range(500):
        n = rng.randint(1, 4)
        pts = frozenset(
            tuple(rng.randint(-10, 10) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        )
        rows = tuple(
            pg.LinExpr(
                tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3)
            )
            for _ in range(n)
        )
        t = dense_assign(rows)
        a = cd.alpha_points(pts, n)
        lhs = cd.alpha_points(pg.apply_transfer_concrete(t, pts), n)
        rhs = cd.bca_parallel_assign(t, a)
        where = f"trial {k}: X={sorted(pts)}, rows={[str(r) for r in rows]}"
        differ += lhs != rhs
        if not cd.leq(lhs, rhs):
            errors.append(f"unsound at {where}: alpha(t(X))={lhs}, bca(alpha(X))={rhs}")
        if not pts and not (lhs.is_bottom and rhs.is_bottom):
            errors.append(f"empty X not bot at {where}")
        if a.is_bottom:
            continue
        for i, row in enumerate(rows):
            tops = sum(1 for m, s in zip(row.coeffs, a.comps) if m != 0 and s is TOP)
            if tops <= 1 and lhs.comps[i] != rhs.comps[i]:
                errors.append(
                    f"incomplete on row {i + 1} with {tops} top slot(s) at {where}: "
                    f"alpha(t(X))={lhs}, bca(alpha(X))={rhs}"
                )
            if tops >= 1 and rhs.comps[i] is not TOP:
                errors.append(f"row {i + 1} reads a top slot but is {rhs} at {where}")

    x = frozenset({(0, 0), (1, -1)})
    t = dense_assign((pg.LinExpr((1, 1), 0), pg.LinExpr((0, 1), 0)))
    via_concrete = cd.alpha_points(pg.apply_transfer_concrete(t, x), 2)
    via_abstraction = cd.bca_parallel_assign(t, cd.alpha_points(x, 2))
    if (via_concrete, via_abstraction) != (cd.ConstVec(2, (0, TOP)), cd.ConstVec(2, (TOP, TOP))):
        errors.append(f"witness gives {via_concrete} and {via_abstraction}")

    detail = f"{len(errors)} error(s); first: {errors[0]}" if errors else ""
    label = f"const assignment soundness and completeness boundary; {differ}/500 trials differ"
    if not errors:
        label += ", all on rows reading two or more top slots"
    _report("7a", label, not errors, detail)


def test_criterion_7b_affine_assignment_completeness():
    rng = random.Random("acceptance-7b")
    ok = True
    for _ in range(500):
        n = rng.randint(1, 4)
        pts = [
            tuple(F(rng.randint(-10, 10)) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        ]
        rows = tuple(
            pg.LinExpr(
                tuple(F(rng.randint(-3, 3)) for _ in range(n)), F(rng.randint(-3, 3))
            )
            for _ in range(n)
        )
        t = dense_assign(rows)
        image = pg.apply_transfer_concrete(t, pts)
        ok = ok and af.hull_points(image, n) == af.bca_parallel_assign(t, af.hull_points(pts, n))
        j = rng.randint(1, n)
        nd_image = pg.apply_transfer_concrete(
            pg.NondetAssign(j), pts, nondet_witnesses=(F(0), F(1))
        )
        nd_hull = af.hull_points(nd_image, n)
        ok = ok and nd_hull == af.bca_nondet_assign(j, af.hull_points(pts, n))
        extra = pg.apply_transfer_concrete(
            pg.NondetAssign(j), pts, nondet_witnesses=(F(0), F(1), F(2), F(5))
        )
        ok = ok and af.hull_points(extra, n) == nd_hull
    _report("7b", "affine assignment/nondet pointwise completeness", ok)


def test_criterion_8_termination_bounds():
    ok = True
    for seed in range(200):
        rng = random.Random(f"acceptance-8-const:{seed}")
        prog = random_program(rng, "int")
        result = ainv_forward(AnalysisProblem.build(prog, "const"))
        ok = ok and result.found and len(result.trace) <= (prog.n + 1) * len(prog.nodes) + 1
    for seed in range(200):
        rng = random.Random(f"acceptance-8-affine:{seed}")
        prog = random_program(rng, "rat")
        result = ainv_forward(AnalysisProblem.build(prog, "affine"))
        ok = ok and result.found and len(result.trace) <= (prog.n + 1) * len(prog.nodes) + 1
    _report("8", "iteration height bounds on 400 seeded programs", ok)
