"""Constant domain: lattice laws, abstraction, and transfer approximations.

The independent oracle throughout is the collecting semantics on bounded
integer boxes: apply the concrete transfer to every point of the (boxed)
concretization and abstract the image with alpha.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from absinv import const_domain as cd
from absinv import programs as pg
from conftest import gamma_box, random_const_vec, random_linexpr_int

TOP = cd.TOP


def vec(*slots) -> cd.ConstVec:
    return cd.ConstVec.of(*slots)


slot_st = st.one_of(st.integers(-5, 5), st.just(TOP))
vec_st = st.one_of(
    st.builds(lambda s: cd.ConstVec(2, tuple(s)), st.tuples(slot_st, slot_st)),
    st.just(cd.ConstVec.bottom(2)),
)


# ---------------------------------------------------------------------------
# Lattice laws
# ---------------------------------------------------------------------------


@given(vec_st, vec_st)
def test_join_meet_bound_laws(a, b):
    assert cd.leq(a, cd.join(a, b))
    assert cd.leq(b, cd.join(a, b))
    assert cd.leq(cd.meet(a, b), a)
    assert cd.leq(cd.meet(a, b), b)
    assert cd.join(a, b) == cd.join(b, a)
    assert cd.meet(a, b) == cd.meet(b, a)
    assert cd.join(a, a) == a and cd.meet(a, a) == a


@given(vec_st, vec_st, vec_st)
def test_join_associative_and_lub(a, b, c):
    assert cd.join(cd.join(a, b), c) == cd.join(a, cd.join(b, c))
    if cd.leq(a, c) and cd.leq(b, c):
        assert cd.leq(cd.join(a, b), c)


@given(vec_st, vec_st)
def test_leq_antisymmetric_on_canonical_forms(a, b):
    if cd.leq(a, b) and cd.leq(b, a):
        assert a == b


@given(vec_st)
def test_bounds(a):
    dom = cd.ConstDomain(2)
    assert cd.leq(dom.bottom(), a) and cd.leq(a, dom.top())


def test_height_and_chain_length():
    dom = cd.ConstDomain(3)
    assert dom.height() == 6
    chain = [
        cd.ConstVec.bottom(3),
        vec(1, 1, 1),
        vec(TOP, 1, 1),
        vec(TOP, TOP, 1),
        vec(TOP, TOP, TOP),
    ]
    for lo, hi in zip(chain, chain[1:]):
        assert cd.leq(lo, hi) and lo != hi
    assert len(chain) <= dom.height() + 1


# ---------------------------------------------------------------------------
# Abstraction and the adjunction law
# ---------------------------------------------------------------------------


def test_alpha_points_examples():
    assert cd.alpha_points([], 2) == cd.ConstVec.bottom(2)
    assert cd.alpha_points([(1, 0), (-1, 0)], 2) == vec(TOP, 0)
    assert cd.alpha_points([(4, 1)], 2) == vec(4, 1)


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=5), vec_st)
def test_alpha_gamma_adjunction_on_finite_sets(points, a):
    x = frozenset(points)
    lhs = cd.leq(cd.alpha_points(x, 2), a)
    rhs = all(cd.gamma_contains(a, p) for p in x)
    assert lhs == rhs


def test_alpha_of_boxed_gamma_is_identity():
    rng = random.Random(3)
    for _ in range(80):
        a = random_const_vec(rng, rng.randint(1, 3))
        assert cd.alpha_points(gamma_box(a, 6), a.n) == a


# ---------------------------------------------------------------------------
# Abstract expression evaluation
# ---------------------------------------------------------------------------


def test_eval_linexpr_examples():
    e = pg.LinExpr((1, 2), 0)  # x1 + 2 x2
    assert cd.eval_linexpr_abstract(e, vec(0, 2)) == 4
    assert cd.eval_linexpr_abstract(e, vec(TOP, 2)) is TOP
    assert cd.eval_linexpr_abstract(e, cd.ConstVec.bottom(2)) is None


def test_eval_ignores_zero_coefficient_tops():
    e = pg.LinExpr((0, 3), 1)
    assert cd.eval_linexpr_abstract(e, vec(TOP, 2)) == 7


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


def test_bca_assign_examples():
    e = pg.LinExpr((1, 2), 0)
    assert cd.bca_assign(1, e, vec(0, 2)) == vec(4, 2)
    const2 = pg.LinExpr((0, 0), 2)
    assert cd.bca_assign(2, const2, vec(TOP, TOP)) == vec(TOP, 2)
    assert cd.bca_assign(1, e, cd.ConstVec.bottom(2)) == cd.ConstVec.bottom(2)


def test_bca_parallel_assign_examples():
    rows = (pg.LinExpr((1, 2), 0), pg.LinExpr((0, 1), -1))
    assert cd.bca_parallel_assign(rows, vec(0, 2)) == vec(4, 1)
    rows2 = (pg.LinExpr((1, -1), 0), pg.LinExpr((0, 1), 1))
    assert cd.bca_parallel_assign(rows2, vec(4, 1)) == vec(3, 2)
    ident = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), 0))
    assert cd.bca_parallel_assign(ident, vec(TOP, 7)) == vec(TOP, 7)


def test_assignments_sound_on_finite_sets():
    """alpha(t(X)) entails bca(alpha(X)) for every finite X (pointwise soundness)."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = frozenset(
            tuple(rng.randint(-10, 10) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        )
        rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
        t = pg.ParallelAffineAssign(rows)
        image = pg.apply_transfer_concrete(t, pts)
        assert cd.leq(
            cd.alpha_points(image, n),
            cd.bca_parallel_assign(rows, cd.alpha_points(pts, n)),
        )


def test_assignments_complete_for_single_variable_rows():
    """Rows reading at most one variable lose nothing: the two routes coincide.

    This is the sharp boundary of assignment completeness in this domain;
    expressions over two or more slots can collapse on correlated sets (see
    the witness test below), single-variable ones cannot.
    """
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = frozenset(
            tuple(rng.randint(-10, 10) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        )
        rows = []
        for _ in range(n):
            coeffs = [0] * n
            if rng.random() < 0.8:
                coeffs[rng.randrange(n)] = rng.choice([-3, -2, -1, 1, 2, 3])
            rows.append(pg.LinExpr(tuple(coeffs), rng.randint(-3, 3)))
        t = pg.ParallelAffineAssign(tuple(rows))
        image = pg.apply_transfer_concrete(t, pts)
        assert cd.alpha_points(image, n) == cd.bca_parallel_assign(
            t.rows, cd.alpha_points(pts, n)
        )


def test_assignments_complete_on_trivial_sets():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = frozenset(
            [tuple(rng.randint(-10, 10) for _ in range(n))][: rng.randint(0, 1)]
        )
        rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
        image = pg.apply_transfer_concrete(pg.ParallelAffineAssign(rows), pts)
        assert cd.alpha_points(image, n) == cd.bca_parallel_assign(
            rows, cd.alpha_points(pts, n)
        )


def test_assignment_incompleteness_witness_on_correlated_set():
    """Multi-variable rows are not pointwise complete: correlated slots collapse.

    The expression x1 + x2 is constantly 0 on {(0,0), (1,-1)} although both
    coordinates are unknown after abstraction, so going through the domain
    first discards the correlation.
    """
    x = frozenset({(0, 0), (1, -1)})
    t = pg.ParallelAffineAssign((pg.LinExpr((1, 1), 0), pg.LinExpr((0, 1), 0)))
    through_concrete = cd.alpha_points(pg.apply_transfer_concrete(t, x), 2)
    through_abstraction = cd.bca_parallel_assign(t.rows, cd.alpha_points(x, 2))
    assert through_concrete == vec(0, TOP)
    assert through_abstraction == vec(TOP, TOP)
    assert cd.leq(through_concrete, through_abstraction)
    assert through_concrete != through_abstraction


def test_nondet_assign_sets_slot_to_top():
    assert cd.bca_nondet_assign(1, vec(5, 7)) == vec(TOP, 7)
    assert cd.bca_nondet_assign(2, cd.ConstVec.bottom(2)) == cd.ConstVec.bottom(2)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def test_bca_rel_guard_examples():
    e = pg.LinExpr((1, 0), -9)  # x1 - 9
    assert cd.bca_rel_guard(e, ">=", vec(0, 2)) == cd.ConstVec.bottom(2)
    assert cd.bca_rel_guard(e, ">=", vec(TOP, 2)) == vec(TOP, 2)
    assert cd.bca_rel_guard(e, "<", cd.ConstVec.bottom(2)) == cd.ConstVec.bottom(2)


def test_bca_eq_guard_examples():
    x1 = pg.LinExpr((1, 0), 0)
    assert cd.bca_eq_guard(x1, vec(TOP, 0)) == vec(0, 0)
    x1_plus_1 = pg.LinExpr((1, 0), 1)
    assert cd.bca_eq_guard(x1_plus_1, vec(5, TOP)) == cd.ConstVec.bottom(2)
    two_x1_plus_1 = pg.LinExpr((2, 0), 1)
    assert cd.bca_eq_guard(two_x1_plus_1, vec(TOP, TOP)) == cd.ConstVec.bottom(2)


def test_bca_eq_guard_divides_single_unknown():
    # 3 x1 - 12 = 0 pins x1 to 4; 3 x1 - 10 = 0 has no integer solution
    assert cd.bca_eq_guard(pg.LinExpr((3, 0), -12), vec(TOP, 9)) == vec(4, 9)
    assert cd.bca_eq_guard(pg.LinExpr((3, 0), -10), vec(TOP, 9)) == cd.ConstVec.bottom(2)


def test_bca_eq_guard_gcd_on_several_unknowns():
    # 2 x1 + 4 x2 + 1 = 0 unsolvable over the integers; +2 solvable
    assert cd.bca_eq_guard(pg.LinExpr((2, 4), 1), vec(TOP, TOP)) == cd.ConstVec.bottom(2)
    assert cd.bca_eq_guard(pg.LinExpr((2, 4), 2), vec(TOP, TOP)) == vec(TOP, TOP)


def test_eq_guard_matches_box_oracle_on_single_unknown():
    """The refined slot must agree with the exact image abstraction.

    This pins the sound reading of the single-unknown case: the slot takes
    the solution of  m_j x_j + k = 0, not the residual constant itself.
    The box only needs to range over the one unknown slot; 100 safely covers
    every reachable solution for the generated coefficient sizes.
    """
    rng = random.Random(23)
    bound = 100
    for _ in range(300):
        n = rng.randint(1, 3)
        j = rng.randrange(n)
        slots = [rng.randint(-4, 4) for _ in range(n)]
        slots[j] = TOP
        a = cd.ConstVec(n, tuple(slots))
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        coeffs[j] = rng.choice([-3, -2, -1, 1, 2, 3])
        e = pg.LinExpr(tuple(coeffs), rng.randint(-3, 3))
        expected = cd.alpha_points(
            pg.apply_transfer_concrete(pg.EqGuard((e,), "conj"), gamma_box(a, bound)),
            n,
        )
        assert expected == cd.bca_eq_guard(e, a)


def test_guards_sound_on_box_samples():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = random_const_vec(rng, n, lo=-3, hi=3)
        pts = gamma_box(a, 4)
        sample = frozenset(rng.sample(pts, min(len(pts), 8))) if pts else frozenset()
        e = random_linexpr_int(rng, n)
        rel = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        t = pg.EqGuard((e,), "conj") if rel == "=" else pg.RelGuard((e,), rel, "conj")
        image = pg.apply_transfer_concrete(t, sample)
        out = (
            cd.bca_eq_guard(e, a) if rel == "=" else cd.bca_rel_guard(e, rel, a)
        )
        assert cd.leq(cd.alpha_points(image, n), out)


def test_transfers_exact_on_singleton_concretizations():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = cd.ConstVec(n, tuple(rng.randint(-4, 4) for _ in range(n)))
        choice = rng.random()
        if choice < 0.4:
            rows = tuple(random_linexpr_int(rng, n) for _ in range(n))
            t: pg.TransferFunction = pg.ParallelAffineAssign(rows)
            out = cd.bca_parallel_assign(rows, a)
        elif choice < 0.7:
            e = random_linexpr_int(rng, n)
            t = pg.EqGuard((e,), "conj")
            out = cd.bca_eq_guard(e, a)
        else:
            e = random_linexpr_int(rng, n)
            rel = rng.choice(["!=", "<", "<=", ">", ">="])
            t = pg.RelGuard((e,), rel, "conj")
            out = cd.bca_rel_guard(e, rel, a)
        exact = cd.alpha_points(pg.apply_transfer_concrete(t, gamma_box(a, 40)), n)
        assert exact == out


def test_multi_row_guard_modes():
    rows = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), -2))  # x1 = 0, x2 = 2
    a = vec(TOP, TOP)
    assert cd.bca_guard(rows, "=", "conj", a) == vec(0, 2)
    # disjunction: join of the two refinements collapses refined slots
    assert cd.bca_guard(rows, "=", "disj", a) == vec(TOP, TOP)
    dead = (pg.LinExpr((0, 0), 1), pg.LinExpr((0, 0), 2))
    assert cd.bca_guard(dead, "=", "disj", a) == cd.ConstVec.bottom(2)


def test_conjunctive_guard_is_sound_but_not_best():
    """Rows are applied one at a time, so what they imply together is lost."""
    rows = (pg.LinExpr((1, 1), 0), pg.LinExpr((1, -1), 0))  # x1 + x2 = 0, x1 - x2 = 0
    image = pg.apply_transfer_concrete(pg.EqGuard(rows, "conj"), gamma_box(vec(TOP, TOP), 4))
    assert cd.alpha_points(image, 2) == vec(0, 0)  # the best answer
    assert cd.bca_guard(rows, "=", "conj", vec(TOP, TOP)) == vec(TOP, TOP)


def test_guard_incompleteness_witness():
    """Equality guards are not pointwise complete: the two routes differ."""
    x = frozenset({(1, 0), (-1, 0)})
    guard = pg.EqGuard((pg.LinExpr((1, 0), 0),), "conj")
    through_concrete = cd.alpha_points(pg.apply_transfer_concrete(guard, x), 2)
    assert through_concrete == cd.ConstVec.bottom(2)
    through_abstraction = cd.bca_eq_guard(pg.LinExpr((1, 0), 0), cd.alpha_points(x, 2))
    assert through_abstraction == vec(0, 0)
    assert through_concrete != through_abstraction


def test_render():
    assert cd.render_const(cd.ConstVec.bottom(2)) == "bot"
    assert cd.render_const(vec(TOP, 2)) == "(top,2)"
