"""Affine-equalities domain: canonical forms, lattice laws, exact transfers."""

from __future__ import annotations

import random
from fractions import Fraction

from absinv import affine as af
from absinv import programs as pg
from conftest import (
    frac_point,
    random_affine_rows,
    random_rat_points,
    solve_square_system,
    subspace_samples,
)

F = Fraction


def expr(coeffs, const) -> pg.LinExpr:
    return pg.LinExpr(tuple(F(c) for c in coeffs), F(const))


def line_x1_plus_2x2_x3_is_1() -> af.AffSubspace:
    """{x | x1 + 2 x2 = 0 and x3 = 1}."""
    return af.from_equalities([expr((1, 2, 0), 0), expr((0, 0, 1), -1)], 3)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_form_is_representation_independent():
    a = af.AffSubspace(2, frac_point(1, 1), (frac_point(2, 2),))
    b = af.AffSubspace(2, frac_point(3, 3), (frac_point(-1, -1),))
    assert a == b
    assert a.basis == (frac_point(1, 1),)
    assert a.point == frac_point(0, 0)  # reduced on the pivot column


def test_dependent_generators_are_reduced():
    a = af.AffSubspace(
        3,
        frac_point(0, 0, 1),
        (frac_point(-2, 1, 0), frac_point(-4, 2, 0), frac_point(2, -1, 0)),
    )
    assert a.dim == 1
    assert a == line_x1_plus_2x2_x3_is_1()


def test_dim_values():
    assert af.AffSubspace.empty(3).dim == -1
    assert af.AffSubspace.point_of((1, 2, 3)).dim == 0
    assert af.AffSubspace.full(3).dim == 3


# ---------------------------------------------------------------------------
# Inclusion and join
# ---------------------------------------------------------------------------


def test_includes_examples():
    line = line_x1_plus_2x2_x3_is_1()
    point = af.AffSubspace.point_of((-2, 1, 1))
    assert af.includes(line, af.AffSubspace.empty(3))
    assert af.includes(line, point)
    assert not af.includes(point, line)


def test_join_examples():
    line = line_x1_plus_2x2_x3_is_1()
    assert af.join(line, af.AffSubspace.empty(3)) == line
    two_points = af.join(
        af.AffSubspace.point_of((0, 0)), af.AffSubspace.point_of((2, 2))
    )
    assert two_points == af.AffSubspace(2, frac_point(0, 0), (frac_point(1, 1),))
    assert af.join(af.AffSubspace.point_of((-2, 1, 1)), line) == line


def test_join_is_least_upper_bound():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 3)), n)
        b = af.hull_points(random_rat_points(rng, n, rng.randint(0, 3)), n)
        j = af.join(a, b)
        assert af.includes(j, a) and af.includes(j, b)
        u = af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
        if af.includes(u, a) and af.includes(u, b):
            assert af.includes(u, j)


def test_strict_inclusion_increases_dimension():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
        b = af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
        if af.includes(b, a) and a != b:
            assert a.dim < b.dim
    # chain length is therefore bounded by n + 2 elements
    assert af.AffDomain(4).height() == 5


# ---------------------------------------------------------------------------
# Meets
# ---------------------------------------------------------------------------


def test_meet_hyperplane_examples():
    line = line_x1_plus_2x2_x3_is_1()
    point = af.meet_hyperplane(line, expr((1, 0, 2), 0))  # x1 + 2 x3 = 0
    assert point == af.AffSubspace.point_of((-2, 1, 1))
    assert af.meet_hyperplane(af.AffSubspace.empty(3), expr((1, 0, 0), 0)).is_empty
    half = af.meet_hyperplane(af.AffSubspace.full(2), expr((1, 0), 0))
    assert half.dim == 1 and half.contains_point(frac_point(0, 7))


def test_meet_hyperplane_inconsistent_constant():
    line = line_x1_plus_2x2_x3_is_1()
    # x3 = 0 contradicts x3 = 1 on the line
    assert af.meet_hyperplane(line, expr((0, 0, 1), 0)).is_empty


def test_meet_of_two_subspaces():
    a = af.from_equalities([expr((1, 0), -1)], 2)  # x1 = 1
    b = af.from_equalities([expr((0, 1), -2)], 2)  # x2 = 2
    assert af.meet(a, b) == af.AffSubspace.point_of((1, 2))
    assert af.meet(a, af.AffSubspace.full(2)) == a


# ---------------------------------------------------------------------------
# Generator / constraint conversions
# ---------------------------------------------------------------------------


def test_generators_to_constraints_point():
    cf = af.generators_to_constraints(af.AffSubspace.point_of((-2, 1, 1)))
    solved = {(r.coeffs, r.const) for r in cf.rows}
    assert solved == {
        ((F(1), F(0), F(0)), F(2)),
        ((F(0), F(1), F(0)), F(-1)),
        ((F(0), F(0), F(1)), F(-1)),
    }


def test_full_space_has_no_constraints():
    assert af.generators_to_constraints(af.AffSubspace.full(3)).rows == ()


def test_constraints_to_generators_line():
    got = af.from_equalities([expr((1, 2, 0), 0), expr((0, 0, 1), -1)], 3)
    assert got.point == frac_point(0, 0, 1)
    assert got.basis == (frac_point(1, F(-1, 2), 0),)  # pivot-normalized span of (-2,1,0)
    assert got.contains_point(frac_point(-2, 1, 1))


def test_conversion_round_trip_preserves_the_point_set():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 5)), n)
        back = af.constraints_to_generators(af.generators_to_constraints(a))
        assert af.includes(a, back) and af.includes(back, a)
        assert back == a  # canonical forms coincide exactly


def test_inconsistent_constraints_give_empty():
    a = af.from_equalities([expr((1, 1), 0), expr((1, 1), -1)], 2)
    assert a.is_empty


def _reference_constraints_to_generators(cf: af.ConstraintForm) -> af.AffSubspace:
    """Elimination with pivots restricted to the coefficient columns."""
    n = cf.n
    aug = [[F(x) for x in r.coeffs] + [F(r.const)] for r in cf.rows]
    aug = [r for r in aug if any(x != 0 for x in r)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
        if r == len(aug):
            break
    if any(row[n] != 0 for row in aug[r:]):
        return af.AffSubspace.empty(n)
    rows = aug[:r]
    pivots = [next(i for i in range(n) if row[i] != 0) for row in rows]
    point = [F(0)] * n
    for row, pc in zip(rows, pivots):
        point[pc] = -row[n]
    dirs = []
    for f in (c for c in range(n) if c not in pivots):
        d = [F(0)] * n
        d[f] = F(1)
        for row, pc in zip(rows, pivots):
            d[pc] = -row[f]
        dirs.append(tuple(d))
    return af.AffSubspace(n, tuple(point), tuple(dirs))


def test_constraints_to_generators_matches_reference_elimination():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [
            expr([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
            for _ in range(rng.randint(0, n + 2))
        ]
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), expr([0] * n, 0))  # all-zero row
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), expr([0] * n, 1))  # 0 = 1
        cf = af.ConstraintForm(n, tuple(rows))
        assert af.constraints_to_generators(cf) == _reference_constraints_to_generators(cf)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def test_assign_to_constants_gives_point():
    rows = (expr((0, 0, 0), -2), expr((0, 0, 0), 1), expr((0, 0, 0), 1))
    out = af.bca_parallel_assign(rows, af.AffSubspace.full(3))
    assert out == af.AffSubspace.point_of((-2, 1, 1))


def test_parallel_assign_keeps_loop_invariant_line():
    line = line_x1_plus_2x2_x3_is_1()
    rows = (expr((0, -2, 0), -2), expr((0, 1, 1), 0), expr((0, 0, 1), 0))
    assert af.bca_parallel_assign(rows, line) == line


def test_identity_assign():
    line = line_x1_plus_2x2_x3_is_1()
    ident = tuple(
        pg.identity_row(i, 3, F(0), F(1)) for i in range(3)
    )
    assert af.bca_parallel_assign(ident, line) == line


def test_assignments_pointwise_complete():
    """The affine hull commutes with affine maps: hull(t(X)) = t#(hull(X))."""
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = random_rat_points(rng, n, rng.randint(0, 6))
        rows = random_affine_rows(rng, n)
        t = pg.ParallelAffineAssign(rows)
        image = pg.apply_transfer_concrete(t, pts)
        assert af.hull_points(image, n) == af.bca_parallel_assign(rows, af.hull_points(pts, n))


def test_nondet_assign_examples():
    out = af.bca_nondet_assign(1, af.AffSubspace.point_of((5, 7)))
    assert out == af.AffSubspace(2, frac_point(0, 7), (frac_point(1, 0),))
    assert af.bca_nondet_assign(1, af.AffSubspace.empty(2)).is_empty
    assert af.bca_nondet_assign(1, out) == out  # idempotent on that line


def test_nondet_assign_matches_join_of_two_constant_images():
    """xj := ? equals the join of the xj := 0 and xj := 1 images."""

    def const_assign(j: int, value: int, n: int) -> tuple[pg.LinExpr, ...]:
        return tuple(
            expr([0] * n, value) if i == j - 1 else pg.identity_row(i, n, F(0), F(1))
            for i in range(n)
        )

    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
        j = rng.randint(1, n)
        reference = af.join(
            af.bca_parallel_assign(const_assign(j, 0, n), a),
            af.bca_parallel_assign(const_assign(j, 1, n), a),
        )
        assert af.bca_nondet_assign(j, a) == reference


def test_nondet_matches_witness_hulls():
    """Two witness values generate the same hull as any larger witness set."""
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        j = rng.randint(1, n)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(1, 5)), n)
        pts = subspace_samples(a, rng, 4)
        t = pg.NondetAssign(j)
        small = af.hull_points(
            pg.apply_transfer_concrete(t, pts, nondet_witnesses=(F(0), F(1))), n
        )
        big = af.hull_points(
            pg.apply_transfer_concrete(t, pts, nondet_witnesses=(F(0), F(1), F(2), F(5))), n
        )
        assert small == big
        assert af.includes(af.bca_nondet_assign(j, a), small)


def test_nondet_pointwise_complete():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        j = rng.randint(1, n)
        pts = random_rat_points(rng, n, rng.randint(0, 6))
        image = pg.apply_transfer_concrete(
            pg.NondetAssign(j), pts, nondet_witnesses=(F(0), F(1))
        )
        assert af.hull_points(image, n) == af.bca_nondet_assign(j, af.hull_points(pts, n))


def test_guard_neq_is_identity_even_when_imprecise():
    origin = af.AffSubspace.point_of((0, 0))
    assert af.guard_neq_identity(origin) == origin
    assert af.guard_neq_identity(af.AffSubspace.empty(2)).is_empty
    # the concrete image under x1 != 0 is empty, so identity is sound but lossy
    image = pg.apply_transfer_concrete(
        pg.RelGuard((expr((1, 0), 0),), "!=", "conj"), {frac_point(0, 0)}
    )
    assert image == frozenset()


def test_guard_incompleteness_witness():
    x = [frac_point(1, 0), frac_point(-1, 0)]
    guard = pg.EqGuard((expr((1, 0), 0),), "conj")
    through_concrete = af.hull_points(pg.apply_transfer_concrete(guard, x), 2)
    assert through_concrete.is_empty
    through_abstraction = af.meet_hyperplane(af.hull_points(x, 2), expr((1, 0), 0))
    assert through_abstraction == af.AffSubspace.point_of((0, 0))


def test_eq_guard_modes():
    full = af.AffSubspace.full(2)
    rows = (expr((1, 0), 0), expr((0, 1), -1))
    conj = af.bca_eq_guard(rows, "conj", full)
    assert conj == af.AffSubspace.point_of((0, 1))
    disj = af.bca_eq_guard(rows, "disj", full)
    assert disj.dim == 2  # hull of two crossing lines is the plane


def test_guards_sound_on_subspace_samples():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(1, 4)), n)
        pts = subspace_samples(a, rng, 4)
        e = expr([rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3))
        image = pg.apply_transfer_concrete(pg.EqGuard((e,), "conj"), pts)
        assert af.includes(af.meet_hyperplane(a, e), af.hull_points(image, n))


# ---------------------------------------------------------------------------
# Independent linear-solve cross-check
# ---------------------------------------------------------------------------


def test_guard_meet_agrees_with_independent_solver():
    """Intersecting the loop line with the exit guard pins a single point.

    The expected point is computed by a dense Gaussian solver written in the
    test suite, independent of the domain's parametrized elimination.
    """
    line = line_x1_plus_2x2_x3_is_1()
    met = af.meet_hyperplane(line, expr((1, 0, 2), 0))
    solution = solve_square_system(
        [
            ([F(1), F(2), F(0)], F(0)),
            ([F(0), F(0), F(1)], F(-1)),
            ([F(1), F(0), F(2)], F(0)),
        ],
        3,
    )
    assert solution == frac_point(-2, 1, 1)
    assert met == af.AffSubspace.point_of(solution)


def test_render():
    assert af.render_affine(af.AffSubspace.empty(2)) == "bot"
    assert af.render_affine(af.AffSubspace.full(2)) == "top"
    line = line_x1_plus_2x2_x3_is_1()
    assert af.render_affine(line) == "x1+2*x2=0 /\\ x3-1=0"
    half = af.from_equalities([expr((F(1, 2), 0), F(-3, 4))], 2)
    assert af.render_affine(half) == "2*x1-3=0"
