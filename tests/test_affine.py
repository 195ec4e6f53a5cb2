"""Affine-equalities domain: canonical forms, lattice laws, exact transfers."""

from __future__ import annotations

import random
from fractions import Fraction

import reference_affine as ra

from absinv import affine as af
from absinv import programs as pg
from absinv.synthesis import AffAdapter
from conftest import (
    dense_assign,
    frac_point,
    identity_row,
    random_affine_rows,
    random_assignment,
    random_entry,
    random_matrix,
    random_rat_points,
    rational_view,
    solve_square_system,
    subspace_samples,
)

F = Fraction


def expr(coeffs, const) -> pg.LinExpr:
    return pg.LinExpr(tuple(F(c) for c in coeffs), F(const))


def line_x1_plus_2x2_x3_is_1() -> af.AffSubspace:
    """{x | x1 + 2 x2 = 0 and x3 = 1}."""
    return af.from_equalities([expr((1, 2, 0), 0), expr((0, 0, 1), -1)], 3)


def same_set(got: af.AffSubspace, expected: ra.AffSubspace) -> bool:
    """Both empty, or the reference's rational point and basis."""
    if expected.is_empty or got.is_empty:
        return expected.is_empty and got.is_empty
    return rational_view(got) == (expected.point, expected.basis)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_form_is_representation_independent():
    a = af.AffSubspace(2, (1, 1), ((2, 2),))
    b = af.AffSubspace(2, (3, 3), ((-1, -1),))
    assert a == b
    point, basis = rational_view(a)
    assert basis == (frac_point(1, 1),)
    assert point == frac_point(0, 0)  # reduced on the pivot column


def test_dependent_generators_are_reduced():
    a = af.AffSubspace(3, (0, 0, 1), ((-2, 1, 0), (-4, 2, 0), (2, -1, 0)))
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
    assert two_points == af.AffSubspace(2, (0, 0), ((1, 1),))
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
    assert AffAdapter(4).height() == 5


# ---------------------------------------------------------------------------
# Meets
# ---------------------------------------------------------------------------


def test_meet_hyperplane_examples():
    line = line_x1_plus_2x2_x3_is_1()
    point = af.meet_hyperplane(line, pg.LinExpr((1, 0, 2), 0))  # x1 + 2 x3 = 0
    assert point == af.AffSubspace.point_of((-2, 1, 1))
    assert af.meet_hyperplane(af.AffSubspace.empty(3), pg.LinExpr((1, 0, 0), 0)).is_empty
    half = af.meet_hyperplane(af.AffSubspace.full(2), pg.LinExpr((1, 0), 0))
    assert half.dim == 1 and half.contains_point(frac_point(0, 7))


def test_meet_hyperplane_inconsistent_constant():
    line = line_x1_plus_2x2_x3_is_1()
    # x3 = 0 contradicts x3 = 1 on the line
    assert af.meet_hyperplane(line, pg.LinExpr((0, 0, 1), 0)).is_empty


def test_meet_of_two_subspaces():
    a = af.from_equalities([expr((1, 0), -1)], 2)  # x1 = 1
    b = af.from_equalities([expr((0, 1), -2)], 2)  # x2 = 2
    assert af.meet(a, b) == af.AffSubspace.point_of((1, 2))
    assert af.meet(a, af.AffSubspace.full(2)) == a


def _reference_meet(a: af.AffSubspace, b: af.AffSubspace) -> af.AffSubspace:
    """The former ``meet``: its own fold of ``b``'s hyperplanes, stopping when empty."""
    if a.is_empty or b.is_empty:
        return af.AffSubspace.empty(a.n)
    out = a
    for row in af.generators_to_constraints(b):
        out = af.meet_hyperplane(out, row)
        if out.is_empty:
            return out
    return out


def test_meet_matches_reference_hyperplane_fold():
    rng = random.Random(23)
    empty_operands = disjoint = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        a, b = (
            af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
            for _ in range(2)
        )
        got = af.meet(a, b)
        assert got == _reference_meet(a, b)
        empty_operands += a.is_empty or b.is_empty
        disjoint += got.is_empty and not (a.is_empty or b.is_empty)
    assert empty_operands >= 50 and disjoint >= 50


# ---------------------------------------------------------------------------
# Generator / constraint conversions
# ---------------------------------------------------------------------------


def test_generators_to_constraints_point():
    rows = af.generators_to_constraints(af.AffSubspace.point_of((-2, 1, 1)))
    solved = {(r.coeffs, r.const) for r in rows}
    assert solved == {
        ((F(1), F(0), F(0)), F(2)),
        ((F(0), F(1), F(0)), F(-1)),
        ((F(0), F(0), F(1)), F(-1)),
    }


def test_full_space_has_no_constraints():
    assert af.generators_to_constraints(af.AffSubspace.full(3)) == ()


def test_constraints_to_generators_line():
    got = af.from_equalities([expr((1, 2, 0), 0), expr((0, 0, 1), -1)], 3)
    assert rational_view(got) == (
        frac_point(0, 0, 1),
        (frac_point(1, F(-1, 2), 0),),  # pivot-normalized span of (-2,1,0)
    )
    assert got.contains_point(frac_point(-2, 1, 1))


def test_conversion_round_trip_preserves_the_point_set():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 5)), n)
        back = af.from_equalities(af.generators_to_constraints(a), n)
        assert af.includes(a, back) and af.includes(back, a)
        assert back == a  # canonical forms coincide exactly


def test_inconsistent_constraints_give_empty():
    a = af.from_equalities([expr((1, 1), 0), expr((1, 1), -1)], 2)
    assert a.is_empty


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
        assert same_set(af.from_equalities(rows, n), ra.from_equalities(rows, n))


def _reference_vector_literal(entries, n: int) -> af.AffSubspace:
    """A vector literal solved as one unit equality row per constant slot."""
    rows = []
    for i, e in enumerate(entries):
        if e != pg.TOP:
            rows.append(expr([int(i == j) for j in range(n)], -F(e)))
    return af.from_equalities(rows, n)


def test_vector_literal_matches_solved_unit_rows():
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(1, 5)
        entries = tuple(
            pg.TOP if rng.random() < 0.4 else F(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(n)
        )
        got = AffAdapter(n).from_init(pg.InitVector(entries))
        assert got == _reference_vector_literal(entries, n)
        assert got.dim == entries.count(pg.TOP)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def test_assign_to_constants_gives_point():
    rows = (expr((0, 0, 0), -2), expr((0, 0, 0), 1), expr((0, 0, 0), 1))
    out = af.bca_parallel_assign(dense_assign(rows), af.AffSubspace.full(3))
    assert out == af.AffSubspace.point_of((-2, 1, 1))


def test_parallel_assign_keeps_loop_invariant_line():
    line = line_x1_plus_2x2_x3_is_1()
    rows = (expr((0, -2, 0), -2), expr((0, 1, 1), 0), expr((0, 0, 1), 0))
    assert af.bca_parallel_assign(dense_assign(rows), line) == line


def test_identity_assign():
    line = line_x1_plus_2x2_x3_is_1()
    ident = tuple(
        identity_row(i, 3, F(0), F(1)) for i in range(3)
    )
    assert af.bca_parallel_assign(dense_assign(ident), line) == line


def test_assignments_pointwise_complete():
    """The affine hull commutes with affine maps: hull(t(X)) = t#(hull(X))."""
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = random_rat_points(rng, n, rng.randint(0, 6))
        rows = random_affine_rows(rng, n)
        t = dense_assign(rows)
        image = pg.apply_transfer_concrete(t, pts)
        assert af.hull_points(image, n) == af.bca_parallel_assign(t, af.hull_points(pts, n))


def test_nondet_assign_examples():
    out = af.bca_nondet_assign(1, af.AffSubspace.point_of((5, 7)))
    assert out == af.AffSubspace(2, (0, 7), ((1, 0),))
    assert af.bca_nondet_assign(1, af.AffSubspace.empty(2)).is_empty
    assert af.bca_nondet_assign(1, out) == out  # idempotent on that line


def test_nondet_assign_matches_join_of_two_constant_images():
    """xj := ? equals the join of the xj := 0 and xj := 1 images."""

    def const_assign(j: int, value: int, n: int) -> tuple[pg.LinExpr, ...]:
        return tuple(
            expr([0] * n, value) if i == j - 1 else identity_row(i, n, F(0), F(1))
            for i in range(n)
        )

    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = af.hull_points(random_rat_points(rng, n, rng.randint(0, 4)), n)
        j = rng.randint(1, n)
        reference = af.join(
            af.bca_parallel_assign(dense_assign(const_assign(j, 0, n)), a),
            af.bca_parallel_assign(dense_assign(const_assign(j, 1, n)), a),
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
    guard = pg.Guard((expr((1, 0), 0),), "!=", "conj")
    assert AffAdapter(2).transfer(guard, origin) == origin
    assert AffAdapter(2).transfer(guard, af.AffSubspace.empty(2)).is_empty
    # the concrete image under x1 != 0 is empty, so identity is sound but lossy
    image = pg.apply_transfer_concrete(guard, {frac_point(0, 0)})
    assert image == frozenset()


def test_guard_incompleteness_witness():
    x = [frac_point(1, 0), frac_point(-1, 0)]
    guard = pg.Guard((expr((1, 0), 0),), "=", "conj")
    through_concrete = af.hull_points(pg.apply_transfer_concrete(guard, x), 2)
    assert through_concrete.is_empty
    through_abstraction = af.meet_hyperplane(af.hull_points(x, 2), guard.cleared[0])
    assert through_abstraction == af.AffSubspace.point_of((0, 0))


def test_eq_guard_modes():
    full = af.AffSubspace.full(2)
    rows = (pg.LinExpr((1, 0), 0), pg.LinExpr((0, 1), -1))
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
        guard = pg.Guard((e,), "=", "conj")
        image = pg.apply_transfer_concrete(guard, pts)
        assert af.includes(af.meet_hyperplane(a, guard.cleared[0]), af.hull_points(image, n))


# ---------------------------------------------------------------------------
# Independent linear-solve cross-check
# ---------------------------------------------------------------------------


def test_guard_meet_agrees_with_independent_solver():
    """Intersecting the loop line with the exit guard pins a single point.

    The expected point is computed by a dense Gaussian solver written in the
    test suite, independent of the domain's parametrized elimination.
    """
    line = line_x1_plus_2x2_x3_is_1()
    met = af.meet_hyperplane(line, pg.LinExpr((1, 0, 2), 0))
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


# ---------------------------------------------------------------------------
# Differential check against dense rational elimination
# ---------------------------------------------------------------------------
#
# ``reference_affine`` is the module's earlier implementation: every entry a
# ``Fraction``, elimination over ℚ with pivots normalized to 1.  Integer
# elimination and sparse assignment images must return ``int`` entries whose
# rational view is exactly the reference's tuples.


def test_rref_and_reduction_match_dense_rational_elimination():
    rng = random.Random(41)
    seen: set[str] = set()
    for _ in range(600):
        n = rng.randint(1, 7)
        rows = random_matrix(rng, n, seen)
        expected = ra.rref(rows)
        basis = af.rref(pg.clear_denominators(r)[0] for r in rows)
        assert all(type(x) is int for b in basis for x in b)
        assert tuple(tuple(F(x, next(filter(None, b))) for x in b) for b in basis) == expected
        v = [random_entry(rng, seen) for _ in range(n)]
        num, den = pg.clear_denominators(v)
        assert rational_view(af.AffSubspace(n, num, basis, den)) == (ra.reduce_mod_span(v, expected), expected)
    assert seen == {"fraction", "big", "zero row", "negative pivot", "mixed denominators"}


def test_parallel_assign_and_inclusion_match_dense_references():
    rng = random.Random(43)
    seen: set[str] = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        shape = rng.choice(("empty", "full", "point", "random", "random"))
        seen.add(shape)
        if shape == "empty":
            a, ref_a = af.AffSubspace.empty(n), ra.AffSubspace.empty(n)
        elif shape == "full":
            a, ref_a = af.AffSubspace.full(n), ra.AffSubspace.full(n)
        else:
            point = tuple(F(random_entry(rng, seen)) for _ in range(n))
            basis = random_matrix(rng, n, seen) if shape == "random" else ()
            num, den = pg.clear_denominators(point)
            a = af.AffSubspace(n, num, [pg.clear_denominators(b)[0] for b in basis], den)
            ref_a = ra.AffSubspace(n, point, tuple(map(tuple, basis)))
        t = dense_assign(random_assignment(rng, n, seen))
        got, expected = af.bca_parallel_assign(t, a), ra.bca_parallel_assign(t, ref_a)
        assert same_set(got, expected)
        start, image, full = (a, ref_a), (got, expected), (af.AffSubspace.full(n), ra.AffSubspace.full(n))
        for (outer, ref_outer), (inner, ref_inner) in ((start, image), (image, start), (full, image)):
            assert af.includes(outer, inner) == ra.includes(ref_outer, ref_inner)
    assert {"empty", "full", "identity", "constant", "parallel pair", "big"} <= seen
