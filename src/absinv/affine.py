"""Affine-equalities domain over ℚ: affine subspaces with exact arithmetic.

An element is the empty set or an affine subspace of ℚⁿ, represented in
generator form as a base point plus a linearly independent list of direction
vectors.  The generator form is primary (assignment images are one matrix
application on the generators); the constraint form {x | Mx + c = 0} is
derived on demand for rendering, meets with literals, and round-trip checks.

Canonical form makes structural equality coincide with semantic equality:
the direction basis is kept in reduced row-echelon form with lexicographic
pivot order, and the base point is reduced modulo the span (zeroed on pivot
columns).  All arithmetic is over ``fractions.Fraction`` — no rounding
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .lattice import AbstractDomain
from .programs import LinExpr

Vec = tuple[Fraction, ...]


def _frac_vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    acc = Fraction(0)
    for a, b in zip(u, v, strict=True):
        acc += Fraction(a) * Fraction(b)
    return acc


def rref(rows: Iterable[Sequence]) -> tuple[Vec, ...]:
    """Reduced row-echelon form; zero rows dropped, pivots normalized to 1."""
    m = [list(_frac_vec(r)) for r in rows]
    m = [r for r in m if any(x != 0 for x in r)]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r] if any(x != 0 for x in row))


def pivot_col(row: Sequence) -> int:
    for i, x in enumerate(row):
        if x != 0:
            return i
    raise ValueError("zero row has no pivot")


def reduce_mod_span(v: Sequence, basis: Sequence[Vec]) -> Vec:
    """Remainder of ``v`` after eliminating the pivot coordinates of a RREF basis."""
    out = list(_frac_vec(v))
    for row in basis:
        c = pivot_col(row)
        f = out[c]
        if f != 0:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def in_span(v: Sequence, basis: Sequence[Vec]) -> bool:
    return all(x == 0 for x in reduce_mod_span(v, basis))


@dataclass(frozen=True)
class AffSubspace:
    """Empty, or the affine set  point + span(basis)  in ℚⁿ (canonical form)."""

    n: int
    point: Vec | None
    basis: tuple[Vec, ...] = ()

    def __post_init__(self) -> None:
        if self.point is None:
            object.__setattr__(self, "basis", ())
            return
        basis = rref(self.basis)
        point = reduce_mod_span(self.point, basis)
        if len(point) != self.n or any(len(b) != self.n for b in basis):
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "point", point)

    @classmethod
    def empty(cls, n: int) -> "AffSubspace":
        return cls(n, None)

    @classmethod
    def full(cls, n: int) -> "AffSubspace":
        unit = tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )
        return cls(n, (Fraction(0),) * n, unit)

    @classmethod
    def point_of(cls, coords: Sequence) -> "AffSubspace":
        pt = _frac_vec(coords)
        return cls(len(pt), pt, ())

    @property
    def is_empty(self) -> bool:
        return self.point is None

    @property
    def dim(self) -> int:
        """-1 for the empty set, else the number of independent directions."""
        return -1 if self.point is None else len(self.basis)

    def contains_point(self, v: Sequence) -> bool:
        if self.point is None:
            return False
        diff = tuple(a - b for a, b in zip(_frac_vec(v), self.point, strict=True))
        return in_span(diff, self.basis)

    def __repr__(self) -> str:
        return render_affine(self)


def includes(outer: AffSubspace, inner: AffSubspace) -> bool:
    """Is ``inner`` a subset of ``outer``?  (Generator containment test.)"""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    if not outer.contains_point(inner.point):
        return False
    return all(in_span(b, outer.basis) for b in inner.basis)


def join(a: AffSubspace, b: AffSubspace) -> AffSubspace:
    """Affine hull of the union — the least upper bound in the domain."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    diff = tuple(x - y for x, y in zip(b.point, a.point))
    return AffSubspace(a.n, a.point, a.basis + b.basis + (diff,))


def hull_points(points: Iterable[Sequence], n: int) -> AffSubspace:
    """Affine hull of a finite point set."""
    pts = [_frac_vec(p) for p in points]
    if not pts:
        return AffSubspace.empty(n)
    base = pts[0]
    dirs = tuple(tuple(a - b for a, b in zip(p, base)) for p in pts[1:])
    return AffSubspace(n, base, dirs)


def meet_hyperplane(a: AffSubspace, e: LinExpr) -> AffSubspace:
    """Exact intersection of ``a`` with the hyperplane {x | e(x) = 0}.

    Solved on the parametrization point + span(basis): the affine form
    restricted to the parameters is  c + sum d_i t_i  with c = e(point) and
    d_i = coeffs · basis_i; one parameter is eliminated when possible.
    """
    if a.is_empty:
        return a
    c = Fraction(e.eval(a.point))
    d = [dot(e.coeffs, b) for b in a.basis]
    if all(x == 0 for x in d):
        return a if c == 0 else AffSubspace.empty(a.n)
    i0 = next(i for i, x in enumerate(d) if x != 0)
    b0 = a.basis[i0]
    point = tuple(p - (c / d[i0]) * y for p, y in zip(a.point, b0))
    basis = tuple(
        tuple(x - (d[i] / d[i0]) * y for x, y in zip(a.basis[i], b0))
        for i in range(len(a.basis))
        if i != i0
    )
    return AffSubspace(a.n, point, basis)


def meet(a: AffSubspace, b: AffSubspace) -> AffSubspace:
    """Exact intersection of two subspaces (fold ``b``'s constraints into ``a``)."""
    if a.is_empty or b.is_empty:
        return AffSubspace.empty(a.n)
    out = a
    for row in generators_to_constraints(b).rows:
        out = meet_hyperplane(out, row)
        if out.is_empty:
            return out
    return out


# ---------------------------------------------------------------------------
# Constraint form and conversions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintForm:
    """The subspace {x | row(x) = 0 for every row}; rows in echelon form.

    An inconsistent system (no solutions) is represented by the single row
    0 = 1, mirroring the empty subspace.
    """

    n: int
    rows: tuple[LinExpr, ...]


def generators_to_constraints(a: AffSubspace) -> ConstraintForm:
    """Constraint representation of a subspace (kernel of its direction span)."""
    if a.is_empty:
        return ConstraintForm(a.n, (LinExpr((Fraction(0),) * a.n, Fraction(1)),))
    basis = a.basis
    pivots = [pivot_col(b) for b in basis]
    free = [c for c in range(a.n) if c not in pivots]
    normals: list[Vec] = []
    for f in free:
        m = [Fraction(0)] * a.n
        m[f] = Fraction(1)
        for row, pc in zip(basis, pivots):
            m[pc] = -row[f]
        normals.append(tuple(m))
    normals_rref = rref(normals)
    rows = tuple(
        LinExpr(m, -dot(m, a.point)) for m in normals_rref
    )
    return ConstraintForm(a.n, rows)


def constraints_to_generators(cf: ConstraintForm) -> AffSubspace:
    """Solve the system (Gaussian elimination); Empty when inconsistent."""
    n = cf.n
    rows = rref(tuple(r.coeffs) + (r.const,) for r in cf.rows)
    # a pivot in the constant column is the row 0 = 1
    if rows and pivot_col(rows[-1]) == n:
        return AffSubspace.empty(n)
    pivots = [pivot_col(row) for row in rows]
    free = [c for c in range(n) if c not in pivots]
    # particular solution: free vars at 0; row gives  x_pivot + ... + const = 0
    point = [Fraction(0)] * n
    for row, pc in zip(rows, pivots):
        point[pc] = -row[n]
    dirs: list[Vec] = []
    for f in free:
        d = [Fraction(0)] * n
        d[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            d[pc] = -row[f]
        dirs.append(tuple(d))
    return AffSubspace(n, tuple(point), tuple(dirs))


def from_equalities(rows: Iterable[LinExpr], n: int) -> AffSubspace:
    """Subspace defined by a conjunction of affine equalities."""
    return constraints_to_generators(ConstraintForm(n, tuple(rows)))


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
# ---------------------------------------------------------------------------


def bca_parallel_assign(rows: tuple[LinExpr, ...], a: AffSubspace) -> AffSubspace:
    """Exact image under x := M x + b (affine maps preserve affine subspaces)."""
    if a.is_empty:
        return a
    point = tuple(Fraction(r.eval(a.point)) for r in rows)
    dirs = tuple(tuple(dot(r.coeffs, b) for r in rows) for b in a.basis)
    return AffSubspace(a.n, point, dirs)


def bca_nondet_assign(j: int, a: AffSubspace) -> AffSubspace:
    """Exact image of xj := ? — ``a`` extended by the unit direction e_j."""
    if a.is_empty:
        return a
    unit = tuple(Fraction(int(i == j - 1)) for i in range(a.n))
    return AffSubspace(a.n, a.point, a.basis + (unit,))


def guard_neq_identity(a: AffSubspace) -> AffSubspace:
    """Sound treatment of a negated equality guard: the identity (not a bca)."""
    return a


def bca_eq_guard(rows: tuple[LinExpr, ...], mode: str, a: AffSubspace) -> AffSubspace:
    """Conjunctions fold the exact hyperplane meets; disjunctions join them."""
    if mode == "disj":
        out = AffSubspace.empty(a.n)
        for r in rows:
            out = join(out, meet_hyperplane(a, r))
        return out
    out = a
    for r in rows:
        out = meet_hyperplane(out, r)
    return out


class AffDomain(AbstractDomain):
    """The n-variable affine-equalities lattice (finite height n+1)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n

    def leq(self, a: AffSubspace, b: AffSubspace) -> bool:
        return includes(b, a)

    def join(self, a: AffSubspace, b: AffSubspace) -> AffSubspace:
        return join(a, b)

    def meet(self, a: AffSubspace, b: AffSubspace) -> AffSubspace:
        return meet(a, b)

    def bottom(self) -> AffSubspace:
        return AffSubspace.empty(self.n)

    def top(self) -> AffSubspace:
        return AffSubspace.full(self.n)

    def height(self) -> int:
        return self.n + 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _clear_row(row: LinExpr) -> LinExpr:
    """Scale a constraint row to coprime integers with positive leading coefficient."""
    entries = [Fraction(x) for x in row.coeffs] + [Fraction(row.const)]
    mult = lcm(*(e.denominator for e in entries)) if entries else 1
    ints = [int(e * mult) for e in entries]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return LinExpr(tuple(ints[:-1]), ints[-1])


def render_affine(a: AffSubspace) -> str:
    """``bot``, ``top``, or the conjunction of integer-cleared equalities."""
    if a.is_empty:
        return "bot"
    if a.dim == a.n:
        return "top"
    rows = generators_to_constraints(a).rows
    from .programs import render_linexpr

    return " /\\ ".join(f"{render_linexpr(_clear_row(r))}=0" for r in rows)
