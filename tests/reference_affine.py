"""Reference affine-equalities domain with ``fractions.Fraction`` entries.

This is the domain as it was before :mod:`absinv.affine` moved to integer
rows: a point and a reduced row-echelon basis with pivots normalized to 1,
every entry an exact ``Fraction``, and ``rref`` dividing each integer row by
its pivot at the end.  Tests compare every public operation of
:mod:`absinv.affine` with the one here, through the rational view of its
``(num, den)`` point and integer basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from absinv.programs import LinExpr, ParallelAffineAssign, render_linexpr

Vec = tuple[Fraction, ...]
ZERO = Fraction(0)


def _frac_vec(v: Sequence) -> Vec:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    acc = ZERO
    for a, b in zip(u, v, strict=True):
        if a and b:
            acc += a * b
    return acc


def _int_row(row: Sequence) -> list[int]:
    """``row`` times the lcm of its denominators, divided by the gcd: coprime integers."""
    ratios = [x.as_integer_ratio() for x in row]
    m = lcm(*(d for _, d in ratios))
    ints = [x * (m // d) for x, d in ratios]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(rows: Iterable[Sequence]) -> tuple[Vec, ...]:
    """Reduced row-echelon form; zero rows dropped, pivots normalized to 1.

    Gauss–Jordan over integer rows: row ← (p·row − f·pivot_row) / gcd, and
    each row is divided by its pivot p once, at the end.  Each row stays a
    nonzero multiple of its rational counterpart, so the result is the same.
    """
    m = [r for r in map(_int_row, rows) if any(r)]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow, p = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return tuple(
        tuple(Fraction(x, row[c]) if x else ZERO for x in row) for row, c in zip(m, pivots)
    )


def pivot_col(row: Sequence) -> int:
    for i, x in enumerate(row):
        if x != 0:
            return i
    raise ValueError("zero row has no pivot")


def reduce_mod_span(v: Sequence, basis: Sequence[Vec]) -> Vec:
    """Remainder of ``v`` after eliminating the pivot coordinates of a RREF basis."""
    out = list(_frac_vec(v))
    for row in basis:
        f = out[pivot_col(row)]
        if f:
            out = [x - f * y if y else x for x, y in zip(out, row)]
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
    if inner.is_empty or outer.dim == outer.n:
        return True
    if inner.dim >= outer.dim:  # a subset of no lower dimension is the same set
        return inner == outer
    return outer.contains_point(inner.point) and all(in_span(b, outer.basis) for b in inner.basis)


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
    point = tuple(p - (c / d[i0]) * y if y else p for p, y in zip(a.point, b0))
    basis = tuple(
        tuple(x - (d[i] / d[i0]) * y if y else x for x, y in zip(a.basis[i], b0))
        for i in range(len(a.basis))
        if i != i0
    )
    return AffSubspace(a.n, point, basis)


def meet(a: AffSubspace, b: AffSubspace) -> AffSubspace:
    """Exact intersection of two subspaces: ``a`` under the conjunction of ``b``'s constraints."""
    return bca_eq_guard(generators_to_constraints(b), "conj", a)


# ---------------------------------------------------------------------------
# Constraint form and conversions
# ---------------------------------------------------------------------------


def _null_space(rows: Sequence[Vec], n: int) -> tuple[Vec, ...]:
    """Basis of {x ∈ ℚⁿ | rows · x = 0} for RREF ``rows``: one vector per free
    column f, with 1 at f and -row[f] at the pivot of each row."""
    pivots = [pivot_col(row) for row in rows]
    out: list[Vec] = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        out.append(tuple(v))
    return tuple(out)


def generators_to_constraints(a: AffSubspace) -> tuple[LinExpr, ...]:
    """Echelon rows whose common zeros are ``a``; the empty set is the row 0 = 1."""
    if a.is_empty:
        return (LinExpr((Fraction(0),) * a.n, Fraction(1)),)
    return tuple(LinExpr(m, -dot(m, a.point)) for m in rref(_null_space(a.basis, a.n)))


def from_equalities(rows: Iterable[LinExpr], n: int) -> AffSubspace:
    """Subspace defined by a conjunction of affine equalities (Gaussian
    elimination); empty when the system is inconsistent."""
    rows = rref(tuple(r.coeffs) + (r.const,) for r in rows)
    # a pivot in the constant column is the row 0 = 1
    if rows and pivot_col(rows[-1]) == n:
        return AffSubspace.empty(n)
    # particular solution: free vars at 0; row gives  x_pivot + ... + const = 0
    point = [Fraction(0)] * n
    for row in rows:
        point[pivot_col(row)] = -row[n]
    return AffSubspace(n, tuple(point), _null_space(rows, n))


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
# ---------------------------------------------------------------------------


def bca_parallel_assign(t: ParallelAffineAssign, a: AffSubspace) -> AffSubspace:
    """Exact image under x := M x + b (affine maps preserve affine subspaces).

    Only rows other than identity rows are evaluated, on their nonzero
    coefficients, which the transfer derives once (``t.assigned``)."""
    if a.is_empty:
        return a
    point, dirs = list(a.point), [list(b) for b in a.basis]
    for j, terms, const in t.assigned:
        point[j] = sum((c * a.point[i] for i, c in terms), ZERO + const)
        for d, b in zip(dirs, a.basis):
            d[j] = sum((c * b[i] for i, c in terms), ZERO)
    return AffSubspace(a.n, tuple(point), tuple(map(tuple, dirs)))


def bca_nondet_assign(j: int, a: AffSubspace) -> AffSubspace:
    """Exact image of xj := ? — ``a`` extended by the unit direction e_j."""
    if a.is_empty:
        return a
    unit = tuple(Fraction(int(i == j - 1)) for i in range(a.n))
    return AffSubspace(a.n, a.point, a.basis + (unit,))


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


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _clear_row(row: LinExpr) -> LinExpr:
    """Scale a constraint row to coprime integers with positive leading coefficient."""
    ints = _int_row((*row.coeffs, row.const))
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return LinExpr(tuple(ints[:-1]), ints[-1])


def render_affine(a: AffSubspace) -> str:
    """``bot``, ``top``, or the conjunction of integer-cleared equalities."""
    if a.is_empty:
        return "bot"
    if a.dim == a.n:
        return "top"
    rows = generators_to_constraints(a)
    return " /\\ ".join(f"{render_linexpr(_clear_row(r))}=0" for r in rows)
