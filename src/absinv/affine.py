"""Affine-equalities domain over ℚ: affine subspaces in integer canonical form.

An element is the empty set or an affine subspace of ℚⁿ, represented in
generator form as a base point plus a linearly independent list of direction
vectors.  The generator form is primary (assignment images are one matrix
application on the generators); the constraint form {x | Mx + c = 0}, a
tuple of rows, is derived on demand for rendering and meets, and constraint
literals are solved into generator form by ``from_equalities``.

The canonical form is integer-valued, as in Karr (1976) and Müller-Olm and
Seidl (2004): the basis is the reduced row-echelon basis (lexicographic pivot
order) with each row scaled to coprime integers with a positive pivot, and
the base point is ``num / den``, coprime integer numerators over one positive
denominator, reduced modulo the span (zero on pivot columns).  Scaling a
rational RREF row by a positive factor is a bijection, so structural
equality is semantic equality.

Every function here that receives coordinates or rows takes Python ``int``s
only.  Rationals enter through the entry points that clear them, which check a
vector by ``programs.checked_vector``: ``hull_points`` (and so ``point_of``),
``AffSubspace.contains_point``, the literals ``from_vector`` and
``from_equalities`` here, and the transfers' ``ParallelAffineAssign.scaled``
and ``Guard.cleared``.  The
n-variable lattice (bounds, height n + 1, alpha, gamma-membership) is
``synthesis.AffAdapter``, whose cells call the functions here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .programs import (
    TOP, LinExpr, ParallelAffineAssign, checked_constraints, checked_vector, clear_denominators, render_linexpr,
)

Row = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def rref(rows: Iterable[Sequence[int]]) -> tuple[Row, ...]:
    """Reduced row-echelon form of integer rows: zero rows dropped, each row
    coprime with a positive pivot.  Fraction-free Gauss–Jordan, row ←
    (p·row − f·pivot_row) / gcd, keeps each row a nonzero multiple of its
    rational counterpart, so this is the rational RREF, scaled row by row."""
    m = [list(r) for r in rows if any(r)]
    height, r = len(m), 0
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        for piv in range(r, height):
            if m[piv][c]:
                break
        else:
            continue
        prow = m[piv]
        m[piv], m[r] = m[r], prow
        p = prow[c]
        for i in range(height):
            row = m[i]
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == height:
            break
    out = []
    for row, c in zip(m, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append(tuple(x // g for x in row) if g != 1 else tuple(row))
    return tuple(out)


def _reduce(v: Sequence[int], basis: Sequence[Row]) -> tuple[Sequence[int], int]:
    """``(s·v − w, s)`` with w in span(basis) and s > 0, zero on the pivots of
    the RREF ``basis``: v is in the span exactly when the first part is zero."""
    s = 1
    for b in basis:
        p = next(filter(None, b))  # the pivot
        f = v[b.index(p)]
        if f:
            v = [p * x - f * y for x, y in zip(v, b)]
            s *= p
    return v, s


@dataclass(frozen=True, init=False)
class AffSubspace:
    """Empty (``num`` is None), or  num/den + span(basis)  in ℚⁿ, stored in canonical
    form.  ``num``, ``basis`` and ``den`` are ``int``s; rational points go
    through ``point_of`` or ``hull_points``."""

    n: int
    num: Row | None
    basis: tuple[Row, ...]
    den: int

    def __init__(
        self, n: int, num: Sequence | None, basis: Iterable[Sequence] = (), den: int = 1
    ) -> None:
        if num is None:
            basis, den = (), 1
        elif not den:
            raise ValueError("zero denominator")
        else:
            rows = rref(basis)
            v, s = _reduce(num, rows)
            g = gcd(den * s, *v)
            g = g if den > 0 else -g
            num, basis, den = tuple(x // g for x in v), rows, den * s // g
            if len(num) != n or any(len(b) != n for b in basis):
                raise ValueError("dimension mismatch")
        self.__dict__.update(n=n, num=num, basis=basis, den=den)  # frozen: no __setattr__

    @classmethod
    def empty(cls, n: int) -> "AffSubspace":
        return cls(n, None)

    @classmethod
    def full(cls, n: int) -> "AffSubspace":
        unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(n, (0,) * n, unit)

    @classmethod
    def point_of(cls, coords: Sequence) -> "AffSubspace":
        """The single rational point ``coords``."""
        return hull_points((coords,), len(coords))

    @property
    def is_empty(self) -> bool:
        return self.num is None

    @property
    def dim(self) -> int:
        """-1 for the empty set, else the number of independent directions."""
        return -1 if self.num is None else len(self.basis)

    def contains_point(self, v: Sequence) -> bool:
        """Is the rational vector ``v`` in the set?"""
        vn, vd = clear_denominators(checked_vector(v, self.n, "rat", top=False))
        if self.num is None:
            return False
        diff = [x * self.den - y * vd for x, y in zip(vn, self.num)]
        return not any(_reduce(diff, self.basis)[0])

    def __repr__(self) -> str:
        return render_affine(self)


def includes(outer: AffSubspace, inner: AffSubspace) -> bool:
    """Is ``inner`` a subset of ``outer``?  (Generator containment test.)"""
    if inner.num is None or outer.dim == outer.n:
        return True
    if inner.dim >= outer.dim:  # a subset of no lower dimension is the same set
        return inner == outer
    diff = [x * outer.den - y * inner.den for x, y in zip(inner.num, outer.num)]
    return not any(any(_reduce(v, outer.basis)[0]) for v in (diff, *inner.basis))


def join(a: AffSubspace, b: AffSubspace) -> AffSubspace:
    """Affine hull of the union — the least upper bound in the domain."""
    if a.num is None:
        return b
    if b.num is None:
        return a
    diff = tuple(y * a.den - x * b.den for x, y in zip(a.num, b.num))
    return AffSubspace(a.n, a.num, a.basis + b.basis + (diff,), a.den)


def hull_points(points: Iterable[Sequence], n: int) -> AffSubspace:
    """Affine hull of a finite set of rational points."""
    pts = [clear_denominators(checked_vector(p, n, "rat", top=False)) for p in points]
    if not pts:
        return AffSubspace.empty(n)
    base, d0 = pts[0]
    dirs = tuple([x * d0 - y * d for x, y in zip(p, base)] for p, d in pts[1:])
    return AffSubspace(n, base, dirs, d0)


def meet_hyperplane(a: AffSubspace, e: LinExpr) -> AffSubspace:
    """Exact intersection of ``a`` with the hyperplane {x | e(x) = 0}.

    On the parametrization num/den + sum t_i basis_i, e is c/den + sum d_i t_i
    with c = coeffs · num + const·den and d_i = coeffs · basis_i; one
    parameter is eliminated when possible.  ``e`` has ``int`` entries, as
    ``Guard.cleared`` and ``generators_to_constraints`` give them."""
    if a.num is None:
        return a
    c = dot(e.coeffs, a.num) + e.const * a.den
    d = [dot(e.coeffs, b) for b in a.basis]
    i0 = next((i for i, x in enumerate(d) if x), None)
    if i0 is None:
        return a if c == 0 else AffSubspace.empty(a.n)
    d0, b0 = d[i0], a.basis[i0]
    basis = tuple(
        [d0 * x - di * y for x, y in zip(b, b0)] for i, (b, di) in enumerate(zip(a.basis, d)) if i != i0
    )
    if d0 < 0:
        d0, c = -d0, -c
    # num/den − (c / (den·d0))·b0, over the denominator den·|d0|
    point = [d0 * x - c * y for x, y in zip(a.num, b0)]
    return AffSubspace(a.n, point, basis, a.den * d0)


def meet(a: AffSubspace, b: AffSubspace) -> AffSubspace:
    """Exact intersection of two subspaces: ``a`` under the conjunction of ``b``'s constraints."""
    return bca_eq_guard(generators_to_constraints(b), "conj", a)


# ---------------------------------------------------------------------------
# Constraint form: conversions and rendering
# ---------------------------------------------------------------------------


def _null_space(rows: Sequence[Row], n: int) -> list[list[int]]:
    """A basis of {x ∈ ℚⁿ | rows · x = 0} for integer RREF ``rows``: one vector
    per free column f, with the lcm L of the pivots at f and −row[f]·L/pivot
    at the pivot of each row."""
    pivots = [row.index(next(filter(None, row))) for row in rows]
    big = lcm(*(row[c] for row, c in zip(rows, pivots)))
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = big
        for row, c in zip(rows, pivots):
            v[c] = -row[f] * (big // row[c])
        out.append(v)
    return out


def generators_to_constraints(a: AffSubspace) -> tuple[LinExpr, ...]:
    """Echelon rows whose common zeros are ``a``, each coprime with a positive
    leading coefficient; the empty set is the row 0 = 1."""
    if a.num is None:
        return (LinExpr((0,) * a.n, 1),)
    out = []
    for m in rref(_null_space(a.basis, a.n)):
        k = dot(m, a.num)  # m · point = k / den
        g = gcd(a.den, k)
        s = a.den // g
        out.append(LinExpr(tuple(x * s for x in m) if s != 1 else m, -k // g))
    return tuple(out)


def render_affine(a: AffSubspace) -> str:
    """``bot``, ``top``, or the conjunction of coprime integer equalities."""
    if a.is_empty:
        return "bot"
    if a.dim == a.n:
        return "top"
    return " /\\ ".join(f"{render_linexpr(r)}=0" for r in generators_to_constraints(a))


def from_vector(entries: Sequence, n: int) -> AffSubspace:
    """Subspace of a vector literal of sort ``rat`` numbers and ``programs.TOP``s:
    the point with 0 in each top slot, spanned by the top slots' unit vectors."""
    entries = checked_vector(entries, n, "rat")
    num, den = clear_denominators(0 if e is TOP else e for e in entries)
    units = tuple(tuple(int(i == j) for i in range(n)) for j, e in enumerate(entries) if e is TOP)
    return AffSubspace(n, num, units, den)


def from_equalities(rows: Iterable[LinExpr], n: int) -> AffSubspace:
    """Subspace defined by a conjunction of affine equalities with rational
    entries (Gaussian elimination); empty when the system is inconsistent."""
    rows = rref(clear_denominators((*r.coeffs, r.const))[0] for r in rows)
    if rows and not any(rows[-1][:n]):  # a pivot in the constant column: the row 0 = 1
        return AffSubspace.empty(n)
    # the solutions (x, 1) of the homogeneous system in n + 1 unknowns: the null
    # vector of the free constant column, (num, den), is the point
    *dirs, point = _null_space(rows, n + 1)
    return AffSubspace(n, point[:n], [d[:n] for d in dirs], point[n])


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
# ---------------------------------------------------------------------------


def bca_parallel_assign(t: ParallelAffineAssign, a: AffSubspace) -> AffSubspace:
    """Exact image under x := M x + b (affine maps preserve affine subspaces).

    Only the assigned rows are evaluated, on their nonzero coefficients,
    which the transfer carries times the lcm L of their denominators
    (``t.scaled``); the whole image is scaled by L."""
    if a.num is None:
        return a
    big, assigned = t.scaled
    if big == 1:
        point, dirs = list(a.num), [list(b) for b in a.basis]
    else:
        point = [x * big for x in a.num]
        dirs = [[x * big for x in b] for b in a.basis]
    for j, terms, const in assigned:
        point[j] = sum(c * a.num[i] for i, c in terms) + const * a.den
        for d, b in zip(dirs, a.basis):
            d[j] = sum(c * b[i] for i, c in terms)
    return AffSubspace(a.n, point, dirs, a.den * big)


def bca_nondet_assign(j: int, a: AffSubspace) -> AffSubspace:
    """Exact image of xj := ? — ``a`` extended by the unit direction e_j."""
    if a.num is None:
        return a
    unit = tuple(int(i == j - 1) for i in range(a.n))
    return AffSubspace(a.n, a.num, a.basis + (unit,), a.den)


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
