"""Constant-propagation domain over ℤ: flat per-variable constants plus ⊥/⊤.

An element is either ``bot`` (no value vectors) or an n-vector whose slots are
integers or ``top``; the order is the pointwise flat order with a single
shared bottom.  The concretization of a vector is the box of all integer
vectors matching its constant slots.

The transfer functions below are best correct approximations (alpha ∘ t ∘
gamma), except conjunctive multi-row guards, which are only sound (see
:func:`bca_guard`): affine assignments are handled exactly; equality guards
refine a single unknown slot when the residual is constant (with a
divisibility check) and fall back to an integer-solvability test otherwise;
relational guards keep or kill the whole element depending on whether the
expression is decided.

All values are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .lattice import AbstractDomain
from .programs import LinExpr, relation_holds


class _Top:
    """Unique 'unknown integer' marker for vector slots."""

    _instance: "_Top | None" = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "top"


TOP = _Top()

ConstVal = int | _Top  # a single slot; the vector-level bottom is ConstVec.bottom


@dataclass(frozen=True)
class ConstVec:
    """⊥ or an n-vector of (int | top) slots; the unique bottom has comps=None."""

    n: int
    comps: tuple[ConstVal, ...] | None

    def __post_init__(self) -> None:
        if self.comps is not None:
            if len(self.comps) != self.n:
                raise ValueError("component count must equal n")
            for c in self.comps:
                if not (c is TOP or isinstance(c, int)):
                    raise ValueError(f"bad slot value {c!r}")

    @classmethod
    def bottom(cls, n: int) -> "ConstVec":
        return cls(n, None)

    @classmethod
    def top(cls, n: int) -> "ConstVec":
        return cls(n, (TOP,) * n)

    @classmethod
    def of(cls, *slots: ConstVal) -> "ConstVec":
        return cls(len(slots), tuple(slots))

    @property
    def is_bottom(self) -> bool:
        return self.comps is None

    def replace(self, j: int, value: ConstVal) -> "ConstVec":
        """Copy with 1-based slot j set to ``value`` (⊥ stays ⊥)."""
        if self.comps is None:
            return self
        return ConstVec(self.n, self.comps[: j - 1] + (value,) + self.comps[j:])

    def __repr__(self) -> str:
        return render_const(self)


def _slot_leq(a: ConstVal, b: ConstVal) -> bool:
    return b is TOP or a == b


def leq(a: ConstVec, b: ConstVec) -> bool:
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    return all(_slot_leq(x, y) for x, y in zip(a.comps, b.comps))


def join(a: ConstVec, b: ConstVec) -> ConstVec:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return ConstVec(
        a.n,
        tuple(x if x == y else TOP for x, y in zip(a.comps, b.comps)),
    )


def meet(a: ConstVec, b: ConstVec) -> ConstVec:
    if a.is_bottom or b.is_bottom:
        return ConstVec.bottom(a.n if not a.is_bottom else b.n)
    out: list[ConstVal] = []
    for x, y in zip(a.comps, b.comps):
        if x is TOP:
            out.append(y)
        elif y is TOP or x == y:
            out.append(x)
        else:
            return ConstVec.bottom(a.n)  # empty slot collapses the vector
    return ConstVec(a.n, tuple(out))


class ConstDomain(AbstractDomain):
    """The n-variable constant-propagation lattice (finite height 2n)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n

    def leq(self, a: ConstVec, b: ConstVec) -> bool:
        return leq(a, b)

    def join(self, a: ConstVec, b: ConstVec) -> ConstVec:
        return join(a, b)

    def meet(self, a: ConstVec, b: ConstVec) -> ConstVec:
        return meet(a, b)

    def bottom(self) -> ConstVec:
        return ConstVec.bottom(self.n)

    def top(self) -> ConstVec:
        return ConstVec.top(self.n)

    def height(self) -> int:
        return 2 * self.n


# ---------------------------------------------------------------------------
# Abstraction of finite point sets
# ---------------------------------------------------------------------------


def alpha_points(points: Iterable[tuple[int, ...]], n: int) -> ConstVec:
    """Best abstraction of a finite set of integer vectors.

    Componentwise: bottom for the empty set, the constant when a coordinate
    projection is a singleton, top otherwise.
    """
    pts = list(points)
    if not pts:
        return ConstVec.bottom(n)
    slots: list[ConstVal] = []
    for i in range(n):
        proj = {p[i] for p in pts}
        slots.append(proj.pop() if len(proj) == 1 else TOP)
    return ConstVec(n, tuple(slots))


def gamma_contains(a: ConstVec, point: tuple[int, ...]) -> bool:
    """Membership of an integer vector in the concretization of ``a``."""
    if a.is_bottom:
        return False
    return all(s is TOP or s == v for s, v in zip(a.comps, point))


# ---------------------------------------------------------------------------
# Best correct approximations of transfer functions
# ---------------------------------------------------------------------------


def eval_linexpr_abstract(e: LinExpr, a: ConstVec) -> ConstVal | None:
    """Abstract value of an affine expression on ``a``.

    None when a is bottom; the exact constant when every slot with a nonzero
    coefficient is constant; top otherwise.
    """
    if a.is_bottom:
        return None
    acc = e.const
    for m, s in zip(e.coeffs, a.comps, strict=True):
        if m == 0:
            continue
        if s is TOP:
            return TOP
        acc += m * s
    return acc


def bca_assign(j: int, e: LinExpr, a: ConstVec) -> ConstVec:
    """Best approximation of the single assignment xj := e."""
    v = eval_linexpr_abstract(e, a)
    if v is None:
        return a  # bottom
    return a.replace(j, v)


def bca_parallel_assign(rows: tuple[LinExpr, ...], a: ConstVec) -> ConstVec:
    """Best approximation of x := M x + b; every row reads the old slots."""
    if a.is_bottom:
        return a
    return ConstVec(a.n, tuple(eval_linexpr_abstract(r, a) for r in rows))


def bca_nondet_assign(j: int, a: ConstVec) -> ConstVec:
    """Best approximation of xj := ? — the target slot becomes top."""
    return a.replace(j, TOP)


def bca_rel_guard(e: LinExpr, rel: str, a: ConstVec) -> ConstVec:
    """Best approximation of the guard e ⋈ 0 for ⋈ in {!=, <, <=, >, >=}.

    When the expression is decided (constant on gamma(a)) the guard either
    keeps the element or kills it; otherwise the expression ranges over all
    of ℤ and the element passes unchanged.
    """
    v = eval_linexpr_abstract(e, a)
    if v is None:
        return a
    if v is TOP:
        return a
    return a if relation_holds(v, rel) else ConstVec.bottom(a.n)


def bca_eq_guard(e: LinExpr, a: ConstVec) -> ConstVec:
    """Best approximation of the equality guard e = 0.

    Cases on a nonbottom vector:

    - the expression is decided: keep ``a`` iff it evaluates to 0;
    - exactly one top slot j carries a nonzero coefficient and the residual
      sum is the constant k: the constraint is m_j·x_j + k = 0, so slot j is
      refined to -k/m_j when m_j divides k and the element dies otherwise;
    - several top slots carry nonzero coefficients: the element dies when
      the residual equation is unsolvable over ℤ (gcd test), else every
      coordinate projection of the solution set is infinite and ``a`` is
      already the best abstraction.
    """
    if a.is_bottom:
        return a
    v = eval_linexpr_abstract(e, a)
    if v is not TOP:
        return a if v == 0 else ConstVec.bottom(a.n)
    free = [i for i, (m, s) in enumerate(zip(e.coeffs, a.comps)) if m != 0 and s is TOP]
    residual = e.const
    for m, s in zip(e.coeffs, a.comps):
        if m != 0 and s is not TOP:
            residual += m * s
    if len(free) == 1:
        m_j = e.coeffs[free[0]]
        if residual % m_j == 0:
            return a.replace(free[0] + 1, -residual // m_j)
        return ConstVec.bottom(a.n)
    g = 0
    for i in free:
        g = gcd(g, e.coeffs[i])
    if residual % g != 0:
        return ConstVec.bottom(a.n)
    return a


def bca_guard(rows: tuple[LinExpr, ...], rel: str, mode: str, a: ConstVec) -> ConstVec:
    """Multi-row guard: disjunction joins per-row results (alpha is additive
    on unions, so this is exact); conjunction composes the per-row
    approximations sequentially (sound, exact when rows touch disjoint
    slots)."""
    one = bca_eq_guard if rel == "=" else lambda e, x: bca_rel_guard(e, rel, x)
    if mode == "disj":
        out = ConstVec.bottom(a.n)
        for r in rows:
            out = join(out, one(r, a))
        return out
    out = a
    for r in rows:
        out = one(r, out)
    return out


# ---------------------------------------------------------------------------
# Rendering and literals
# ---------------------------------------------------------------------------


def render_const(a: ConstVec) -> str:
    if a.is_bottom:
        return "bot"
    return "(" + ",".join("top" if s is TOP else str(s) for s in a.comps) + ")"
