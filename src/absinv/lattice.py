"""Order-theoretic core: abstract domains, Galois insertions, closures, fixpoints.

Everything downstream (the numeric domains, the synthesis loops, the finite
ground-truth harness) is built against the small contracts defined here:

- ``AbstractDomain``: a lattice of properties with decidable order and
  computable join/meet, the carrier for invariant synthesis.
- ``GaloisInsertion``: an adjoint pair (alpha, gamma) with alpha surjective,
  linking a concrete domain to an abstract one.
- ``ClosureOperator``: the representation-free equivalent of a Galois
  insertion (upper closures) or of its dual (lower closures).
- ``kleene``, the one Kleene chain that every fixpoint loop in this package
  steps (``lfp_iterate``/``gfp_iterate``, both synthesis engines, the finite
  co-inductive algorithms), and ``check_inductive_invariant``, the one
  inductiveness test.

All values are immutable after construction and every operation is a pure
function, so elements can be shared freely across threads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence


class IterationBudgetExceeded(RuntimeError):
    """Fixpoint iteration did not stabilize within the allowed step count."""


class NotAnInsertion(ValueError):
    """The supplied (alpha, gamma) pair fails alpha ∘ gamma = identity."""


#: Default cap on Kleene iteration steps for clients that cannot promise a
#: finite-height domain.  Generous on purpose: the shipped domains stabilize
#: in a handful of steps and override this with their exact height bounds.
DEFAULT_MAX_STEPS = 10_000


class AbstractDomain(ABC):
    """A complete lattice of properties with computable order and bounds.

    Implementations must canonicalize elements so that structural equality
    (``==``) coincides with semantic equality; ``leq`` antisymmetry is only
    required on canonical forms.
    """

    @abstractmethod
    def leq(self, a: Any, b: Any) -> bool:
        """Partial order: does ``a`` entail (is below) ``b``?"""

    @abstractmethod
    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound of ``a`` and ``b``."""

    @abstractmethod
    def meet(self, a: Any, b: Any) -> Any:
        """Greatest lower bound of ``a`` and ``b``."""

    @abstractmethod
    def bottom(self) -> Any:
        """Least element."""

    @abstractmethod
    def top(self) -> Any:
        """Greatest element."""

    def height(self) -> int | None:
        """Length (in edges) of the longest strict chain, when known."""
        return None


class ProductLattice(AbstractDomain):
    """Index-wise product of a base domain over a finite index set.

    Elements are tuples with one component per index (for programs: one
    abstract element per control node).  All operations are componentwise;
    the chain height is ``size * height(base)``.
    """

    def __init__(self, base: AbstractDomain, size: int):
        if size < 0:
            raise ValueError("product size must be nonnegative")
        self.base = base
        self.size = size

    def leq(self, a: Sequence[Any], b: Sequence[Any]) -> bool:
        return all(self.base.leq(x, y) for x, y in zip(a, b, strict=True))

    def join(self, a: Sequence[Any], b: Sequence[Any]) -> tuple[Any, ...]:
        return tuple(self.base.join(x, y) for x, y in zip(a, b, strict=True))

    def meet(self, a: Sequence[Any], b: Sequence[Any]) -> tuple[Any, ...]:
        return tuple(self.base.meet(x, y) for x, y in zip(a, b, strict=True))

    def bottom(self) -> tuple[Any, ...]:
        return tuple(self.base.bottom() for _ in range(self.size))

    def top(self) -> tuple[Any, ...]:
        return tuple(self.base.top() for _ in range(self.size))

    def height(self) -> int | None:
        h = self.base.height()
        return None if h is None else h * self.size


@dataclass(frozen=True)
class ClosureOperator:
    """A monotone idempotent map that is extensive (upper) or reductive (lower)."""

    apply: Callable[[Any], Any]
    kind: str  # "upper" | "lower"

    def __post_init__(self) -> None:
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"closure kind must be 'upper' or 'lower', got {self.kind!r}")

    def __call__(self, x: Any) -> Any:
        return self.apply(x)


@dataclass(frozen=True)
class GaloisInsertion:
    """An adjoint pair alpha/gamma with alpha surjective (gamma injective).

    ``alpha`` maps a concrete element to its best abstraction, ``gamma`` maps
    an abstract element back to the concrete property it denotes.  The
    adjunction law reads: alpha(c) ≤_A a  iff  c ≤_C gamma(a).  Concrete
    elements may be explicit finite sets or symbolic set descriptions; the
    insertion itself only needs the two maps and the two orders.
    """

    alpha: Callable[[Any], Any]
    gamma: Callable[[Any], Any]
    concrete_leq: Callable[[Any, Any], bool]
    abstract_leq: Callable[[Any, Any], bool]

    def adjunction_holds(self, c: Any, a: Any) -> bool:
        return self.abstract_leq(self.alpha(c), a) == self.concrete_leq(c, self.gamma(a))

    def insertion_holds(self, a: Any) -> bool:
        return self.alpha(self.gamma(a)) == a


def gi_to_closure(gi: GaloisInsertion, abstract_samples: Iterable[Any] | None = None) -> ClosureOperator:
    """Turn a Galois insertion into its induced upper closure gamma ∘ alpha.

    When ``abstract_samples`` is given, the insertion law alpha(gamma(a)) = a
    is checked on them and a failure is rejected (a bare connection whose
    alpha is not surjective does not induce the same closure lattice).
    """
    if abstract_samples is not None:
        for a in abstract_samples:
            if not gi.insertion_holds(a):
                raise NotAnInsertion(f"alpha(gamma(a)) != a for a = {a!r}")
    return ClosureOperator(apply=lambda c: gi.gamma(gi.alpha(c)), kind="upper")


def closure_to_gi(
    mu: Callable[[Any], Any],
    carrier: Iterable[Any],
    concrete_leq: Callable[[Any, Any], bool],
) -> tuple[GaloisInsertion, tuple[Any, ...]]:
    """Turn an upper closure on an enumerable concrete lattice into a GI.

    The abstract domain is the image mu(carrier) ordered by the concrete
    order; alpha is mu itself and gamma is the identity.  Returns the
    insertion together with the image elements (deduplicated, in first-seen
    order).  Round-tripping through :func:`gi_to_closure` gives back a map
    that agrees with ``mu`` on the carrier.
    """
    image: list[Any] = []
    for c in carrier:
        a = mu(c)
        if a not in image:
            image.append(a)
    gi = GaloisInsertion(
        alpha=mu,
        gamma=lambda a: a,
        concrete_leq=concrete_leq,
        abstract_leq=concrete_leq,
    )
    return gi, tuple(image)


def kleene(f: Callable[[Any], Any], start: Any, max_steps: int | None = None) -> Iterator[Any]:
    """Yield the Kleene chain ``start, f(start), ...`` up to its first fixpoint.

    Every iterate is yielded before ``f`` is applied to it, so a consumer
    that stops after k iterates has applied ``f`` exactly k - 1 times.  The
    chain ends at the first iterate x with f(x) == x (structural equality,
    so elements must be canonical).  After ``max_steps + 1`` applications
    of ``f`` (``max_steps`` defaults to :data:`DEFAULT_MAX_STEPS`) without
    a repeat it raises :class:`IterationBudgetExceeded`.
    """
    budget = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    x = start
    for _ in range(budget + 1):
        yield x
        fx = f(x)
        if fx == x:
            return
        x = fx
    raise IterationBudgetExceeded(f"no fixpoint within {budget} steps")


def lfp_iterate(
    f: Callable[[Any], Any],
    start: Any,
    *,
    max_steps: int | None = None,
) -> Any:
    """Least fixpoint of a monotone ``f`` above ``start`` by Kleene iteration.

    ``start`` must be a pre-fixpoint (start ≤ f(start)), e.g. the bottom
    element.  Stabilization is detected by structural equality, so elements
    must be canonical.  Raises :class:`IterationBudgetExceeded` under the
    budget of :func:`kleene` — the signal that no ascending-chain guarantee
    held.
    """
    for x in kleene(f, start, max_steps):
        pass
    return x


def gfp_iterate(
    f: Callable[[Any], Any],
    start: Any,
    *,
    max_steps: int | None = None,
) -> Any:
    """Greatest fixpoint of a monotone ``f`` below ``start`` (dual Kleene).

    ``start`` must be a post-fixpoint (f(start) ≤ start), e.g. the top
    element.  Same budget contract as :func:`lfp_iterate`.
    """
    for x in kleene(f, start, max_steps):
        pass
    return x


def check_inductive_invariant(
    f: Callable[[Any], Any],
    c: Any,
    cp: Any,
    i: Any,
    leq: Callable[[Any, Any], bool],
) -> bool:
    """Is ``i`` an inductive invariant of ``f`` for the pair (c, cp)?

    True iff c ≤ i, f(i) ≤ i and i ≤ cp.  This is the fixpoint-induction
    certificate: its existence is equivalent to lfp(λx. c ∨ f(x)) ≤ cp.
    """
    return leq(c, i) and leq(f(i), i) and leq(i, cp)
