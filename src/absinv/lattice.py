"""Order-theoretic core: abstract domains, fixpoints.

Everything downstream (the numeric domains, the synthesis loops, the finite
ground-truth harness) is built against the small contracts defined here:

- ``AbstractDomain``: a lattice of properties with decidable order and
  computable join/meet, the carrier for invariant synthesis.  Each numeric
  domain is one such object (``synthesis.ConstAdapter``/``AffAdapter``)
  that also carries its alpha, gamma-membership and transfers.
- ``kleene``, the one Kleene chain that every fixpoint loop in this package
  steps (both synthesis engines, whose chain is one of per-step diffs that
  ends at an empty diff, the finite co-inductive algorithms, and
  ``lfp_iterate(f, start)``/``gfp_iterate(f, start)``, which return the
  chain's last iterate under the default budget), and
  ``check_inductive_invariant``, the one inductiveness test.

All values are immutable after construction and every operation is a pure
function, so elements can be shared freely across threads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator


class IterationBudgetExceeded(RuntimeError):
    """Fixpoint iteration did not stabilize within the allowed step count."""


#: Default cap on Kleene iteration steps for clients that cannot promise a
#: finite-height domain.  Generous on purpose: the shipped domains stabilize
#: in a handful of steps and override this with their exact height bounds.
DEFAULT_MAX_STEPS = 10_000


class memo:
    """A ``cached_property`` without its lock: the first read stores the
    value in the instance's ``__dict__``, where later reads find it before
    this non-data descriptor, and assignment still goes through the class.
    For immutable values only: two threads that race on a first read store
    equal values."""

    def __init__(self, func: Callable[[Any], Any]):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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


def kleene(
    f: Callable[[Any], Any],
    start: Any,
    max_steps: int | None = None,
    stable: Callable[[Any, Any], bool] | None = None,
) -> Iterator[Any]:
    """Yield the Kleene chain ``start, f(start), ...`` up to its first fixpoint.

    Every iterate is yielded before ``f`` is applied to it, so a consumer
    that stops after k iterates has applied ``f`` exactly k - 1 times.  The
    chain ends at the first iterate x with f(x) == x (structural equality,
    so elements must be canonical), or, given ``stable``, with
    ``stable(x, f(x))``: a chain of per-step changes ends at the first empty
    one.  After ``max_steps + 1`` applications of ``f`` (``max_steps``
    defaults to :data:`DEFAULT_MAX_STEPS`) without a repeat it raises
    :class:`IterationBudgetExceeded`.
    """
    budget = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    x = start
    for _ in range(budget + 1):
        yield x
        fx = f(x)
        if (fx == x) if stable is None else stable(x, fx):
            return
        x = fx
    raise IterationBudgetExceeded(f"no fixpoint within {budget} steps")


def lfp_iterate(f: Callable[[Any], Any], start: Any) -> Any:
    """Least fixpoint of a monotone ``f`` above ``start`` by Kleene iteration.

    ``start`` must be a pre-fixpoint (start ≤ f(start)), e.g. the bottom
    element.  Stabilization is detected by structural equality, so elements
    must be canonical.  Raises :class:`IterationBudgetExceeded` under the
    default budget of :func:`kleene` (:data:`DEFAULT_MAX_STEPS`) — the
    signal that no ascending-chain guarantee held.
    """
    for x in kleene(f, start):
        pass
    return x


def gfp_iterate(f: Callable[[Any], Any], start: Any) -> Any:
    """Greatest fixpoint of a monotone ``f`` below ``start`` (dual Kleene).

    ``start`` must be a post-fixpoint (f(start) ≤ start), e.g. the top
    element.  Same budget contract as :func:`lfp_iterate`.
    """
    for x in kleene(f, start):
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
