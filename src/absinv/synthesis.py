"""Inductive-invariant synthesis over CFG programs with pluggable domains.

Two engines over vectors of domain elements, one per node:

- ``ainv_forward``: ascending Kleene iteration of the best transformer
  joined with the initial abstraction.  Returns the least abstract
  inductive invariant entailing the safety vector, or the first iterate
  that escapes it.
- ``backward_gfp``: descending co-inductive iteration of an abstract
  weakest-precondition transformer meeting the safety vector (constants
  domain only).  The stabilized iterate is re-verified with the forward
  transformer before being reported — the domain's join is not exact on
  unions, so the descending recipe alone is not a proof.  The check reads
  one forward diff step from the candidate (see ``verify_invariant``).

Both are deterministic: every iterate is canonical, so traces are
reproducible.  Each step recomputes only the nodes that read a node changed
by the previous step and applies only the edges that read one: the node's
value stands in for the others (forward, the chain ascends under monotone
transfers; backward, the value lies below their wp).  The check runs only at
changed nodes whose bound can fail: forward where the safety value is not
top, backward where the initial value is not bottom.  The steps skip the
lattice identities too: forward joins the initial value only where it is not
bottom (⊥ ⊔ a = a); backward meets with the safety value only in the first
step and where it is not top (a ⊓ ⊤ = a), and applies no wp to a target that
is the adapter's ``top()`` object (wp(t, ⊤) = ⊤), so its first step applies
none.  The iterates are those of the full Jacobi step, which recomputes
every node.
A step costs O(changed), not O(N): the diff steps ``abstract_post_diff`` and
``abstract_pret_diff`` return the new values at the nodes they change, and
the engine applies that diff to one working list in place.  A
``SynthesisResult`` holds the start vector, the diffs and the last iterate;
its ``trace`` of full vectors is built on first use.

Each numeric domain is one adapter object, ``ConstAdapter`` or
``AffAdapter`` (by name in ``DOMAINS``): a ``lattice.AbstractDomain`` that
also carries alpha of finite point sets, gamma-membership (``contains``),
rendering and one dispatch ``table`` from (kind, column) to a cell: each
transfer class has a ``"post"`` cell and, for the constants, a ``"wp"``
cell; each init-declaration class an ``"init"`` cell.  A pair without a
cell is a hole: looking it up raises ``UnsupportedDomain``.  Every cell is
a lattice identity or one call, made at call time, into the domain module
(``const_domain`` or ``affine``), which owns the transfers, the wps and the
check of a literal's entries; a wp that can return top is given the
adapter's own ``top``.  So this module keeps only the dispatch and the
engines.  What the two share (n ≥ 1, height n + 1, one ``bottom`` and one
``top`` built per adapter, identity post and the ``top``, ``bot`` and
point-set literals) is their base class ``_NumericDomain``.

``AnalysisProblem`` holds what the steps read: the node names, the edges as
index triples (source, transfer, target), the adapter, and the initial and
safety vectors.  ``build`` makes one from a ``Program``, whose edge triples
it passes through as the same object; any other graph, such as a one-node
finite transition system, can be passed directly.  Either way the vectors
must be over the nodes, and the graph must pass ``programs.check_edges``,
the one check of a graph that every ``Program`` passes too: distinct node
names, edge endpoints that are node indices and, over an adapter with a
``sort``, transfers that fit its n and have entries of that sort in
``programs.SORTS``.  The index pass then lists, per node, its incoming
(source index, transfer) and outgoing (transfer, target index) edges; the
nodes whose initial value is not bottom or whose safety value is not top are
mapped right after.  All four are set at construction.  Both
engines, by name in ``ALGORITHMS``, step their chain of diffs through
``lattice.kleene``; ``StateVector`` is met only at the boundary: the
problem's vectors, the result, and ``abstract_post_step`` and
``abstract_pret_step``, which apply one diff step to a vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, Iterable, Sequence

from . import affine as aff
from . import const_domain as cd
from .lattice import AbstractDomain, kleene, memo
from .programs import (
    Guard,
    Identity,
    InitBot,
    InitConstraints,
    InitDecl,
    InitPoints,
    InitTop,
    InitVector,
    NondetAssign,
    ParallelAffineAssign,
    Program,
    StateVector,
    TOP,
    TransferFunction,
    check_edges,
    post_edges_into,  # noqa: F401 -- unused here; bench/test_bench.py traces it under this name
)


#: The nodes whose value changed in the previous step; None means all nodes.
Changed = Collection[int] | None
#: Node index -> new value, at the nodes whose value one step changed.
Diff = dict[int, Any]


class UnsupportedDomain(ValueError):
    """The requested algorithm/domain combination is not implemented."""


# ---------------------------------------------------------------------------
# Domain adapters
# ---------------------------------------------------------------------------


class _Table(dict):
    """(kind, column) -> cell of one domain; a pair without a cell is a hole."""

    def __missing__(self, key: tuple[type, str]) -> Any:
        raise UnsupportedDomain(f"no {key[1]} cell for {key[0].__name__}")


class _NumericDomain(AbstractDomain):
    """n ≥ 1 variables of one ``sort``, height n + 1, and the cells both tables
    share; ``bottom()`` and ``top()`` return one element each, built once."""

    name: str
    sort: str
    table = _Table({
        (Identity, "post"): lambda self, t, a: a,
        (InitTop, "init"): lambda self, decl: self.top(),
        (InitBot, "init"): lambda self, decl: self.bottom(),
        (InitPoints, "init"): lambda self, decl: self.alpha(decl.points),
    })

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        # from the domain's own cells: alpha of no point, the all-top literal
        self._bottom, self._top = self.alpha(()), self.from_init(InitVector((TOP,) * n))

    def bottom(self) -> Any:
        return self._bottom

    def top(self) -> Any:
        return self._top

    def height(self) -> int:
        """bot < one point < one free variable < ... < n free variables (top)."""
        return self.n + 1

    def from_init(self, decl: InitDecl) -> Any:
        return self.table[type(decl), "init"](self, decl)


class ConstAdapter(_NumericDomain):
    """The constant-propagation lattice on n integer variables."""

    name, sort = "const", "int"

    def leq(self, a: cd.ConstVec, b: cd.ConstVec) -> bool:
        return cd.leq(a, b)

    def join(self, a: cd.ConstVec, b: cd.ConstVec) -> cd.ConstVec:
        return cd.join(a, b)

    def meet(self, a: cd.ConstVec, b: cd.ConstVec) -> cd.ConstVec:
        if a is self._top:
            return b
        if b is self._top:
            return a
        return cd.meet(a, b)

    def alpha(self, points: Iterable[tuple[int, ...]]) -> cd.ConstVec:
        """Best abstraction of a finite set of integer vectors."""
        return cd.alpha_points(points, self.n)

    def contains(self, a: cd.ConstVec, point: tuple[int, ...]) -> bool:
        """Is the integer vector ``point`` in gamma(a)?"""
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        return a is not None and all(s is TOP or s == v for s, v in zip(a, point))

    def transfer(self, t: TransferFunction, a: cd.ConstVec) -> cd.ConstVec:
        return self.table[type(t), "post"](self, t, a)

    def wp(self, t: TransferFunction, target: cd.ConstVec) -> cd.ConstVec:
        """Abstract weakest precondition of one edge, which only backward
        synthesis reads.  Its contract: transfer(t, a) ≤ b implies
        a ≤ wp(t, b), and wp is monotone in its target; so every abstract
        inductive invariant below the property lies below every backward
        iterate.  Not always the best such wp (see
        ``const_domain.wp_parallel_assign`` and ``wp_guard``)."""
        return self.table[type(t), "wp"](self, t, target)

    table = _Table({
        **_NumericDomain.table,
        (Identity, "wp"): lambda self, t, target: target,
        (ParallelAffineAssign, "post"): lambda self, t, a: cd.bca_parallel_assign(t, a),
        (ParallelAffineAssign, "wp"): lambda self, t, target: cd.wp_parallel_assign(t, target, self._top),
        (NondetAssign, "post"): lambda self, t, a: cd.bca_nondet_assign(t.target, a),
        (NondetAssign, "wp"): lambda self, t, target: cd.wp_nondet_assign(t.target, target),
        (Guard, "post"): lambda self, t, a: cd.bca_guard(t.rows, t.rel, t.mode, a),
        (Guard, "wp"): lambda self, t, target: cd.wp_guard(t, target, self._top),
        (InitVector, "init"): lambda self, decl: cd.checked(tuple(decl.entries), self.n),
    })

    def render(self, a: cd.ConstVec) -> str:
        return cd.render_const(a)


class AffAdapter(_NumericDomain):
    """The affine-equalities lattice on n rational variables; it has no wp."""

    name, sort = "affine", "rat"

    def leq(self, a: aff.AffSubspace, b: aff.AffSubspace) -> bool:
        return aff.includes(b, a)

    def join(self, a: aff.AffSubspace, b: aff.AffSubspace) -> aff.AffSubspace:
        return aff.join(a, b)

    def meet(self, a: aff.AffSubspace, b: aff.AffSubspace) -> aff.AffSubspace:
        return aff.meet(a, b)

    def alpha(self, points: Iterable[Sequence]) -> aff.AffSubspace:
        """Best abstraction of a finite point set: its affine hull."""
        return aff.hull_points(points, self.n)

    def contains(self, a: aff.AffSubspace, point: Sequence) -> bool:
        """Is the rational vector ``point`` in gamma(a)?"""
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        return a.contains_point(point)

    def transfer(self, t: TransferFunction, a: aff.AffSubspace) -> aff.AffSubspace:
        return self.table[type(t), "post"](self, t, a)

    table = _Table({
        **_NumericDomain.table,
        (ParallelAffineAssign, "post"): lambda self, t, a: aff.bca_parallel_assign(t, a),
        (NondetAssign, "post"): lambda self, t, a: aff.bca_nondet_assign(t.target, a),
        # != keeps a: sound, not best (bot is exact where the guard is false on all of a)
        (Guard, "post"): lambda self, t, a: aff.bca_eq_guard(t.cleared, t.mode, a) if t.rel == "=" else a,
        (InitVector, "init"): lambda self, decl: aff.from_vector(decl.entries, self.n),
        (InitConstraints, "init"): lambda self, decl: aff.from_equalities(decl.rows, self.n),
    })

    def render(self, a: aff.AffSubspace) -> str:
        text = aff.render_affine(a)
        return text if text in ("top", "bot") else "{" + text + "}"


Adapter = ConstAdapter | AffAdapter

#: Domain name -> adapter class; the CLI offers these names in this order.
DOMAINS: dict[str, type[Adapter]] = {cls.name: cls for cls in (ConstAdapter, AffAdapter)}


# ---------------------------------------------------------------------------
# Analysis problems and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisProblem:
    """An index graph over a domain: nodes, edges, initial states, safety vector.

    ``edges`` are (source index, transfer, target index) triples.  The
    engines call only the adapter's lattice operations, ``height``,
    ``transfer`` and ``wp``, so any domain object with those methods and
    transfers it understands makes a problem.  The edge lists ``preds`` and
    ``succs`` and the maps ``nonbottom_init`` and ``nontop_safety`` are built
    at construction, once ``programs.check_edges`` has checked the graph.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, TransferFunction, int], ...]
    adapter: Adapter
    init: StateVector  # alpha of the declared initial states
    safety: StateVector
    # per node j, the (source index, transfer) pairs of the edges into j
    preds: tuple[tuple[tuple[int, TransferFunction], ...], ...] = field(init=False, repr=False, compare=False)
    # per node j, the (transfer, target index) pairs of the edges out of j
    succs: tuple[tuple[tuple[TransferFunction, int], ...], ...] = field(init=False, repr=False, compare=False)
    # node index -> initial value, where it is not bottom (read only)
    nonbottom_init: dict[int, Any] = field(init=False, repr=False, compare=False)
    # node index -> safety value, where it is not top (read only)
    nontop_safety: dict[int, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_edges(self.nodes, self.edges, getattr(self.adapter, "n", None), getattr(self.adapter, "sort", None))
        into: list[list[tuple[int, TransferFunction]]] = [[] for _ in self.nodes]
        out: list[list[tuple[TransferFunction, int]]] = [[] for _ in self.nodes]
        for src, t, dst in self.edges:
            into[dst].append((src, t))
            out[src].append((t, dst))
        if not self.init.nodes == self.safety.nodes == self.nodes:
            raise ValueError("init and safety must be vectors over the problem's nodes")
        bottom, top = self.adapter.bottom(), self.adapter.top()
        object.__setattr__(self, "preds", tuple(map(tuple, into)))
        object.__setattr__(self, "succs", tuple(map(tuple, out)))
        object.__setattr__(self, "nonbottom_init", {j: a for j, a in enumerate(self.init.values) if a != bottom})
        object.__setattr__(self, "nontop_safety", {j: a for j, a in enumerate(self.safety.values) if a != top})

    @classmethod
    def build(
        cls,
        program: Program,
        domain: str,
        prop: dict[str, InitDecl] | None = None,
    ) -> "AnalysisProblem":
        prop = prop or {}
        for q in prop:
            if q not in program.nodes:
                raise ValueError(f"unknown node {q!r} in property")
        if domain not in DOMAINS:
            raise UnsupportedDomain(f"unknown domain {domain!r}")
        adapter = DOMAINS[domain](program.n)
        if program.sort != adapter.sort:
            raise UnsupportedDomain(
                f"domain {domain!r} requires sort {adapter.sort!r}, program has {program.sort!r}"
            )
        nodes = program.nodes
        inits, bottom, top = dict(program.inits), adapter.bottom(), adapter.top()
        init = StateVector(nodes, tuple(adapter.from_init(inits[q]) if q in inits else bottom for q in nodes))
        safety = StateVector(nodes, tuple(adapter.from_init(prop[q]) if q in prop else top for q in nodes))
        return cls(nodes, program.edges, adapter, init, safety)

    def leq(self, u: StateVector, v: StateVector) -> bool:
        return all(map(self.adapter.leq, u.values, v.values))


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run: the start vector, the per-step diffs and
    the last iterate.

    Iterate k is ``start`` with the first k ``diffs`` applied.  A run that
    finds an invariant ends with it; a run that does not ends with the
    iterate that failed the check ``reason`` names, at step ``steps``.
    ``trace``, the tuple of every iterate, is built on first use.
    """

    found: bool
    kind: str | None  # "least" | "greatest"
    start: StateVector
    diffs: tuple[Diff, ...]
    last: StateVector
    reason: str | None = None  # "property-violated" | "init-not-entailed" | "verification-failed"

    @property
    def steps(self) -> int:
        return len(self.diffs)

    @property
    def invariant(self) -> StateVector | None:
        return self.last if self.found else None

    @memo
    def trace(self) -> tuple[StateVector, ...]:
        vectors = [self.start]
        for diff in self.diffs:
            vectors.append(_applied(vectors[-1], diff))
        return tuple(vectors)


# ---------------------------------------------------------------------------
# Transformers on state vectors
# ---------------------------------------------------------------------------


def _post_diff(problem: AnalysisProblem, x: Sequence, changed: Changed, init: dict[int, Any]) -> Diff:
    """At each node j that reads a node in ``changed`` (None: every node),
    where it differs from ``x[j]``: ``init[j]`` where ``init`` maps j, joined
    with the images of the edges into j (bottom at a node with neither).
    Given ``changed``, only the edges from its nodes are applied; where other
    edges feed j, ``x[j]``, which lies above ``init[j]``, stands in for them."""
    adapter, preds = problem.adapter, problem.preds
    transfer, join = adapter.transfer, adapter.join
    nodes = range(len(x)) if changed is None else {j for i in changed for _, j in problem.succs[i]}
    diff = {}
    for j in nodes:
        ins, acc = preds[j], init.get(j)  # None: nothing yet, as a constant bottom
        if changed is not None and len(ins) > 1:  # a lone in-edge is from a changed node
            ins = [e for e in ins if e[0] in changed]
            acc = x[j] if len(ins) < len(preds[j]) else acc
        for src, t in ins:
            a = transfer(t, x[src])
            acc = a if acc is None else join(acc, a)
        if acc is None:
            acc = adapter.bottom()
        if acc != x[j]:
            diff[j] = acc
    return diff


def _applied(v: StateVector, diff: Diff) -> StateVector:
    """``v`` with ``diff`` applied; the other nodes keep their object."""
    x = list(v.values)
    for j, a in diff.items():
        x[j] = a
    return v.with_values(x)


# No engine calls it; it keeps its name because bench/tracing.py wraps it.
def pure_post_step(problem: AnalysisProblem, v: StateVector) -> StateVector:
    """Best abstract successor: at q', the join of edge images from all sources."""
    return _applied(v, _post_diff(problem, v.values, None, {}))


def abstract_post_diff(problem: AnalysisProblem, x: Sequence, changed: Changed) -> Diff:
    """The diff of one forward step from the iterate ``x``: at each node,
    the initial abstraction joined with the post image.

    ``changed`` holds the nodes where ``x`` differs from the iterate it was
    stepped from (None: all nodes).  Only targets of edges out of a changed
    node are recomputed, and only those edges are applied: the other images
    are already in ``x``.  This gives the full step's iterates because the
    chain ascends, which needs monotone transfers.  The initial value is
    joined only where it is not bottom.
    """
    return _post_diff(problem, x, changed, problem.nonbottom_init)


def abstract_pret_diff(problem: AnalysisProblem, x: Sequence, changed: Changed) -> Diff:
    """The diff of one backward step from the iterate ``x``: at each node,
    the wp-meet over its outgoing edges, then ∩ x ∩ safety.

    At a node with no outgoing edges the wp contribution is the full space.
    ``changed`` is as for :func:`abstract_post_diff`.  Only sources of edges
    into a changed node are recomputed, and only those edges are applied:
    ``x`` already lies below the wp of an unchanged target and, after the
    first step, below the safety value, which is met only where it is not top.
    An edge into a target that is the adapter's ``top()`` object is skipped:
    wp(t, ⊤) = ⊤ by the wp contract, and acc ⊓ ⊤ = acc.
    """
    adapter, succs, safety = problem.adapter, problem.succs, problem.nontop_safety
    wp, meet, top = adapter.wp, adapter.meet, adapter.top()
    nodes = range(len(x)) if changed is None else {j for i in changed for j, _ in problem.preds[i]}
    diff = {}
    for j in nodes:
        acc = old = x[j]
        for t, dst in succs[j]:
            if (changed is None or dst in changed) and x[dst] is not top:
                acc = meet(acc, wp(t, x[dst]))
        if changed is None and j in safety:
            acc = meet(acc, safety[j])
        if acc != old:
            diff[j] = acc
    return diff


def abstract_post_step(problem: AnalysisProblem, v: StateVector, changed: Changed = None) -> StateVector:
    """One forward iteration step: initial abstraction joined with the post
    image, recomputed as :func:`abstract_post_diff` says."""
    return _applied(v, abstract_post_diff(problem, v.values, changed))


def abstract_pret_step(problem: AnalysisProblem, v: StateVector, changed: Changed = None) -> StateVector:
    """One backward iteration step: wp-meet over outgoing edges, then ∩ v ∩
    safety, recomputed as :func:`abstract_pret_diff` says."""
    return _applied(v, abstract_pret_diff(problem, v.values, changed))


def verify_invariant(problem: AnalysisProblem, candidate: StateVector) -> bool:
    """Abstract inductiveness, init ⊔ post(I) ≤ I and I ≤ safety, checked where each can fail:
    at the nodes one forward diff step from I changes (elsewhere it gives I), and where safety is not top."""
    x, leq = candidate.values, problem.adapter.leq
    return all(leq(a, x[j]) for j, a in abstract_post_diff(problem, x, None).items()) and all(
        leq(x[j], b) for j, b in problem.nontop_safety.items()
    )


# ---------------------------------------------------------------------------
# Synthesis algorithms
# ---------------------------------------------------------------------------


def _iterate(
    problem: AnalysisProblem,
    start: StateVector,
    step: Callable[[AnalysisProblem, list, Changed], Diff],
    bounds: dict[int, Any],
    holds: Callable[[Any, Any], bool],
    reason: str,
    kind: str,
) -> SynthesisResult:
    """Kleene chain of ``step`` from ``start``, shared by both engines.

    The chain is one of diffs: the working list ``x`` holds iterate k after
    k steps, ``step`` is told the nodes of the previous diff (None, all
    nodes, for ``start``) and its diff is applied to ``x`` in place.  Before
    an iterate is stepped, ``holds(x[j], bounds[j])`` runs at the nodes of
    its diff that ``bounds`` maps (at each of them for ``start``): only
    there can the check fail.  The first failure ends the run with
    ``reason``.  An empty diff ends it with a found invariant of the given
    ``kind``.  The budget is the domain's height times the node count, plus
    one: no strict chain of state vectors is longer.
    """
    x = list(start.values)
    diffs: list[Diff] = []

    def advance(changed: Changed) -> Diff:
        diff = step(problem, x, changed)
        for j, a in diff.items():
            x[j] = a
        return diff

    budget = problem.adapter.height() * len(x) + 1
    for diff in kleene(advance, None, budget, lambda _, diff: not diff):
        if diff is not None:
            diffs.append(diff)
        for j in bounds if diff is None else diff:
            if j in bounds and not holds(x[j], bounds[j]):
                return SynthesisResult(False, None, start, tuple(diffs), start.with_values(x), reason)
    return SynthesisResult(True, kind, start, tuple(diffs), start.with_values(x))


def ainv_forward(problem: AnalysisProblem) -> SynthesisResult:
    """Least-fixpoint synthesis: ascend from the initial abstraction.

    Checks the safety vector before each step (the first violating iterate
    disproves the existence of any abstract inductive invariant below the
    property); stabilization yields the least abstract inductive invariant.
    """
    return _iterate(
        problem, problem.init, abstract_post_diff,
        problem.nontop_safety, problem.adapter.leq, "property-violated", "least",
    )


def backward_gfp(problem: AnalysisProblem) -> SynthesisResult:
    """Greatest-fixpoint synthesis: descend from the full vector by wp-meets.

    The stabilized iterate is the greatest candidate: by the contract of
    ``ConstAdapter.wp`` every abstract inductive invariant below the property
    lies below it.  It is re-verified with one forward diff step before
    being reported (the wp is not always best, and the domain is not
    union-closed, so only verification makes the certificate
    unconditional); it needs ``wp``.
    """
    if not hasattr(problem.adapter, "wp"):
        raise UnsupportedDomain(f"backward synthesis is not supported for the {problem.adapter.name} domain")
    top_vec = StateVector(problem.nodes, (problem.adapter.top(),) * len(problem.nodes))
    result = _iterate(
        problem, top_vec, abstract_pret_diff,
        problem.nonbottom_init, lambda a, init: problem.adapter.leq(init, a), "init-not-entailed", "greatest",
    )
    if result.found and not verify_invariant(problem, result.invariant):
        return replace(result, found=False, kind=None, reason="verification-failed")
    return result


#: Algorithm name -> engine; the CLI offers these names in this order.
ALGORITHMS = {"forward": ainv_forward, "backward": backward_gfp}


def render_state_vector(adapter: Adapter, v: StateVector) -> dict[str, str]:
    """Node -> rendered element, in node order."""
    return {q: adapter.render(x) for q, x in zip(v.nodes, v.values)}
