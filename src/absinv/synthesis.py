"""Inductive-invariant synthesis over CFG programs with pluggable domains.

Two engines over the node-indexed product lattice:

- ``ainv_forward``: ascending Kleene iteration of the best transformer
  joined with the initial abstraction.  Returns the least abstract
  inductive invariant entailing the safety vector, or the first iterate
  that escapes it.
- ``backward_gfp``: descending co-inductive iteration of an abstract
  weakest-precondition transformer meeting the safety vector (constants
  domain only).  The stabilized iterate is re-verified with the forward
  transformer before being reported — the domain's join is not exact on
  unions, so the descending recipe alone is not a proof.

Both are deterministic: nodes are processed in declaration order and every
iterate is canonical, so traces are reproducible.

``AnalysisProblem`` holds what the steps read: the product lattice of the
domain over the nodes, computed by ``build``, and per node the index lists
of its incoming (source index, transfer) and outgoing (transfer, target
index) edges, each computed once on first use.  The steps work on
``StateVector.values`` by node index and join or meet whole vectors through
the product; both engines step their iterates through ``lattice.kleene``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import affine as aff
from . import const_domain as cd
from .lattice import AbstractDomain, ProductLattice, check_inductive_invariant, kleene
from .programs import (
    EqGuard,
    Identity,
    InitBot,
    InitConstraints,
    InitDecl,
    InitPoints,
    InitTop,
    InitVector,
    LinExpr,
    NondetAssign,
    ParallelAffineAssign,
    Program,
    RelGuard,
    StateVector,
    TOP_ENTRY,
    TransferFunction,
    out_edges,
    post_edges_into,
    relation_holds,
)


class UnsupportedDomain(ValueError):
    """The requested algorithm/domain combination is not implemented."""


# ---------------------------------------------------------------------------
# Domain adapters
# ---------------------------------------------------------------------------


class ConstAdapter:
    """Constant-propagation domain bound to an n-variable integer program."""

    sort = "int"

    def __init__(self, n: int):
        self.n = n
        self.domain: AbstractDomain = cd.ConstDomain(n)

    def transfer(self, t: TransferFunction, a: cd.ConstVec) -> cd.ConstVec:
        if isinstance(t, Identity):
            return a
        if isinstance(t, ParallelAffineAssign):
            return cd.bca_parallel_assign(t.rows, a)
        if isinstance(t, NondetAssign):
            return cd.bca_nondet_assign(t.target, a)
        if isinstance(t, EqGuard):
            return cd.bca_guard(t.rows, "=", t.mode, a)
        if isinstance(t, RelGuard):
            return cd.bca_guard(t.rows, t.rel, t.mode, a)
        raise TypeError(f"unknown transfer function {t!r}")

    def wp(self, t: TransferFunction, target: cd.ConstVec) -> cd.ConstVec:
        """Sound abstraction of the weakest precondition of one edge.

        Assignments turn each constant target slot into an equality
        constraint on the old values (exact for single-constant targets);
        guards are approximated by the full space unless decided.
        """
        if isinstance(t, Identity):
            return target
        if isinstance(t, ParallelAffineAssign):
            if target.is_bottom:
                return target
            w = cd.ConstVec.top(self.n)
            for row, slot in zip(t.rows, target.comps):
                if slot is cd.TOP:
                    continue
                w = cd.bca_eq_guard(LinExpr(row.coeffs, row.const - slot), w)
                if w.is_bottom:
                    break
            return w
        if isinstance(t, NondetAssign):
            if target.is_bottom:
                return target
            if target.comps[t.target - 1] is cd.TOP:
                return target
            return cd.ConstVec.bottom(self.n)
        if isinstance(t, (EqGuard, RelGuard)):
            rel = "=" if isinstance(t, EqGuard) else t.rel
            if all(r.is_constant() for r in t.rows):
                outcomes = [relation_holds(r.const, rel) for r in t.rows]
                holds = all(outcomes) if t.mode == "conj" else any(outcomes)
                return target if holds else cd.ConstVec.top(self.n)
            return cd.ConstVec.top(self.n)
        raise TypeError(f"unknown transfer function {t!r}")

    def from_init(self, decl: InitDecl) -> cd.ConstVec:
        if isinstance(decl, InitTop):
            return cd.ConstVec.top(self.n)
        if isinstance(decl, InitBot):
            return cd.ConstVec.bottom(self.n)
        if isinstance(decl, InitVector):
            slots = tuple(cd.TOP if e == TOP_ENTRY else int(e) for e in decl.entries)
            return cd.ConstVec(self.n, slots)
        if isinstance(decl, InitPoints):
            return cd.alpha_points(decl.points, self.n)
        raise UnsupportedDomain("constraint literals are not constant-domain elements")

    def render(self, a: cd.ConstVec) -> str:
        return cd.render_const(a)


class AffAdapter:
    """Affine-equalities domain bound to an n-variable rational program."""

    sort = "rat"

    def __init__(self, n: int):
        self.n = n
        self.domain: AbstractDomain = aff.AffDomain(n)

    def transfer(self, t: TransferFunction, a: aff.AffSubspace) -> aff.AffSubspace:
        if isinstance(t, Identity):
            return a
        if isinstance(t, ParallelAffineAssign):
            return aff.bca_parallel_assign(t.rows, a)
        if isinstance(t, NondetAssign):
            return aff.bca_nondet_assign(t.target, a)
        if isinstance(t, EqGuard):
            return aff.bca_eq_guard(t.rows, t.mode, a)
        if isinstance(t, RelGuard):
            if t.rel != "!=":
                raise UnsupportedDomain(f"guard relation {t.rel!r} has no affine approximation")
            return aff.guard_neq_identity(a)
        raise TypeError(f"unknown transfer function {t!r}")

    def from_init(self, decl: InitDecl) -> aff.AffSubspace:
        if isinstance(decl, InitTop):
            return aff.AffSubspace.full(self.n)
        if isinstance(decl, InitBot):
            return aff.AffSubspace.empty(self.n)
        if isinstance(decl, InitVector):
            from fractions import Fraction

            rows = []
            for i, e in enumerate(decl.entries):
                if e == TOP_ENTRY:
                    continue
                coeffs = [Fraction(0)] * self.n
                coeffs[i] = Fraction(1)
                rows.append(LinExpr(tuple(coeffs), -Fraction(e)))
            return aff.from_equalities(rows, self.n)
        if isinstance(decl, InitPoints):
            return aff.hull_points(decl.points, self.n)
        if isinstance(decl, InitConstraints):
            return aff.from_equalities(decl.rows, self.n)
        raise TypeError(f"unknown init declaration {decl!r}")

    def render(self, a: aff.AffSubspace) -> str:
        text = aff.render_affine(a)
        return text if text in ("top", "bot") else "{" + text + "}"


Adapter = ConstAdapter | AffAdapter

#: Domain name -> adapter class; the CLI offers these names in this order.
DOMAINS: dict[str, type[Adapter]] = {"const": ConstAdapter, "affine": AffAdapter}


def make_adapter(program: Program, domain: str) -> Adapter:
    if domain not in DOMAINS:
        raise UnsupportedDomain(f"unknown domain {domain!r}")
    adapter = DOMAINS[domain](program.n)
    if program.sort != adapter.sort:
        raise UnsupportedDomain(
            f"domain {domain!r} requires sort {adapter.sort!r}, program has {program.sort!r}"
        )
    return adapter


# ---------------------------------------------------------------------------
# Analysis problems and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisProblem:
    """A program, a domain, the abstracted initial states, and a safety vector.

    ``lattice`` is the product of the domain over the nodes.  The edge lists
    ``preds`` and ``succs`` are built on first use, so a forward run never
    builds ``succs``.
    """

    program: Program
    adapter: Adapter
    init: StateVector  # alpha of the declared initial states
    safety: StateVector
    lattice: ProductLattice

    @classmethod
    def build(
        cls,
        program: Program,
        domain: str,
        prop: dict[str, InitDecl] | None = None,
    ) -> "AnalysisProblem":
        adapter = make_adapter(program, domain)
        init = StateVector(
            program.nodes,
            tuple(adapter.from_init(program.init_decl(q)) for q in program.nodes),
        )
        top = adapter.domain.top()
        prop = prop or {}
        safety = StateVector(
            program.nodes,
            tuple(adapter.from_init(prop[q]) if q in prop else top for q in program.nodes),
        )
        lattice = ProductLattice(adapter.domain, len(program.nodes))
        return cls(program, adapter, init, safety, lattice)

    @cached_property
    def preds(self) -> tuple[tuple[tuple[int, TransferFunction], ...], ...]:
        """Per node j, the (source index, transfer) pairs of the edges into j."""
        nodes = self.program.nodes
        index = {q: j for j, q in enumerate(nodes)}
        return tuple(
            tuple((index[src], t) for src, t in post_edges_into(self.program, q)) for q in nodes
        )

    @cached_property
    def succs(self) -> tuple[tuple[tuple[TransferFunction, int], ...], ...]:
        """Per node j, the (transfer, target index) pairs of the edges out of j."""
        nodes = self.program.nodes
        index = {q: j for j, q in enumerate(nodes)}
        return tuple(
            tuple((t, index[dst]) for t, dst in out_edges(self.program, q)) for q in nodes
        )

    def leq(self, u: StateVector, v: StateVector) -> bool:
        return self.lattice.leq(u.values, v.values)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run, with the full iterate trace."""

    found: bool
    kind: str | None  # "least" | "greatest"
    invariant: StateVector | None
    trace: tuple[StateVector, ...]
    step: int | None = None  # failing step index for a negative outcome
    violating: StateVector | None = None
    reason: str | None = None  # "property-violated" | "init-not-entailed" | "verification-failed"


# ---------------------------------------------------------------------------
# Transformers on state vectors
# ---------------------------------------------------------------------------


def pure_post_step(problem: AnalysisProblem, v: StateVector) -> StateVector:
    """Best abstract successor: at q', the join of edge images from all sources."""
    adapter = problem.adapter
    dom = adapter.domain
    x = v.values
    out = []
    for edges in problem.preds:
        acc = dom.bottom()
        for src, t in edges:
            acc = dom.join(acc, adapter.transfer(t, x[src]))
        out.append(acc)
    return v.with_values(out)


def abstract_post_step(problem: AnalysisProblem, v: StateVector) -> StateVector:
    """One forward iteration step: initial abstraction joined with the post image."""
    stepped = pure_post_step(problem, v)
    return v.with_values(problem.lattice.join(problem.init.values, stepped.values))


def abstract_pret_step(problem: AnalysisProblem, v: StateVector) -> StateVector:
    """One backward iteration step: wp-meet over outgoing edges, then ∩ v ∩ safety.

    At a node with no outgoing edges the wp contribution is the full space.
    """
    adapter = problem.adapter
    dom = adapter.domain
    x = v.values
    wps = []
    for edges in problem.succs:
        acc = dom.top()
        for t, dst in edges:
            acc = dom.meet(acc, adapter.wp(t, x[dst]))
        wps.append(acc)
    lattice = problem.lattice
    return v.with_values(lattice.meet(lattice.meet(wps, x), problem.safety.values))


def verify_invariant(problem: AnalysisProblem, candidate: StateVector) -> bool:
    """Abstract inductiveness: init ≤ I, post(I) ≤ I, I ≤ safety."""
    return check_inductive_invariant(
        lambda i: pure_post_step(problem, i), problem.init, problem.safety, candidate, problem.leq
    )


# ---------------------------------------------------------------------------
# Synthesis algorithms
# ---------------------------------------------------------------------------


def _iterate(
    problem: AnalysisProblem,
    start: StateVector,
    step: Callable[[AnalysisProblem, StateVector], StateVector],
    check: Callable[[StateVector], bool],
    reason: str,
    kind: str,
) -> SynthesisResult:
    """Kleene chain of ``step`` from ``start``, shared by both engines.

    ``check`` runs on every iterate before it is stepped; the first iterate
    failing it ends the run with ``reason``.  A repeated iterate is reported
    as a found invariant of the given ``kind``.  The budget is the height of
    the product lattice plus one.
    """
    trace = []
    for current in kleene(lambda v: step(problem, v), start, problem.lattice.height() + 1):
        trace.append(current)
        if not check(current):
            return SynthesisResult(
                False, None, None, tuple(trace), step=len(trace) - 1, violating=current, reason=reason
            )
    return SynthesisResult(True, kind, current, tuple(trace))


def ainv_forward(problem: AnalysisProblem) -> SynthesisResult:
    """Least-fixpoint synthesis: ascend from the initial abstraction.

    Checks the safety vector before each step (the first violating iterate
    disproves the existence of any abstract inductive invariant below the
    property); stabilization yields the least abstract inductive invariant.
    """
    return _iterate(
        problem, problem.init, abstract_post_step,
        lambda v: problem.leq(v, problem.safety), "property-violated", "least",
    )


def backward_gfp(problem: AnalysisProblem) -> SynthesisResult:
    """Greatest-fixpoint synthesis: descend from the full vector by wp-meets.

    The stabilized iterate is the greatest candidate; it is re-verified with
    the forward transformer before being reported (the wp abstraction is
    sound but the domain is not union-closed, so verification is what makes
    the certificate unconditional).  Constants domain only.
    """
    if isinstance(problem.adapter, AffAdapter):
        raise UnsupportedDomain("backward synthesis is not supported for the affine domain")
    top_vec = StateVector(problem.program.nodes, problem.lattice.top())
    result = _iterate(
        problem, top_vec, abstract_pret_step,
        lambda v: problem.leq(problem.init, v), "init-not-entailed", "greatest",
    )
    if result.found and not verify_invariant(problem, result.invariant):
        return SynthesisResult(
            False, None, None, result.trace, step=len(result.trace) - 1,
            violating=result.invariant, reason="verification-failed",
        )
    return result


def synthesize(problem: AnalysisProblem, algorithm: str) -> SynthesisResult:
    if algorithm == "forward":
        return ainv_forward(problem)
    if algorithm == "backward":
        return backward_gfp(problem)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def render_state_vector(adapter: Adapter, v: StateVector) -> str:
    return " ".join(f"{q}={adapter.render(x)}" for q, x in zip(v.nodes, v.values))
