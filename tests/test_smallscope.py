"""A small-scope oracle for the constant domain's verdicts.

``BoxAdapter`` is ``ConstAdapter`` with every post computed from the
concrete semantics: α(t(γ(a) ∩ box)), where a top slot ranges over
[-B, B] and a constant slot keeps its value; ``xj := ?`` is exact (slot j
set to top).  ``ainv_forward`` over it computes the least fixpoint of these
box transfers, so, by the paper's theorem, an abstract inductive invariant
exists exactly when that fixpoint stays below the property, as long as the
box transfers equal the best ones.

Why small boxes suffice: ``random_program`` draws coefficients in [-2, 2]
and constants in [-3, 3], and init points in [-4, 4], so the rows of a
guard or an assignment meet their solution sets, and separate two solutions
of one slot, well inside [-7, 7].  A box that still cuts a solution set
short shows as a verdict that changes between B = 7 and B = 14; such runs
are counted, left out of the comparison, and may be at most 1 % of the
runs.

Known faults, named rather than hidden: the constant domain's transfer of
a conjunctive guard with two or more rows is sound but not best, for ``=``
rows and for inequality rows, so forward may end ``property-violated`` where
an invariant exists; backward's re-verification may end
``verification-failed`` where one exists.  Every other disagreement with
the oracle fails the test.
"""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from absinv import const_domain as cd
from absinv import programs as pg
from absinv.synthesis import AnalysisProblem, ConstAdapter, ainv_forward, backward_gfp
from conftest import random_const_vec, random_program

BOXES = (7, 14)
INEQUALITIES = frozenset(("<", "<=", ">", ">="))


class BoxAdapter(ConstAdapter):
    """``ConstAdapter`` whose post is α(t(γ(a) ∩ [-B, B]^n)), and exact for ``xj := ?``."""

    def __init__(self, n: int, bound: int):
        super().__init__(n)
        self.box = range(-bound, bound + 1)
        self.memo: dict = {}

    def transfer(self, t, a):
        key = (t, a)
        if key not in self.memo:
            if a is None:
                self.memo[key] = a
            elif isinstance(t, pg.NondetAssign):
                self.memo[key] = a[: t.target - 1] + (cd.TOP,) + a[t.target:]
            else:
                points = itertools.product(*(self.box if s is cd.TOP else (s,) for s in a))
                self.memo[key] = cd.alpha_points(pg.apply_transfer_concrete(t, points), self.n)
        return self.memo[key]


def over(problem: AnalysisProblem, adapter, prop: cd.ConstVec) -> AnalysisProblem:
    """``problem`` over ``adapter``, with ``prop`` as the property at its last node."""
    safety = problem.init.with_values((adapter.top(),) * (len(problem.nodes) - 1) + (prop,))
    return AnalysisProblem(problem.nodes, problem.edges, adapter, problem.init, safety)


def named_fault(program: pg.Program, alg: str, result) -> str | None:
    """The known fault that explains ``result`` missing an existing invariant, if any."""
    if alg == "backward":
        return "backward verification-failed" if result.reason == "verification-failed" else None
    if result.reason != "property-violated":
        return None
    rels = {
        t.rel for _, t, _ in program.edges
        if isinstance(t, pg.Guard) and t.mode == "conj" and len(t.rows) > 1
    }
    if "=" in rels:
        return "forward conjunctive multi-row ="
    return "forward conjunctive multi-row inequality" if rels & INEQUALITIES else None


def disagreements(program: pg.Program, prop: cd.ConstVec, exists: bool) -> dict[str, str | None]:
    """Per engine whose ``found`` is not ``exists``: the named fault, or None."""
    problem = over(AnalysisProblem.build(program, "const"), ConstAdapter(program.n), prop)
    out = {}
    for alg, engine in (("forward", ainv_forward), ("backward", backward_gfp)):
        result = engine(problem)
        if result.found != exists:
            out[alg] = named_fault(program, alg, result) if exists else None
    return out


BACKWARD = {"backward": "backward verification-failed"}


@pytest.mark.parametrize(
    "text, prop, faults",
    [
        (
            "vars 2; sort int; nodes q1 q2 q3; init q3: (top,-2);"
            " edge q1 -> q2 : x2 := -2*x1+x2; edge q2 -> q3 : skip;",
            (cd.TOP, -2),
            BACKWARD,
        ),
        (
            "vars 2; sort int; nodes q1 q2; init q1: (1,1); edge q1 -> q2 : x1 := x1 + x2, x2 := x1 - x2;",
            (2, 0),
            BACKWARD,
        ),
        (
            "vars 2; sort int; nodes q1 q2; init q1: top; edge q1 -> q2 : assume x1 + x2 = 0 and x1 - x2 = 0;",
            (0, 0),
            {"forward": "forward conjunctive multi-row =", **BACKWARD},
        ),
        (
            "vars 1; sort int; nodes q1 q2; init q1: top; edge q1 -> q2 : assume x1 <= 0 and -x1 <= 0;",
            (0,),
            {"forward": "forward conjunctive multi-row inequality", **BACKWARD},
        ),
        (
            # the wp of x1 := x1 + x2 at (5,3) decides slot 1 before it has
            # set the unassigned slot 2, so it reads x2 as top
            "vars 2; sort int; nodes q1 q2; init q1: (2,3); edge q1 -> q2 : x1 := x1 + x2;",
            (5, 3),
            BACKWARD,
        ),
    ],
    ids=["backward-chain", "backward-swap", "forward-eq-pair", "forward-le-pair", "backward-slot-order"],
)
def test_known_faults_where_an_invariant_exists(text, prop, faults):
    """Programs where the oracle finds an invariant and an engine, by a named
    fault, does not (rows 1-4 of the ROADMAP's table of unsound no-invariant
    verdicts, and the constant assignment wp's slot order); mending a fault
    removes its entries from ``faults``."""
    program = pg.parse_program(text)
    base = AnalysisProblem.build(program, "const")
    assert all(ainv_forward(over(base, BoxAdapter(program.n, b), prop)).found for b in BOXES)
    assert disagreements(program, prop, True) == faults


def test_engines_agree_with_the_box_oracle():
    """1,500 runs: 750 random programs, each with two properties at its last
    node, the oracle's own least invariant there and a random element.  On
    runs where both boxes agree, forward and backward ``found`` equal the
    oracle's verdict except by a named fault; the counts are printed."""
    counts: collections.Counter = collections.Counter()
    for k in range(750):
        rng = random.Random(f"smallscope:b:{k}")
        program = random_program(rng, "int", max_vars=2, max_nodes=4)
        base = AnalysisProblem.build(program, "const")
        boxes = [BoxAdapter(program.n, b) for b in BOXES]
        least = ainv_forward(over(base, boxes[-1], boxes[-1].top())).last.values[-1]
        for prop in (least, random_const_vec(rng, program.n)):
            verdicts = {ainv_forward(over(base, box, prop)).found for box in boxes}
            if len(verdicts) > 1:
                counts["boxes disagree"] += 1
                continue
            exists = verdicts.pop()
            counts[f"exists {exists}"] += 1
            for alg, fault in disagreements(program, prop, exists).items():
                assert fault is not None, (k, alg, exists, prop, pg.print_program(program))
                counts[fault] += 1
    print(dict(sorted(counts.items())))
    runs = counts["exists True"] + counts["exists False"] + counts["boxes disagree"]
    assert runs == 1500 and counts["boxes disagree"] <= runs // 100
    assert min(counts["exists True"], counts["exists False"]) >= 300
