"""Abstract inductive-invariant synthesis over abstract-interpretation domains.

Subpackages:

- ``lattice``: order-theoretic core (domains, Galois insertions, fixpoints)
- ``programs``: CFG program model, transfer functions, text format
- ``const_domain``: constant propagation with best transfer approximations
- ``affine``: affine equalities over exact rationals
- ``synthesis``: forward lfp and backward co-inductive gfp engines
- ``finite``: exhaustive finite-instance oracle harness
- ``cli``: the ``absinv`` command
"""

from .lattice import (
    AbstractDomain,
    ClosureOperator,
    GaloisInsertion,
    ProductLattice,
    check_inductive_invariant,
    closure_to_gi,
    gfp_iterate,
    gi_to_closure,
    lfp_iterate,
)
from .programs import Program, StateVector, parse_program, print_program
from .synthesis import (
    AnalysisProblem,
    SynthesisResult,
    abstract_post_step,
    abstract_pret_step,
    ainv_forward,
    backward_gfp,
    synthesize,
    verify_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractDomain",
    "AnalysisProblem",
    "ClosureOperator",
    "GaloisInsertion",
    "ProductLattice",
    "Program",
    "StateVector",
    "SynthesisResult",
    "abstract_post_step",
    "abstract_pret_step",
    "ainv_forward",
    "backward_gfp",
    "check_inductive_invariant",
    "closure_to_gi",
    "gfp_iterate",
    "gi_to_closure",
    "lfp_iterate",
    "parse_program",
    "print_program",
    "synthesize",
    "verify_invariant",
]
