"""Abstract inductive-invariant synthesis over abstract-interpretation domains.

Subpackages:

- ``lattice``: order-theoretic core (domain contract, fixpoints)
- ``programs``: CFG program model, transfer functions, text format
- ``const_domain``: constant-propagation elements and transfer functions
- ``affine``: affine-equality elements over exact rationals and transfers
- ``synthesis``: one adapter object per numeric domain, and the forward
  lfp and backward co-inductive gfp engines
- ``finite``: exhaustive finite-instance oracle harness
- ``cli``: the ``absinv`` command
"""

from .lattice import AbstractDomain
from .programs import Program, StateVector, parse_program, print_program
from .synthesis import AnalysisProblem, SynthesisResult, ainv_forward, backward_gfp

__version__ = "0.1.0"

__all__ = [
    "AbstractDomain",
    "AnalysisProblem",
    "Program",
    "StateVector",
    "SynthesisResult",
    "ainv_forward",
    "backward_gfp",
    "parse_program",
    "print_program",
]
