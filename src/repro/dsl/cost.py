"""Heuristic cost function θ used to rank candidate programs (Section 6).

The paper's ranking is an Occam's-razor heuristic: among programs consistent
with the examples, prefer the one with

1. the fewest *atomic predicates* in the row filter, then
2. the fewest constructs in the column extractors.

We extend the tuple with two deterministic tie-breakers (the number of
boolean connectives in the row filter and the pretty-printed text) so that
synthesis results are reproducible run-to-run, which the evaluation harness
relies on.
"""

from __future__ import annotations

from typing import Tuple

from .ast import And, Not, Or, Predicate, Program
from .pretty import pretty_program

CostTuple = Tuple[int, int, int, str]


def program_cost(program: Program) -> CostTuple:
    """The cost tuple θ(P); lower tuples are simpler programs."""
    return (
        program.num_atomic_predicates(),
        program.num_extractor_constructs(),
        _connective_count(program.predicate),
        pretty_program(program),
    )


def _connective_count(predicate: Predicate) -> int:
    """Number of boolean connectives (``and``, ``or``, ``not``), a secondary
    simplicity signal."""
    if isinstance(predicate, (And, Or)):
        return 1 + _connective_count(predicate.left) + _connective_count(predicate.right)
    if isinstance(predicate, Not):
        return 1 + _connective_count(predicate.operand)
    return 0


def simpler(a: Program, b: Program) -> Program:
    """Return the simpler of two programs according to θ."""
    return a if program_cost(a) <= program_cost(b) else b
