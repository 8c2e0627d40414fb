"""Conversion of DSL predicates to conjunctive normal form.

Appendix C of the paper optimizes a synthesized program by converting its
filter predicate φ into a CNF formula φ1 ∧ ... ∧ φm and splitting the clauses
into those that can *guide* table generation (equality comparisons between two
columns, which become join conditions) and the residual clauses that are
applied as a post-filter.

This module provides the CNF conversion.  Since synthesized predicates are
small (the paper reports 2.6 atomic predicates on average), the standard
distributive conversion is perfectly adequate; a safety valve caps the blow-up
and falls back to treating the whole formula as a single opaque clause.
"""

from __future__ import annotations

from typing import List, Sequence

from ..dsl.ast import (
    And,
    CompareConst,
    CompareNodes,
    False_,
    Not,
    Or,
    Predicate,
    True_,
    conjoin,
    disjoin,
)

#: A clause is a disjunction of literals; a literal is an atomic predicate or
#: its negation.  We keep clauses as lists of Predicate literals.
Clause = List[Predicate]


def push_negations(predicate: Predicate) -> Predicate:
    """Negation normal form: push ¬ down to the literals (De Morgan)."""
    if isinstance(predicate, Not):
        inner = predicate.operand
        if isinstance(inner, Not):
            return push_negations(inner.operand)
        if isinstance(inner, And):
            return Or(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        if isinstance(inner, Or):
            return And(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        if isinstance(inner, True_):
            return False_()
        if isinstance(inner, False_):
            return True_()
        return predicate  # negated literal
    if isinstance(predicate, And):
        return And(push_negations(predicate.left), push_negations(predicate.right))
    if isinstance(predicate, Or):
        return Or(push_negations(predicate.left), push_negations(predicate.right))
    return predicate


def to_cnf_clauses(predicate: Predicate, *, max_clauses: int = 64) -> List[Clause]:
    """Convert a predicate to a list of CNF clauses (each a list of literals).

    ``True_`` converts to the empty clause list; ``False_`` to a single empty
    clause (unsatisfiable).  If the distributive conversion would exceed
    ``max_clauses`` clauses, the original formula is returned as one opaque
    single-literal clause, which keeps the optimizer semantics-preserving.
    """
    nnf = push_negations(predicate)
    clauses = _cnf(nnf)
    if len(clauses) > max_clauses:
        return [[predicate]]
    return clauses


def _cnf(predicate: Predicate) -> List[Clause]:
    if isinstance(predicate, True_):
        return []
    if isinstance(predicate, False_):
        return [[]]
    if isinstance(predicate, And):
        return _cnf(predicate.left) + _cnf(predicate.right)
    if isinstance(predicate, Or):
        left = _cnf(predicate.left)
        right = _cnf(predicate.right)
        if not left or not right:
            return []
        return [l + r for l in left for r in right]
    return [[predicate]]


def clauses_to_predicate(clauses: Sequence[Clause]) -> Predicate:
    """Rebuild a predicate AST from CNF clauses."""
    if not clauses:
        return True_()
    return conjoin(disjoin(clause) for clause in clauses)


def is_single_column_clause(clause: Clause) -> bool:
    """Does every literal of the clause refer to a single, common column?

    Such clauses can be pushed down and applied while scanning that column,
    before any join, shrinking the intermediate result.
    """
    columns = set()
    for literal in clause:
        target = literal.operand if isinstance(literal, Not) else literal
        if isinstance(target, CompareConst):
            columns.add(target.column)
        elif isinstance(target, CompareNodes):
            columns.add(target.left_column)
            columns.add(target.right_column)
        else:
            return False
    return len(columns) == 1


def clause_column(clause: Clause) -> int:
    """The single column referenced by a single-column clause."""
    for literal in clause:
        target = literal.operand if isinstance(literal, Not) else literal
        if isinstance(target, CompareConst):
            return target.column
        if isinstance(target, CompareNodes):
            return target.left_column
    raise ValueError("empty clause has no column")
