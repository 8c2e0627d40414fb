"""Program optimization: CNF analysis and cross-product-free execution."""

from .cnf import (
    clause_column,
    clauses_to_predicate,
    is_single_column_clause,
    push_negations,
    to_cnf_clauses,
)
from .optimize import (
    ExecutionPlan,
    TupleProjection,
    execute,
    execute_nodes,
    iter_execute_nodes,
    plan,
)

__all__ = [
    "clause_column",
    "clauses_to_predicate",
    "is_single_column_clause",
    "push_negations",
    "to_cnf_clauses",
    "ExecutionPlan",
    "TupleProjection",
    "execute",
    "execute_nodes",
    "iter_execute_nodes",
    "plan",
]
