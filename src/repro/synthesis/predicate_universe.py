"""Construction of the universe of atomic predicates (Figure 10).

Given a candidate table extractor ``ψ = π1 × ... × πk`` and the input-output
examples, the predicate learner needs a finite universe Φ of atomic predicates
to select from.  Following Figure 10:

* rules (1)-(3) define the *valid node extractors* χi for column i: chains of
  ``parent`` / ``child(tag, pos)`` steps that never evaluate to ⊥ on any node
  extracted for column i in any example;
* rule (4) creates constant-comparison predicates ``((λn.ϕ) t[i]) ⊙ c`` where
  ``c`` is a constant occurring in some input document;
* rule (5) creates node-comparison predicates
  ``((λn.ϕ1) t[i]) ⊙ ((λn.ϕ2) t[j])`` for pairs of columns.

The universe is bounded by the knobs in :class:`SynthesisConfig`
(node-extractor depth, operator sets, constant count, total size).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..dsl.ast import (
    Child,
    ColumnExtractor,
    CompareConst,
    CompareNodes,
    NodeExtractor,
    NodeVar,
    Op,
    Parent,
    Predicate,
)
from ..dsl.semantics import eval_column_on_tree, eval_node_extractor
from ..hdt.node import Node, Scalar
from ..hdt.tree import HDT
from .config import DEFAULT_CONFIG, SynthesisConfig


def valid_node_extractors(
    column_nodes_per_example: Sequence[Sequence[Node]],
    config: SynthesisConfig = DEFAULT_CONFIG,
    context=None,
) -> List[NodeExtractor]:
    """Compute the set χi of node extractors valid for one column.

    A node extractor is *valid* (rules (1)-(3) of Figure 10) if evaluating it on
    every node extracted for this column, in every example, never yields ⊥.
    The search grows extractors breadth-first up to
    ``config.max_node_extractor_depth`` steps and is capped at
    ``config.max_node_extractors_per_column`` results.  When a
    :class:`~repro.synthesis.context.SynthesisContext` is provided, extractor
    applications go through its shared ``(ϕ, node) → target`` memo.
    """
    evaluate = context.target_of if context is not None else eval_node_extractor
    all_nodes: List[Node] = [n for nodes in column_nodes_per_example for n in nodes]
    results: List[NodeExtractor] = [NodeVar()]
    frontier: List[NodeExtractor] = [NodeVar()]
    seen: Set[NodeExtractor] = {NodeVar()}

    for _ in range(config.max_node_extractor_depth):
        next_frontier: List[NodeExtractor] = []
        for base in frontier:
            if len(results) >= config.max_node_extractors_per_column:
                return results
            # Where does `base` land for each column node?  Candidate child
            # steps only make sense for tags/positions present at those nodes.
            landing = [evaluate(base, n) for n in all_nodes]
            if any(n is None for n in landing):
                continue

            candidates: List[NodeExtractor] = []
            if all(n.parent is not None for n in landing):
                candidates.append(Parent(base))
            child_keys: Set[Tuple[str, int]] = set()
            if landing:
                first = landing[0]
                child_keys = {(c.tag, c.pos) for c in first.children}
                for node in landing[1:]:
                    child_keys &= {(c.tag, c.pos) for c in node.children}
            for tag, pos in sorted(child_keys):
                candidates.append(Child(base, tag, pos))

            for candidate in candidates:
                if candidate in seen:
                    continue
                if all(evaluate(candidate, n) is not None for n in all_nodes):
                    seen.add(candidate)
                    results.append(candidate)
                    next_frontier.append(candidate)
                    if len(results) >= config.max_node_extractors_per_column:
                        return results
        frontier = next_frontier
        if not frontier:
            break
    return results


def _dedupe_by_signature(
    extractors: List[NodeExtractor], column_nodes: Sequence[Node], context=None
) -> List[NodeExtractor]:
    """Collapse node extractors that land on identical targets for every column node.

    Two extractors with the same target signature generate predicates with
    identical truth values on every tuple, so only the syntactically smallest
    representative is kept.  This prunes the quadratic node-pair universe
    substantially (distinct behaviours, not distinct syntax, are what matter
    for classification).
    """
    evaluate = context.target_of if context is not None else eval_node_extractor
    seen: Dict[Tuple, NodeExtractor] = {}
    order: List[NodeExtractor] = []
    for extractor in extractors:
        signature = tuple(
            evaluate(extractor, node).uid  # type: ignore[union-attr]
            for node in column_nodes
        )
        previous = seen.get(signature)
        if previous is None:
            seen[signature] = extractor
            order.append(extractor)
        elif extractor.size() < previous.size():
            order[order.index(previous)] = extractor
            seen[signature] = extractor
    return order


def _collect_constants(
    trees: Sequence[HDT], config: SynthesisConfig, context=None
) -> List[Scalar]:
    """Constants from the input documents, capped at ``config.max_constants``."""
    seen: Set[Scalar] = set()
    constants: List[Scalar] = []
    for tree in trees:
        tree_constants = (
            context.facts(tree).constants if context is not None else tree.constants()
        )
        for value in tree_constants:
            if value not in seen:
                seen.add(value)
                constants.append(value)
                if len(constants) >= config.max_constants:
                    return constants
    return constants


def _extractor_yields_leaves(
    extractor: NodeExtractor, column_nodes: Sequence[Node], context=None
) -> bool:
    """True if the extractor lands on a leaf for every node of the column."""
    evaluate = context.target_of if context is not None else eval_node_extractor
    for node in column_nodes:
        target = evaluate(extractor, node)
        if target is None or not target.is_leaf():
            return False
    return True


def construct_predicate_universe(
    trees: Sequence[HDT],
    column_extractors: Sequence[ColumnExtractor],
    config: SynthesisConfig = DEFAULT_CONFIG,
    *,
    context=None,
) -> List[Predicate]:
    """Build the universe Φ of atomic predicates for a candidate table extractor.

    Parameters
    ----------
    trees:
        The input HDTs of the examples.
    column_extractors:
        The column extractors π1..πk of the candidate table extractor ψ.
    context:
        Optional :class:`~repro.synthesis.context.SynthesisContext`.  When
        provided, the per-column valid-extractor sets χi and whole universes
        are cached by the columns' *node-list signatures* and shared across
        the candidate table extractors of a column, across output columns and
        across the tables of a multi-table task: the universe is a pure
        function of which nodes each column extracts (predicates embed node
        extractors and column indices, never the column extractors
        themselves), so syntactically different candidates that land on the
        same nodes reuse it outright, and node-extractor applications go
        through the context's shared memo.

    Returns
    -------
    A deduplicated list of atomic predicates, bounded by
    ``config.max_predicate_universe``.
    """
    arity = len(column_extractors)
    columns_key = None
    if context is not None:
        trees_key = context.trees_key(trees)
        sigs = tuple(
            context.column_signature(extractor, trees)
            for extractor in column_extractors
        )
        columns_key = (trees_key, sigs)
        cached = context.universes.get(columns_key)
        if cached is not None:
            context.count("universe_hits")
            return cached
        context.count("universe_misses")

    # Nodes extracted per column per example (used for validity checks).
    per_column_nodes: List[List[Node]] = []
    per_column_nodes_by_example: List[List[List[Node]]] = []
    for extractor in column_extractors:
        if context is not None:
            per_example = [context.eval_column(extractor, tree) for tree in trees]
        else:
            per_example = [eval_column_on_tree(extractor, tree) for tree in trees]
        per_column_nodes_by_example.append(per_example)
        per_column_nodes.append([n for nodes in per_example for n in nodes])

    chi: List[List[NodeExtractor]] = []
    for i in range(arity):
        if context is not None:
            chi_key = (trees_key, sigs[i])
            hit = context.chi.get(chi_key)
            if hit is not None:
                context.count("chi_hits")
                chi.append(hit)
                continue
            context.count("chi_misses")
        computed = _dedupe_by_signature(
            valid_node_extractors(per_column_nodes_by_example[i], config, context),
            per_column_nodes[i],
            context,
        )
        if context is not None:
            context.chi[chi_key] = computed
        chi.append(computed)

    constants = _collect_constants(trees, config, context)
    universe: List[Predicate] = []
    seen: Set[Predicate] = set()

    def add(predicate: Predicate) -> bool:
        if predicate in seen:
            return True
        if len(universe) >= config.max_predicate_universe:
            return False
        seen.add(predicate)
        universe.append(predicate)
        return True

    def build() -> None:
        # Rule (4): constant comparisons.  Only generated for node extractors
        # that land on leaves (internal nodes carry no data, so comparing them
        # with a constant is always false and never useful as a classifier
        # feature).  Ordering comparisons (<, <=, >, >=) are only generated
        # for *numeric* constants: ordering arbitrary strings drawn from the
        # document almost never reflects user intent and inflates the universe.
        ordering_ops = {Op.LT, Op.LE, Op.GT, Op.GE}
        for i in range(arity):
            for extractor in chi[i]:
                if not _extractor_yields_leaves(extractor, per_column_nodes[i], context):
                    continue
                for constant in constants:
                    numeric = isinstance(constant, (int, float)) and not isinstance(constant, bool)
                    for op in sorted(config.constant_ops, key=lambda o: o.value):
                        if op in ordering_ops and not numeric:
                            continue
                        if not add(CompareConst(extractor, i, op, constant)):
                            return

        # Rule (5): node-to-node comparisons between columns i and j.
        for i in range(arity):
            for j in range(i, arity):
                for phi1 in chi[i]:
                    for phi2 in chi[j]:
                        if i == j and phi1 == phi2:
                            continue
                        for op in sorted(config.node_pair_ops, key=lambda o: o.value):
                            if not add(CompareNodes(phi1, i, op, phi2, j)):
                                return

    build()
    if context is not None:
        context.universes[columns_key] = universe
    return universe
