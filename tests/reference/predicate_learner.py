"""The seed engine's predicate learner, kept as a test oracle.

Algorithm 3 evaluated tuple by tuple with the DSL's formal semantics
(:func:`~repro.dsl.semantics.eval_predicate`), with the set-based cover and
the tuple-based Quine–McCluskey of this package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dsl.ast import False_, Not, Predicate, TableExtractor, True_, conjoin, disjoin
from repro.dsl.semantics import NodeTuple, eval_predicate, eval_table
from repro.synthesis.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synthesis.predicate_learner import (
    Example,
    PredicateLearningStats,
    _predicate_sort_key,
    row_in_table,
)
from repro.synthesis.predicate_universe import construct_predicate_universe
from repro.synthesis.qm import implicant_to_clause
from repro.synthesis.set_cover import CoverError

from .qm import bits_to_minterm, minimize
from .set_cover import minimum_cover


def classify_tuples(
    examples: Sequence[Example],
    table_extractor: TableExtractor,
    *,
    max_rows: Optional[int] = None,
) -> Tuple[List[NodeTuple], List[NodeTuple]]:
    """Split intermediate-table tuples into positive and negative examples."""
    positives: List[NodeTuple] = []
    negatives: List[NodeTuple] = []
    for tree, output_rows in examples:
        intermediate = eval_table(table_extractor, tree)
        if max_rows is not None and len(intermediate) > max_rows:
            raise MemoryError(
                f"intermediate table too large ({len(intermediate)} rows > {max_rows})"
            )
        for node_tuple in intermediate:
            data_row = tuple(node.data for node in node_tuple)
            if row_in_table(data_row, output_rows):
                positives.append(node_tuple)
            else:
                negatives.append(node_tuple)
    return positives, negatives


def _feature_matrix(
    universe: Sequence[Predicate],
    positives: Sequence[NodeTuple],
    negatives: Sequence[NodeTuple],
) -> Tuple[List[Tuple[bool, ...]], List[Tuple[bool, ...]]]:
    """Evaluate every candidate predicate on every example tuple (Figure 7)."""
    tuples = list(positives) + list(negatives)
    matrix = [tuple(eval_predicate(p, t) for p in universe) for t in tuples]
    return matrix[: len(positives)], matrix[len(positives) :]


def _deduplicate_features(
    universe: Sequence[Predicate],
    pos_rows: Sequence[Tuple[bool, ...]],
    neg_rows: Sequence[Tuple[bool, ...]],
) -> List[int]:
    """Keep, per distinct truth-vector, only the simplest predicate.

    Predicates whose truth vector is constant over all example tuples can never
    distinguish a positive from a negative example and are dropped outright.
    """
    by_vector: Dict[Tuple[bool, ...], int] = {}
    order: List[int] = []
    num_pos = len(pos_rows)
    for idx, predicate in enumerate(universe):
        vector = tuple(row[idx] for row in pos_rows) + tuple(row[idx] for row in neg_rows)
        if len(set(vector)) <= 1:
            continue
        previous = by_vector.get(vector)
        if previous is None:
            by_vector[vector] = idx
            order.append(idx)
        else:
            if _predicate_sort_key(predicate) < _predicate_sort_key(universe[previous]):
                by_vector[vector] = idx
                order[order.index(previous)] = idx
    return order


def _learn_predicate_seed(
    examples: Sequence[Example],
    table_extractor: TableExtractor,
    config: SynthesisConfig = DEFAULT_CONFIG,
    *,
    stats: Optional[PredicateLearningStats] = None,
) -> Optional[Predicate]:
    """The seed algorithm: per-tuple feature matrix, list-based solvers."""
    trees = [tree for tree, _ in examples]

    positives, negatives = classify_tuples(
        examples, table_extractor, max_rows=config.max_intermediate_rows
    )
    if stats is not None:
        stats.positive_examples = len(positives)
        stats.negative_examples = len(negatives)

    if not positives:
        # The output tables are all empty only if the user supplied empty
        # examples; nothing needs to be kept.
        return False_() if negatives else True_()
    if not negatives:
        return True_()

    universe = construct_predicate_universe(trees, table_extractor.columns, config)
    if stats is not None:
        stats.universe_size = len(universe)
    if not universe:
        return None

    pos_rows, neg_rows = _feature_matrix(universe, positives, negatives)
    kept_indices = _deduplicate_features(universe, pos_rows, neg_rows)
    if stats is not None:
        stats.distinct_feature_vectors = len(kept_indices)
    if not kept_indices:
        return None

    # ------------------------------------------------------------------ ILP
    # Elements: (positive, negative) pairs; sets: pairs distinguished by each
    # surviving predicate (Algorithm 4).
    num_neg = len(neg_rows)
    cover_sets: List[Set[int]] = []
    for idx in kept_indices:
        distinguished: Set[int] = set()
        for p, pos_row in enumerate(pos_rows):
            for n, neg_row in enumerate(neg_rows):
                if pos_row[idx] != neg_row[idx]:
                    distinguished.add(p * num_neg + n)
        cover_sets.append(distinguished)
    universe_pairs = set(range(len(pos_rows) * num_neg))

    # Among equally-minimal covers, prefer predicates that hold on the
    # positive tuples (false-on-positive counts as the per-set cost): they
    # render as positive literals in the final DNF instead of negated ones.
    polarity_costs = [
        sum(1 for pos_row in pos_rows if not pos_row[idx]) for idx in kept_indices
    ]
    try:
        chosen_positions = minimum_cover(
            cover_sets,
            universe_pairs,
            strategy=config.cover_strategy,
            exact_limit=config.exact_cover_limit,
            costs=polarity_costs,
        )
    except CoverError:
        return None

    selected_indices = [kept_indices[i] for i in sorted(set(chosen_positions))]
    selected = [universe[i] for i in selected_indices]
    if stats is not None:
        stats.selected_predicates = len(selected)

    # --------------------------------------------------------- QM minimization
    num_vars = len(selected)
    pos_assignments = {
        tuple(int(pos_rows[p][i]) for i in selected_indices) for p in range(len(pos_rows))
    }
    neg_assignments = {
        tuple(int(neg_rows[n][i]) for i in selected_indices) for n in range(len(neg_rows))
    }
    if pos_assignments & neg_assignments:
        # The minimum cover guarantees this cannot happen; guard anyway.
        return None

    minterms = sorted(bits_to_minterm(bits) for bits in pos_assignments)
    off_terms = {bits_to_minterm(bits) for bits in neg_assignments}
    if num_vars <= 12:
        all_terms = set(range(1 << num_vars))
        dont_cares = sorted(all_terms - set(minterms) - off_terms)
    else:  # pragma: no cover - extremely large selections
        dont_cares = []

    implicants = minimize(
        num_vars, minterms, dont_cares, cover_strategy=config.cover_strategy
    )
    if stats is not None:
        stats.dnf_terms = len(implicants)

    terms: List[Predicate] = []
    for implicant in implicants:
        literals: List[Predicate] = []
        for var_index, positive in implicant_to_clause(implicant):
            literal = selected[var_index]
            literals.append(literal if positive else Not(literal))
        terms.append(conjoin(literals))
    formula = disjoin(terms) if terms else True_()

    # Final sanity check: the classifier must separate the labelled tuples.
    if not all(eval_predicate(formula, t) for t in positives):
        return None
    if any(eval_predicate(formula, t) for t in negatives):
        return None
    return formula
