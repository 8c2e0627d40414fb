"""Learning row-filter predicates (Algorithm 3 of the paper).

Given the input-output examples and a candidate table extractor ψ, the learner

1. builds the universe Φ of atomic predicates (Figure 10),
2. labels every tuple of the intermediate table ``[[ψ]]T`` as positive (it
   appears in the output table R) or negative (spurious),
3. selects a minimum subset Φ* of predicates that distinguishes every
   (positive, negative) pair — the 0-1 ILP of Algorithm 4,
4. finds a smallest DNF formula over Φ* consistent with the labels using
   Quine–McCluskey minimization, treating unobserved predicate combinations as
   don't-cares.

The result is a :class:`~repro.dsl.ast.Predicate`, or ``None`` when no
classifier expressible over Φ exists (the caller then tries the next candidate
table extractor).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.ast import (
    CompareConst,
    CompareNodes,
    False_,
    Not,
    Op,
    Predicate,
    Program,
    TableExtractor,
    True_,
    conjoin,
    disjoin,
)
from ..dsl.pretty import pretty_predicate
from ..dsl.semantics import NodeTuple, compare_values, run_program
from ..hdt.node import Scalar
from ..hdt.tree import HDT
from .bitset import full_mask, iter_bits, popcount
from .config import DEFAULT_CONFIG, SynthesisConfig
from .context import SynthesisContext, _is_nan
from .predicate_matrix import build_predicate_masks, distinguishing_pairs_mask, dnf_mask
from .predicate_universe import construct_predicate_universe
from .qm import implicant_to_clause, minimize_bits
from .set_cover import CoverError, minimum_cover_bits

Row = Tuple[Scalar, ...]
Example = Tuple[HDT, Sequence[Row]]


@dataclass
class PredicateLearningStats:
    """Diagnostics collected while learning a predicate (used in reports)."""

    universe_size: int = 0
    distinct_feature_vectors: int = 0
    positive_examples: int = 0
    negative_examples: int = 0
    selected_predicates: int = 0
    dnf_terms: int = 0
    universe_seconds: float = 0.0
    """Wall-clock spent constructing (or fetching) the predicate universe."""
    bitmatrix_seconds: float = 0.0
    """Wall-clock spent building predicate truth masks and the pair instance."""
    cover_seconds: float = 0.0
    """Wall-clock spent in the minimum-cover solver and QM minimization."""


def rows_equal(a: Row, b: Row) -> bool:
    """Value-aware row comparison (numeric 3 equals "3" read from XML text)."""
    if len(a) != len(b):
        return False
    return all(compare_values(x, Op.EQ, y) for x, y in zip(a, b))


def row_in_table(row: Row, table: Sequence[Row]) -> bool:
    """Membership of a row in a table under value-aware equality."""
    return any(rows_equal(row, other) for other in table)


def _predicate_sort_key(predicate: Predicate) -> Tuple:
    return (_predicate_complexity(predicate), pretty_predicate(predicate))


def _predicate_complexity(predicate: Predicate) -> int:
    if isinstance(predicate, CompareNodes):
        return predicate.left_extractor.size() + predicate.right_extractor.size()
    if isinstance(predicate, CompareConst):
        return predicate.extractor.size()
    return predicate.size()


def classify_tuples_fast(
    examples: Sequence[Example],
    table_extractor: TableExtractor,
    *,
    max_rows: Optional[int] = None,
    context=None,
) -> Tuple[List[NodeTuple], List[NodeTuple]]:
    """Split intermediate-table tuples into positive and negative examples.

    Positive tuples are those whose data projection appears in the output
    table of their example; every other tuple is negative (spurious), in the
    order of the seed's row-by-row scan (a test oracle in ``tests/reference/``).

    Value-aware row equality coincides with python tuple equality (numeric
    cross-type equality included) for every scalar except NaN: ``set``
    membership short-circuits on object *identity*, so a NaN object shared
    between the document and an output row would match even though
    ``compare_values`` says NaN equals nothing.  Output rows containing NaN
    are therefore dropped from the hash set up front — they can never match a
    document row — after which membership is one exact set lookup instead of
    a scan.  Column evaluations go through the shared per-tree cache when a
    context is provided.
    """
    if context is None:
        context = SynthesisContext()
    positives: List[NodeTuple] = []
    negatives: List[NodeTuple] = []
    for tree, output_rows in examples:
        columns = [context.eval_column(col, tree) for col in table_extractor.columns]
        total = 1
        for column in columns:
            total *= len(column)
        if max_rows is not None and total > max_rows:
            raise MemoryError(
                f"intermediate table too large ({total} rows > {max_rows})"
            )
        expected = {
            row
            for row in map(tuple, output_rows)
            if not any(_is_nan(value) for value in row)
        }
        for node_tuple in product(*columns):
            data_row = tuple(node.data for node in node_tuple)
            if data_row in expected:
                positives.append(node_tuple)
            else:
                negatives.append(node_tuple)
    return positives, negatives


def learn_predicate(
    examples: Sequence[Example],
    table_extractor: TableExtractor,
    config: SynthesisConfig = DEFAULT_CONFIG,
    *,
    stats: Optional[PredicateLearningStats] = None,
    context=None,
) -> Optional[Predicate]:
    """Algorithm 3: learn a filtering predicate for a candidate table extractor.

    Returns ``None`` when the positive and negative tuples cannot be separated
    by any boolean combination of predicates in the universe.

    Every stage runs on integer bitmasks over the example tuple space: the
    universe is evaluated once per distinct column node
    (:mod:`repro.synthesis.predicate_matrix`), feature deduplication compares
    mask integers, the Algorithm 4 cover instance packs (positive, negative)
    pairs into bits, and Quine–McCluskey minimizes over packed minterms.  The
    seed's tuple-by-tuple learner, kept as a test oracle in
    ``tests/reference/``, returns the byte-identical predicate.
    """
    if context is None:
        context = SynthesisContext()
    trees = [tree for tree, _ in examples]

    positives, negatives = classify_tuples_fast(
        examples,
        table_extractor,
        max_rows=config.max_intermediate_rows,
        context=context,
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

    phase_start = time.perf_counter()
    universe = construct_predicate_universe(
        trees, table_extractor.columns, config, context=context
    )
    if stats is not None:
        stats.universe_size = len(universe)
        stats.universe_seconds = time.perf_counter() - phase_start
    if not universe:
        return None

    arity = len(table_extractor.columns)
    tuples = positives + negatives
    num_pos, num_neg = len(positives), len(negatives)
    num_tuples = num_pos + num_neg
    tuples_full = full_mask(num_tuples)

    phase_start = time.perf_counter()
    masks = build_predicate_masks(universe, tuples, arity, context)

    # Feature deduplication: constant masks can never split a (positive,
    # negative) pair; equal masks keep only the simplest predicate.
    by_mask: Dict[int, int] = {}
    kept_indices: List[int] = []
    for idx, predicate in enumerate(universe):
        mask = masks[idx]
        if mask == 0 or mask == tuples_full:
            continue
        previous = by_mask.get(mask)
        if previous is None:
            by_mask[mask] = idx
            kept_indices.append(idx)
        elif _predicate_sort_key(predicate) < _predicate_sort_key(universe[previous]):
            kept_indices[kept_indices.index(previous)] = idx
            by_mask[mask] = idx
    if stats is not None:
        stats.distinct_feature_vectors = len(kept_indices)
    if not kept_indices:
        return None

    # ------------------------------------------------------------------ ILP
    # Algorithm 4 as a bitmask cover: element p*num_neg+n is pair (p, n).
    pair_masks = [
        distinguishing_pairs_mask(masks[idx], num_pos, num_neg) for idx in kept_indices
    ]
    pair_universe = full_mask(num_pos * num_neg)
    if stats is not None:
        stats.bitmatrix_seconds = time.perf_counter() - phase_start
    phase_start = time.perf_counter()
    # Among equally-minimal covers, prefer predicates that hold on the
    # positive tuples (false-on-positive counts as the per-set cost): they
    # render as positive literals in the final DNF instead of negated ones.
    # Positives occupy the low ``num_pos`` bits of every truth mask, so the
    # count is one popcount per kept predicate.
    pos_mask = full_mask(num_pos)
    polarity_costs = [
        num_pos - popcount(masks[idx] & pos_mask) for idx in kept_indices
    ]
    try:
        chosen_positions = minimum_cover_bits(
            pair_masks,
            pair_universe,
            strategy=config.cover_strategy,
            exact_limit=config.exact_cover_limit,
            costs=polarity_costs,
        )
    except CoverError:
        if stats is not None:
            stats.cover_seconds = time.perf_counter() - phase_start
        return None

    selected_indices = [kept_indices[i] for i in sorted(set(chosen_positions))]
    selected = [universe[i] for i in selected_indices]
    selected_masks = [masks[i] for i in selected_indices]
    if stats is not None:
        stats.selected_predicates = len(selected)

    # --------------------------------------------------------- QM minimization
    num_vars = len(selected)
    # Minterm of tuple t: predicate k contributes bit (num_vars-1-k), MSB
    # first, the order the implicant tuples' variables follow.
    minterms_of: List[int] = [0] * num_tuples
    for k, mask in enumerate(selected_masks):
        weight = 1 << (num_vars - 1 - k)
        for position in iter_bits(mask):
            minterms_of[position] |= weight
    pos_assignments = set(minterms_of[:num_pos])
    neg_assignments = set(minterms_of[num_pos:])
    if pos_assignments & neg_assignments:
        # The minimum cover guarantees this cannot happen; guard anyway.
        return None

    minterms = sorted(pos_assignments)
    if num_vars <= 12:
        all_terms = set(range(1 << num_vars))
        dont_cares = sorted(all_terms - pos_assignments - neg_assignments)
    else:  # pragma: no cover - extremely large selections
        dont_cares = []

    implicants = minimize_bits(
        num_vars, minterms, dont_cares, cover_strategy=config.cover_strategy
    )
    if stats is not None:
        stats.dnf_terms = len(implicants)
        stats.cover_seconds = time.perf_counter() - phase_start

    clauses = [implicant_to_clause(implicant) for implicant in implicants]
    terms: List[Predicate] = []
    for clause in clauses:
        literals: List[Predicate] = []
        for var_index, positive in clause:
            literal = selected[var_index]
            literals.append(literal if positive else Not(literal))
        terms.append(conjoin(literals))
    formula = disjoin(terms) if terms else True_()

    # Final sanity check, on the masks: the classifier must accept every
    # positive and reject every negative.
    formula_mask = dnf_mask(clauses, selected_masks, tuples_full)
    pos_full = full_mask(num_pos)
    if formula_mask & pos_full != pos_full:
        return None
    if formula_mask >> num_pos:
        return None
    return formula


def check_program(
    program: Program, examples: Sequence[Example]
) -> bool:
    """Verify that a program reproduces every output table exactly (as a set)."""
    for tree, expected_rows in examples:
        produced = run_program(program, tree)
        for row in expected_rows:
            if not row_in_table(row, produced):
                return False
        for row in produced:
            if not row_in_table(row, expected_rows):
                return False
    return True
