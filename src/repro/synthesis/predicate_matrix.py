"""Bitmatrix evaluation of the atomic-predicate universe.

A tuple-by-tuple learner evaluates every predicate of the universe Φ on every
tuple of the intermediate table — ``O(|Φ| · |tuples|)`` node-extractor walks,
the dominant cost of synthesis.  This module exploits the structure of the tuple
space instead: the intermediate table is a cross product of per-column node
lists, and every atomic predicate reads at most two tuple positions, so its
truth value is a function of one node (``CompareConst``) or one node pair
(``CompareNodes``).  Evaluating per *distinct node* (or node pair) and
expanding through precomputed ``node → tuple-bitmask`` tables yields the full
truth matrix as one integer per predicate — bit *i* set iff tuple *i*
satisfies the predicate — at a cost proportional to the number of distinct
column nodes rather than the number of tuples.

Node-extractor targets are memoized in the shared
:class:`~repro.synthesis.context.SynthesisContext`, so the walks are also
shared across predicates, across candidate table extractors and across the
tables of a multi-table task.

On top of the target memo sits a second, candidate-level cache: a predicate's
*satisfying node set* — which of a column's distinct nodes (or node pairs)
make it true — depends only on the predicate's extractors/operator/constant
and on the column's node set, not on the tuple space.  Consecutive candidate
table extractors ψₙ, ψₙ₊₁ typically differ in a single column, so every
predicate not touching that column finds its satisfying set in the cache and
only *recomposes* its tuple bitmask through the new ``node → tuple-bitmask``
tables (:func:`~repro.synthesis.bitset.compose_mask`); evaluation work is
spent on the predicates whose column actually changed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.ast import CompareConst, CompareNodes, Op, Predicate
from ..dsl.semantics import NodeTuple, compare_values, eval_predicate
from ..hdt.node import Node
from .bitset import compose_mask, compose_pair_mask
from .context import SynthesisContext


class TupleSpace:
    """Per-column ``node uid → tuple bitmask`` tables for one tuple list."""

    def __init__(self, tuples: Sequence[NodeTuple], arity: int) -> None:
        self.num_tuples = len(tuples)
        self.arity = arity
        # For column c: uid -> bitmask of tuples whose c-th entry is that node,
        # plus one representative Node per uid (identity-based, so any works).
        self.masks: List[Dict[int, int]] = [{} for _ in range(arity)]
        self.nodes: List[Dict[int, Node]] = [{} for _ in range(arity)]
        for position, node_tuple in enumerate(tuples):
            bit = 1 << position
            for column, node in enumerate(node_tuple):
                masks = self.masks[column]
                uid = node.uid
                if uid in masks:
                    masks[uid] |= bit
                else:
                    masks[uid] = bit
                    self.nodes[column][uid] = node


def _compare_nodes(left: Optional[Node], op: Op, right: Optional[Node]) -> bool:
    """Figure 7 node-comparison semantics."""
    if left is None or right is None:
        return False
    if left.is_leaf() and right.is_leaf():
        return compare_values(left.data, op, right.data)
    if op is Op.EQ and not left.is_leaf() and not right.is_leaf():
        return left is right
    return False


def _const_satisfying_uids(
    space: TupleSpace, column: int, predicate: CompareConst, target_of
) -> Tuple[int, ...]:
    """Uids of the column's nodes on which a constant comparison holds."""
    satisfied = []
    nodes = space.nodes[column]
    extractor, op, constant = predicate.extractor, predicate.op, predicate.constant
    for uid in space.masks[column]:
        target = target_of(extractor, nodes[uid])
        if target is not None and compare_values(target.data, op, constant):
            satisfied.append(uid)
    return tuple(satisfied)


def _same_column_satisfying_uids(
    space: TupleSpace, column: int, predicate: CompareNodes, target_of
) -> Tuple[int, ...]:
    """Uids on which a same-column node comparison holds."""
    satisfied = []
    nodes = space.nodes[column]
    left_extractor, op, right_extractor = (
        predicate.left_extractor,
        predicate.op,
        predicate.right_extractor,
    )
    for uid in space.masks[column]:
        node = nodes[uid]
        if _compare_nodes(
            target_of(left_extractor, node), op, target_of(right_extractor, node)
        ):
            satisfied.append(uid)
    return tuple(satisfied)


def _pair_satisfying_uids(
    space: TupleSpace, i: int, j: int, predicate: CompareNodes, target_of
) -> Tuple[Tuple[int, int], ...]:
    """(left uid, right uid) pairs on which a cross-column comparison holds."""
    satisfied = []
    left_extractor, op, right_extractor = (
        predicate.left_extractor,
        predicate.op,
        predicate.right_extractor,
    )
    right_targets = [
        (uid, target_of(right_extractor, space.nodes[j][uid]))
        for uid in space.masks[j]
    ]
    for left_uid in space.masks[i]:
        left = target_of(left_extractor, space.nodes[i][left_uid])
        if left is None:
            continue
        for right_uid, right in right_targets:
            if _compare_nodes(left, op, right):
                satisfied.append((left_uid, right_uid))
    return tuple(satisfied)


def build_predicate_masks(
    universe: Sequence[Predicate],
    tuples: Sequence[NodeTuple],
    arity: int,
    context: SynthesisContext,
) -> List[int]:
    """Evaluate the whole universe over the tuple space, one bitmask per predicate.

    The bit order matches the tuple order (bit *i* ↔ ``tuples[i]``), so a mask
    equals the per-tuple truth vector packed LSB-first.

    Each predicate's satisfying node set is looked up in the context's
    candidate-level cache, keyed by the predicate's behavioural parts plus the
    *sorted uid signature* of the column(s) it reads — the satisfying set
    depends on which nodes a column holds, never on their order or on the
    other columns.  Hits skip evaluation entirely and only recompose the
    tuple bitmask; misses evaluate and populate the cache.  The produced masks
    are identical either way (the cache stores exact node-level decisions,
    not approximations).
    """
    space = TupleSpace(tuples, arity)
    target_of = context.target_of
    sat_cache = context.predicate_sat
    column_sigs = [tuple(sorted(space.masks[c])) for c in range(arity)]

    def satisfying(key, evaluate, *args):
        hit = sat_cache.get(key)
        if hit is None:
            context.count("mask_misses")
            hit = sat_cache[key] = evaluate(space, *args, target_of)
        else:
            context.count("mask_hits")
        return hit

    masks: List[int] = []
    for predicate in universe:
        if isinstance(predicate, CompareConst):
            column = predicate.column
            if column >= arity:
                masks.append(0)
                continue
            key = (
                "const",
                predicate.extractor,
                predicate.op,
                predicate.constant,
                column_sigs[column],
            )
            satisfied = satisfying(key, _const_satisfying_uids, column, predicate)
            masks.append(compose_mask(satisfied, space.masks[column]))
        elif isinstance(predicate, CompareNodes):
            i, j = predicate.left_column, predicate.right_column
            if i >= arity or j >= arity:
                masks.append(0)
                continue
            behaviour = (predicate.left_extractor, predicate.op, predicate.right_extractor)
            if i == j:
                satisfied = satisfying(
                    ("same",) + behaviour + (column_sigs[i],),
                    _same_column_satisfying_uids,
                    i,
                    predicate,
                )
                masks.append(compose_mask(satisfied, space.masks[i]))
            else:
                pairs = satisfying(
                    ("pair",) + behaviour + (column_sigs[i], column_sigs[j]),
                    _pair_satisfying_uids,
                    i,
                    j,
                    predicate,
                )
                masks.append(compose_pair_mask(pairs, space.masks[i], space.masks[j]))
        else:  # pragma: no cover - Φ only contains atomic comparisons
            mask = 0
            for position, node_tuple in enumerate(tuples):
                if eval_predicate(predicate, node_tuple):
                    mask |= 1 << position
            masks.append(mask)
    return masks


def distinguishing_pairs_mask(mask: int, num_pos: int, num_neg: int) -> int:
    """The (positive, negative) pairs a predicate distinguishes, as a bitmask.

    Tuple bit layout: positives occupy bits ``0..num_pos-1`` and negatives
    bits ``num_pos..``.  Pair ``(p, n)`` maps to bit ``p * num_neg + n`` —
    the element numbering of the Algorithm 4 pair encoding — and is
    set iff the predicate's truth differs between positive *p* and negative
    *n*.
    """
    neg_full = (1 << num_neg) - 1
    neg_bits = (mask >> num_pos) & neg_full
    distinguished_if_pos = neg_full & ~neg_bits
    pairs = 0
    for p in range(num_pos):
        row = distinguished_if_pos if (mask >> p) & 1 else neg_bits
        if row:
            pairs |= row << (p * num_neg)
    return pairs


def dnf_mask(
    implicant_clauses: Sequence[Sequence[Tuple[int, bool]]],
    variable_masks: Sequence[int],
    full: int,
) -> int:
    """Evaluate a DNF over predicate bitmasks: OR of ANDs of (negated) literals."""
    formula = 0
    for clause in implicant_clauses:
        term = full
        for var_index, positive in clause:
            literal = variable_masks[var_index]
            term &= literal if positive else full & ~literal
            if not term:
                break
        formula |= term
    return formula
