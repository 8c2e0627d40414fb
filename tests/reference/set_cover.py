"""The seed engine's set-based cover solvers, kept as test oracles.

Algorithm 4 as minimum set cover over Python sets, plus the strategy dispatch.
The library's bitmask solvers make the same choices (same greedy tie-breaks,
same branch-and-bound pivots) and, for the ILP, hand HiGHS the same matrix.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.synthesis.bitset import full_mask, mask_from_indices
from repro.synthesis.set_cover import CoverError, exact_cover_bits


def _check_coverable(sets: Sequence[FrozenSet[int]], universe: FrozenSet[int]) -> None:
    covered: Set[int] = set()
    for s in sets:
        covered |= s
    missing = universe - covered
    if missing:
        raise CoverError(f"{len(missing)} elements cannot be covered by any set")


def _normalize(sets: Sequence[Set[int]]) -> List[FrozenSet[int]]:
    return [frozenset(s) for s in sets]


def greedy_cover(sets: Sequence[Set[int]], universe: Set[int]) -> List[int]:
    """Classic greedy set cover: repeatedly take the set covering most remaining."""
    normalized = _normalize(sets)
    target = frozenset(universe)
    _check_coverable(normalized, target)
    remaining = set(target)
    chosen: List[int] = []
    while remaining:
        best_idx = -1
        best_gain = 0
        for idx, s in enumerate(normalized):
            gain = len(s & remaining)
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        if best_idx < 0:  # pragma: no cover - guarded by _check_coverable
            raise CoverError("greedy cover failed to make progress")
        chosen.append(best_idx)
        remaining -= normalized[best_idx]
    return chosen


def branch_and_bound_cover(
    sets: Sequence[Set[int]], universe: Set[int], *, max_nodes: int = 200_000
) -> List[int]:
    """Exact minimum set cover by branch and bound on the most constrained
    element, with the greedy cover as the initial upper bound."""
    normalized = _normalize(sets)
    target = frozenset(universe)
    _check_coverable(normalized, target)

    best = greedy_cover(sets, set(universe))
    best_size = len(best)

    # element -> indices of sets containing it
    containing: Dict[int, List[int]] = {e: [] for e in target}
    for idx, s in enumerate(normalized):
        for e in s:
            if e in containing:
                containing[e].append(idx)

    max_set_size = max((len(s) for s in normalized), default=1) or 1
    nodes_visited = 0

    def lower_bound(remaining: FrozenSet[int]) -> int:
        return -(-len(remaining) // max_set_size)  # ceiling division

    def search(remaining: FrozenSet[int], chosen: List[int]) -> None:
        nonlocal best, best_size, nodes_visited
        nodes_visited += 1
        if nodes_visited > max_nodes:
            return
        if not remaining:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + lower_bound(remaining) >= best_size:
            return
        # Most constrained uncovered element; ties broken by the smallest
        # element so the search order is well-defined (the bitmask solver
        # makes the identical choices, which keeps both solvers returning the
        # same optimal cover rather than an arbitrary one of equal size).
        pivot = min(remaining, key=lambda e: (len(containing[e]), e))
        for idx in containing[pivot]:
            search(remaining - normalized[idx], chosen + [idx])

    search(target, [])
    return best


def ilp_cover(sets: Sequence[Set[int]], universe: Set[int]) -> List[int]:
    """Solve minimum set cover as a 0-1 integer linear program (HiGHS).

    The loop-built constraint matrix is the reference for the library's
    numpy-built one (:func:`repro.synthesis.set_cover.ilp_cover_bits`).
    """
    normalized = _normalize(sets)
    elements = sorted(universe)
    target = frozenset(elements)
    _check_coverable(normalized, target)
    if not elements:
        return []
    element_index = {e: i for i, e in enumerate(elements)}
    rows, cols = [], []
    for set_idx, s in enumerate(normalized):
        for e in s:
            if e in element_index:
                rows.append(element_index[e])
                cols.append(set_idx)
    data = np.ones(len(rows))
    matrix = csr_matrix((data, (rows, cols)), shape=(len(elements), len(normalized)))

    objective = np.ones(len(normalized))
    constraint = LinearConstraint(matrix, lb=np.ones(len(elements)), ub=np.inf)
    result = milp(
        c=objective,
        constraints=[constraint],
        integrality=np.ones(len(normalized)),
        bounds=None,
    )
    if not result.success or result.x is None:  # pragma: no cover - solver hiccup
        return branch_and_bound_cover(sets, set(universe))
    return [idx for idx, val in enumerate(result.x) if val > 0.5]


def minimum_cover(
    sets: Sequence[Set[int]],
    universe: Set[int],
    *,
    strategy: str = "auto",
    exact_limit: int = 26,
    costs: Optional[Sequence[int]] = None,
) -> List[int]:
    """Select a minimum (or near-minimum) family of sets covering ``universe``."""
    if not universe:
        return []
    if strategy == "greedy":
        return greedy_cover(sets, universe)
    if strategy == "branch_and_bound":
        return branch_and_bound_cover(sets, universe)
    if strategy == "ilp":
        return ilp_cover(sets, universe)
    if strategy != "auto":
        raise ValueError(f"unknown cover strategy: {strategy!r}")
    if len(sets) <= exact_limit:
        return branch_and_bound_cover(sets, universe)
    # Delegate to the bitmask search through a dense element renumbering so
    # the list and bitmask representations keep returning the same cover.
    elements = sorted(universe)
    element_index = {e: i for i, e in enumerate(elements)}
    masks = [
        mask_from_indices(element_index[e] for e in s if e in element_index)
        for s in sets
    ]
    cover, complete = exact_cover_bits(masks, full_mask(len(elements)), costs=costs)
    if complete:
        return cover
    return ilp_cover(sets, universe)
