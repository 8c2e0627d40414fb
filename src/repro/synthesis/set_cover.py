"""Minimum set cover / 0-1 ILP solvers used by the predicate learner.

Algorithm 4 of the paper (``FindMinCover``) selects a *minimum* subset of
atomic predicates such that every (positive, negative) example pair is
distinguished by at least one selected predicate.  That optimization problem is
a 0-1 integer linear program which is exactly weighted set cover:

* elements  — the (positive, negative) example pairs,
* sets      — one per candidate predicate, containing the pairs it distinguishes,
* objective — minimize the number of selected sets.

The strategies are selected through
:class:`~repro.synthesis.config.SynthesisConfig.cover_strategy`:

* ``auto``              — exact branch and bound for small universes, the
  large-instance exact search below for everything else (ILP as a safety
  net when the search exhausts its node budget);
* ``ilp``               — scipy's MILP solver (HiGHS) on the 0-1 formulation;
* ``branch_and_bound``  — an exact, dependency-free solver with greedy
  upper bounds and element-based branching (used for small universes);
* ``greedy``            — the classic ln(n)-approximation, used as a fallback
  for very large instances and by the ablation benchmarks.

The predicate learner's Table 1 tail is dominated by large cover instances
(hundreds of predicates × tens of thousands of pairs) where HiGHS spends a
minute proving what a four-set cover certificate shows in milliseconds:
:func:`exact_cover_bits` runs the same deterministic branch-and-bound search
as the small-instance solver but replaces the per-node python bit scans with
a numpy-precomputed element order, which makes the exact answer affordable at
bitmatrix scale.

All solvers return indices of the selected sets.  ``minimum_cover`` is the
strategy-dispatching entry point.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

import numpy as np

try:  # scipy is an install dependency, but keep the import robust.
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_matrix

    _HAVE_SCIPY_MILP = True
except Exception:  # pragma: no cover - environment without scipy
    _HAVE_SCIPY_MILP = False


class CoverError(Exception):
    """Raised when no cover exists (some element is contained in no set)."""


def _check_coverable(sets: Sequence[FrozenSet[int]], universe: FrozenSet[int]) -> None:
    covered: Set[int] = set()
    for s in sets:
        covered |= s
    missing = universe - covered
    if missing:
        raise CoverError(f"{len(missing)} elements cannot be covered by any set")


def _normalize(sets: Sequence[Set[int]]) -> List[FrozenSet[int]]:
    return [frozenset(s) for s in sets]


# --------------------------------------------------------------------------- #
# Greedy approximation
# --------------------------------------------------------------------------- #


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


# --------------------------------------------------------------------------- #
# Exact branch and bound
# --------------------------------------------------------------------------- #


def branch_and_bound_cover(
    sets: Sequence[Set[int]], universe: Set[int], *, max_nodes: int = 200_000
) -> List[int]:
    """Exact minimum set cover by branch and bound.

    Branches on the uncovered element contained in the fewest sets (the most
    constrained element), uses the greedy solution as the initial upper bound,
    and prunes with a simple lower bound (ceil of remaining / largest set).
    ``max_nodes`` caps the search; if exceeded, the best solution found so far
    (at worst the greedy one) is returned, which keeps the solver total.
    """
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


# --------------------------------------------------------------------------- #
# 0-1 ILP via scipy
# --------------------------------------------------------------------------- #


def ilp_cover(sets: Sequence[Set[int]], universe: Set[int]) -> List[int]:
    """Solve minimum set cover as a 0-1 integer linear program (HiGHS)."""
    normalized = _normalize(sets)
    elements = sorted(universe)
    target = frozenset(elements)
    _check_coverable(normalized, target)
    if not elements:
        return []
    if not _HAVE_SCIPY_MILP:  # pragma: no cover - environment without scipy
        return branch_and_bound_cover(sets, set(universe))

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


# --------------------------------------------------------------------------- #
# Bitmask solvers
# --------------------------------------------------------------------------- #
#
# The vectorized predicate learner represents cover instances as integers: set
# k is a mask whose bit e says "set k contains element e".  The solvers below
# mirror the list-based ones decision for decision (same greedy tie-breaks,
# same branch-and-bound pivoting), so both representations return the same
# cover — the equivalence tests rely on that.

from .bitset import bits_to_set, full_mask, iter_bits, mask_from_indices, popcount


def _check_coverable_bits(masks: Sequence[int], universe_mask: int) -> None:
    covered = 0
    for mask in masks:
        covered |= mask
    missing = universe_mask & ~covered
    if missing:
        raise CoverError(f"{popcount(missing)} elements cannot be covered by any set")


def greedy_cover_bits(masks: Sequence[int], universe_mask: int) -> List[int]:
    """Greedy set cover over bitmask sets (same choices as :func:`greedy_cover`)."""
    _check_coverable_bits(masks, universe_mask)
    remaining = universe_mask
    chosen: List[int] = []
    while remaining:
        best_idx = -1
        best_gain = 0
        for idx, mask in enumerate(masks):
            gain = popcount(mask & remaining)
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        if best_idx < 0:  # pragma: no cover - guarded by _check_coverable_bits
            raise CoverError("greedy cover failed to make progress")
        chosen.append(best_idx)
        remaining &= ~masks[best_idx]
    return chosen


def branch_and_bound_cover_bits(
    masks: Sequence[int], universe_mask: int, *, max_nodes: int = 200_000
) -> List[int]:
    """Exact minimum cover over bitmask sets.

    Pivots on the uncovered element contained in the fewest sets (ties: the
    smallest element) and branches over its containing sets in index order —
    the identical search tree as :func:`branch_and_bound_cover`, with set
    difference and cardinality replaced by single integer operations.
    """
    _check_coverable_bits(masks, universe_mask)

    best = greedy_cover_bits(masks, universe_mask)
    best_size = len(best)

    containing: Dict[int, List[int]] = {}
    for idx, mask in enumerate(masks):
        for element in iter_bits(mask & universe_mask):
            containing.setdefault(element, []).append(idx)

    max_set_size = max((popcount(m) for m in masks), default=1) or 1
    nodes_visited = 0

    def pivot_of(remaining: int) -> int:
        # Ascending-bit scan with strict `<`: ties keep the smallest element,
        # matching the set solver's min-by-(count, element) pivot exactly.
        best_element = -1
        best_count = None
        for element in iter_bits(remaining):
            count = len(containing[element])
            if best_count is None or count < best_count:
                best_count = count
                best_element = element
                if count == 1:
                    break
        return best_element

    def search(remaining: int, chosen: List[int]) -> None:
        nonlocal best, best_size, nodes_visited
        nodes_visited += 1
        if nodes_visited > max_nodes:
            return
        if not remaining:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + -(-popcount(remaining) // max_set_size) >= best_size:
            return
        pivot = pivot_of(remaining)
        for idx in containing[pivot]:
            search(remaining & ~masks[idx], chosen + [idx])

    search(universe_mask, [])
    return best


def ilp_cover_bits(masks: Sequence[int], universe_mask: int) -> List[int]:
    """0-1 ILP cover over bitmask sets (delegates to :func:`ilp_cover`)."""
    return ilp_cover([bits_to_set(m) for m in masks], bits_to_set(universe_mask))


#: Node budget for the large-instance exact search.  Real predicate-learning
#: instances close in well under a thousand nodes (the greedy bound is tight
#: and pivots are highly constrained); the budget only matters for
#: adversarial inputs, where the ILP safety net takes over.
EXACT_COVER_MAX_NODES = 50_000


def _mask_to_bools_np(mask: int, width: int):
    """The low ``width`` bits of a mask as a numpy uint8 array (LSB first)."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width]


def _reduce_cover_cost(
    cover: List[int],
    masks: Sequence[int],
    universe_mask: int,
    costs: Sequence[int],
) -> List[int]:
    """Deterministic cost-reduction over equally-minimal covers.

    The search above minimizes cover *cardinality*; among the many minimum
    covers it returns whichever its canonical branching order finds first.
    When per-set costs are available, repeatedly try to swap each selected
    set for a cheaper one (ties broken by index) that still covers the
    elements only it was covering — a fixpoint of single-set swaps.  The
    cover size never changes, so minimality is preserved, and the scan
    order makes the result deterministic.
    """
    chosen = sorted(set(cover))
    improved = True
    while improved:
        improved = False
        for pos in range(len(chosen)):
            rest = 0
            for j, idx in enumerate(chosen):
                if j != pos:
                    rest |= masks[idx]
            need = universe_mask & ~rest
            current = chosen[pos]
            best_key = (costs[current], current)
            in_cover = set(chosen)
            for cand, mask in enumerate(masks):
                if cand in in_cover:
                    continue
                key = (costs[cand], cand)
                if key < best_key and mask & need == need:
                    best_key = key
            if best_key[1] != current:
                chosen[pos] = best_key[1]
                improved = True
        chosen.sort()
    return chosen


def exact_cover_bits(
    masks: Sequence[int],
    universe_mask: int,
    *,
    max_nodes: int = EXACT_COVER_MAX_NODES,
    costs: Optional[Sequence[int]] = None,
) -> "tuple[List[int], bool]":
    """Exact minimum cover for large bitmask instances.

    Runs the identical search as :func:`branch_and_bound_cover_bits` — greedy
    upper bound, pivot on the uncovered element contained in the fewest sets
    (ties: smallest element), branch over its containing sets in index order,
    prune with the ceiling lower bound — so on any instance both solvers
    return the same cover.  The difference is purely mechanical: element
    containment counts are computed once with numpy, pivots are found by
    scanning a precomputed ``(count, element)`` order against a numpy view of
    the uncovered set, and ``containing`` lists are materialized lazily for
    the few elements that actually become pivots.  That turns the per-node
    cost from O(|universe|) python bit iteration into a handful of wide
    integer operations, which is what makes exact covers affordable at
    bitmatrix scale (hundreds of sets × tens of thousands of elements).

    Returns ``(cover, complete)``: ``complete`` is ``False`` when the node
    budget was exhausted before the search space closed, in which case
    ``cover`` is the best cover found so far (at worst the greedy one) but is
    not proven minimal.

    ``costs`` (optional, one int per set) selects *which* minimum cover is
    returned without affecting its size: the result is post-processed by
    :func:`_reduce_cover_cost`, swapping selected sets for cheaper ones that
    preserve coverage.  The predicate learner passes false-on-positive counts
    here so covers prefer predicates that hold on the positive tuples — those
    become positive literals in the final DNF instead of negated ones.
    """
    _check_coverable_bits(masks, universe_mask)
    width = universe_mask.bit_length()

    best = greedy_cover_bits(masks, universe_mask)
    best_size = len(best)

    # Static per-element containment counts (the same quantity the small
    # solver reads off its `containing` dict) and the induced pivot order.
    counts = np.zeros(width, dtype=np.int64)
    for mask in masks:
        counts += _mask_to_bools_np(mask & universe_mask, width)
    rank = np.empty(width, dtype=np.int64)
    rank[np.lexsort((np.arange(width), counts))] = np.arange(width)

    containing: Dict[int, List[int]] = {}

    def containing_of(element: int) -> List[int]:
        hit = containing.get(element)
        if hit is None:
            hit = [idx for idx, mask in enumerate(masks) if (mask >> element) & 1]
            containing[element] = hit
        return hit

    max_set_size = max((popcount(m) for m in masks), default=1) or 1
    nodes_visited = 0
    exhausted = False

    def pivot_of(remaining: int) -> int:
        bits = _mask_to_bools_np(remaining, width)
        present = np.nonzero(bits)[0]
        return int(present[np.argmin(rank[present])])

    def search(remaining: int, chosen: List[int]) -> None:
        nonlocal best, best_size, nodes_visited, exhausted
        nodes_visited += 1
        if nodes_visited > max_nodes:
            exhausted = True
            return
        if not remaining:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + -(-popcount(remaining) // max_set_size) >= best_size:
            return
        pivot = pivot_of(remaining)
        for idx in containing_of(pivot):
            search(remaining & ~masks[idx], chosen + [idx])

    search(universe_mask, [])
    if costs is not None:
        best = _reduce_cover_cost(best, masks, universe_mask, costs)
    return best, not exhausted


def minimum_cover_bits(
    masks: Sequence[int],
    universe_mask: int,
    *,
    strategy: str = "auto",
    exact_limit: int = 26,
    costs: Optional[Sequence[int]] = None,
) -> List[int]:
    """Bitmask twin of :func:`minimum_cover` (same strategies, same answers)."""
    if not universe_mask:
        return []
    if strategy == "greedy":
        return greedy_cover_bits(masks, universe_mask)
    if strategy == "branch_and_bound":
        return branch_and_bound_cover_bits(masks, universe_mask)
    if strategy == "ilp":
        return ilp_cover_bits(masks, universe_mask)
    if strategy != "auto":
        raise ValueError(f"unknown cover strategy: {strategy!r}")
    if len(masks) <= exact_limit:
        return branch_and_bound_cover_bits(masks, universe_mask)
    cover, complete = exact_cover_bits(masks, universe_mask, costs=costs)
    if complete or not _HAVE_SCIPY_MILP:
        return cover
    return ilp_cover_bits(masks, universe_mask)


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #


def minimum_cover(
    sets: Sequence[Set[int]],
    universe: Set[int],
    *,
    strategy: str = "auto",
    exact_limit: int = 26,
    costs: Optional[Sequence[int]] = None,
) -> List[int]:
    """Select a minimum (or near-minimum) family of sets covering ``universe``.

    ``strategy`` is one of ``auto``, ``ilp``, ``branch_and_bound`` or
    ``greedy``.  ``auto`` uses exact branch and bound for small instances and
    the large-instance exact search otherwise, falling back to HiGHS when that
    search exhausts its node budget; ``greedy`` is only approximate and exists
    for ablations and as a last-resort fallback.
    """
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
    if complete or not _HAVE_SCIPY_MILP:
        return cover
    return ilp_cover(sets, universe)
