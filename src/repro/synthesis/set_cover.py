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

Set *k* is an integer mask whose bit *e* says "set *k* contains element *e*".
All solvers return indices of the selected sets; :func:`minimum_cover_bits`
dispatches on the strategy.  The seed's set-based solvers, which these match
decision for decision, are test oracles in ``tests/reference/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

try:  # scipy is an install dependency, but keep the import robust.
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_matrix

    _HAVE_SCIPY_MILP = True
except Exception:  # pragma: no cover - environment without scipy
    _HAVE_SCIPY_MILP = False


from .bitset import iter_bits, popcount


class CoverError(Exception):
    """Raised when no cover exists (some element is contained in no set)."""


def _check_coverable_bits(masks: Sequence[int], universe_mask: int) -> None:
    covered = 0
    for mask in masks:
        covered |= mask
    missing = universe_mask & ~covered
    if missing:
        raise CoverError(f"{popcount(missing)} elements cannot be covered by any set")


def greedy_cover_bits(masks: Sequence[int], universe_mask: int) -> List[int]:
    """Classic greedy set cover: repeatedly take the set covering most remaining.

    Ties keep the lowest set index."""
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
    """Exact minimum cover by branch and bound.

    Pivots on the uncovered element contained in the fewest sets (ties: the
    smallest element, so the search order is well-defined) and branches over
    its containing sets in index order.  The greedy solution is the initial
    upper bound, and a simple lower bound (ceil of remaining / largest set)
    prunes.  ``max_nodes`` caps the search; if exceeded, the best solution
    found so far (at worst the greedy one) is returned, which keeps the
    solver total.
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
        # Ascending-bit scan with strict `<`: ties keep the smallest element.
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
    """Solve minimum cover as a 0-1 integer linear program (HiGHS).

    Row *r* of the constraint matrix is the *r*-th element of the universe in
    ascending order and column *k* is set *k*.  Without scipy, or if the
    solver fails, the exact branch and bound answers instead.
    """
    _check_coverable_bits(masks, universe_mask)
    if not universe_mask:
        return []
    if not _HAVE_SCIPY_MILP:  # pragma: no cover - environment without scipy
        return branch_and_bound_cover_bits(masks, universe_mask)

    width = universe_mask.bit_length()
    in_universe = _mask_to_bools_np(universe_mask, width)
    row_of = np.cumsum(in_universe) - 1
    rows, cols = [], []
    for set_idx, mask in enumerate(masks):
        elements = np.nonzero(_mask_to_bools_np(mask & universe_mask, width))[0]
        rows.append(row_of[elements])
        cols.append(np.full(len(elements), set_idx))
    num_elements = int(row_of[-1]) + 1
    matrix = csr_matrix(
        (np.ones(sum(len(r) for r in rows)), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_elements, len(masks)),
    )
    result = milp(
        c=np.ones(len(masks)),
        constraints=[LinearConstraint(matrix, lb=np.ones(num_elements), ub=np.inf)],
        integrality=np.ones(len(masks)),
        bounds=None,
    )
    if not result.success or result.x is None:  # pragma: no cover - solver hiccup
        return branch_and_bound_cover_bits(masks, universe_mask)
    return [idx for idx, val in enumerate(result.x) if val > 0.5]


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
    """Select a minimum (or near-minimum) family of sets covering ``universe_mask``.

    ``strategy`` is one of ``auto``, ``ilp``, ``branch_and_bound`` or
    ``greedy``.  ``auto`` uses exact branch and bound for small instances and
    the large-instance exact search otherwise, falling back to HiGHS when that
    search exhausts its node budget; ``greedy`` is only approximate and exists
    for ablations and as a last-resort fallback.
    """
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
