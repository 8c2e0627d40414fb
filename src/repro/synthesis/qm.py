"""Quine–McCluskey logic minimization.

Section 5.2 of the paper finds the smallest DNF classifier over the selected
atomic predicates by building a partial truth table (rows = example tuples,
columns = predicates, output = positive/negative) and applying standard
two-level logic minimization.  Unobserved predicate combinations are treated as
don't-cares.

This module implements the textbook Quine–McCluskey method:

1. group the ON-set and DC-set minterms by popcount and iteratively merge
   implicants differing in exactly one bit, yielding the *prime implicants*;
2. select a minimum subset of prime implicants covering every ON-set minterm
   (a set-cover instance, solved with the solvers of
   :mod:`repro.synthesis.set_cover`).

Internally an implicant is a pair of integers ``(value, care)`` over minterm
bit positions: ``care`` has a 1 for every specified variable and
``value ⊆ care`` gives their polarities.  The merge step is then one XOR, and
candidate partners are found by popcount bucketing instead of an all-pairs
scan.  Results are returned as tuples of ``n`` entries from ``{0, 1, None}``
(``None`` means "don't care about this variable"), most significant variable
first.  The seed's tuple-based minimizer, which returns the identical list, is
kept as a test oracle in ``tests/reference/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .bitset import full_mask, popcount
from .set_cover import minimum_cover_bits

Implicant = Tuple[Optional[int], ...]


def _bits_implicant_to_tuple(value: int, care: int, num_vars: int) -> Implicant:
    out: List[Optional[int]] = []
    for i in range(num_vars):
        bit = 1 << (num_vars - 1 - i)
        out.append(((value & bit) and 1 or 0) if care & bit else None)
    return tuple(out)


def _implicant_key(implicant: Implicant) -> Tuple[int, str]:
    return (sum(1 for x in implicant if x is not None), repr(implicant))


def _primes(
    num_vars: int, minterms: Iterable[int], dont_cares: Iterable[int]
) -> List[Tuple[Implicant, int, int]]:
    """``(implicant, value, care)`` of every prime implicant, in output order."""
    care_all = full_mask(num_vars)
    current: Set[Tuple[int, int]] = {
        (m, care_all) for m in set(minterms) | set(dont_cares)
    }
    primes: Set[Tuple[int, int]] = set()
    while current:
        merged_any: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        # Group by care mask, bucket by popcount: merge partners share the
        # mask and differ in exactly one specified bit, so their popcounts
        # differ by exactly one.
        by_mask: Dict[int, Dict[int, Set[int]]] = {}
        for value, care in current:
            by_mask.setdefault(care, {}).setdefault(popcount(value), set()).add(value)
        for care, buckets in by_mask.items():
            for count, values in buckets.items():
                upper = buckets.get(count + 1)
                if not upper:
                    continue
                for value in values:
                    candidates = care & ~value
                    while candidates:
                        bit = candidates & -candidates
                        candidates ^= bit
                        partner = value | bit
                        if partner in upper:
                            merged_any.add((value, care & ~bit))
                            used.add((value, care))
                            used.add((partner, care))
        primes |= current - used
        current = merged_any
    return sorted(
        ((_bits_implicant_to_tuple(v, c, num_vars), v, c) for v, c in primes),
        key=lambda prime: _implicant_key(prime[0]),
    )


def prime_implicants_bits(
    num_vars: int, minterms: Iterable[int], dont_cares: Iterable[int] = ()
) -> List[Implicant]:
    """Compute all prime implicants of the ON-set ∪ DC-set.

    Sorted by literal count, then by tuple ``repr``."""
    return [implicant for implicant, _, _ in _primes(num_vars, minterms, dont_cares)]


def minimize_bits(
    num_vars: int,
    minterms: Sequence[int],
    dont_cares: Sequence[int] = (),
    *,
    cover_strategy: str = "auto",
) -> List[Implicant]:
    """Return a minimum set of implicants whose union covers exactly the ON-set.

    The result is a sum-of-products (DNF) description: each implicant is one
    product term.  Don't-care minterms may or may not be covered.  Elements
    of the cover instance are indexed by the sorted ON-set, and the chosen
    terms are sorted by literal count, then ``repr``, for reproducible,
    readable output.
    """
    on_set = sorted(set(minterms))
    if not on_set:
        return []
    if num_vars == 0:
        return [tuple()]
    primes = _primes(num_vars, on_set, dont_cares)

    cover_masks: List[int] = []
    for _, value, care in primes:
        covered = 0
        for position, m in enumerate(on_set):
            if (m & care) == value:
                covered |= 1 << position
        cover_masks.append(covered)

    chosen = minimum_cover_bits(
        cover_masks, full_mask(len(on_set)), strategy=cover_strategy
    )
    return sorted((primes[i][0] for i in set(chosen)), key=_implicant_key)


def implicant_to_clause(implicant: Implicant) -> List[Tuple[int, bool]]:
    """Convert an implicant into a list of (variable index, positive?) literals."""
    return [(i, bool(bit)) for i, bit in enumerate(implicant) if bit is not None]
