"""The seed engine's tuple-based Quine–McCluskey, kept as a test oracle.

An implicant over ``n`` variables is a tuple of ``n`` entries from
``{0, 1, None}`` (``None``: don't care).  :func:`evaluate_dnf` and
:func:`minterm_to_bits` also serve tests that check a DNF against its truth
table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.synthesis.qm import Implicant

from .set_cover import minimum_cover


def minterm_to_bits(minterm: int, num_vars: int) -> Tuple[int, ...]:
    """Expand an integer minterm into a bit tuple, most significant bit first."""
    return tuple((minterm >> (num_vars - 1 - i)) & 1 for i in range(num_vars))


def bits_to_minterm(bits: Sequence[int]) -> int:
    """Inverse of :func:`minterm_to_bits`."""
    value = 0
    for bit in bits:
        value = (value << 1) | (1 if bit else 0)
    return value


def implicant_covers(implicant: Implicant, minterm_bits: Sequence[int]) -> bool:
    """Does an implicant cover a fully-specified minterm?"""
    return all(lit is None or lit == bit for lit, bit in zip(implicant, minterm_bits))


def _merge(a: Implicant, b: Implicant) -> Optional[Implicant]:
    """Merge two implicants differing in exactly one specified bit, else None."""
    diff = 0
    merged: List[Optional[int]] = []
    for x, y in zip(a, b):
        if x == y:
            merged.append(x)
        elif x is not None and y is not None:
            diff += 1
            if diff > 1:
                return None
            merged.append(None)
        else:
            return None
    return tuple(merged) if diff == 1 else None


def prime_implicants(
    num_vars: int, minterms: Iterable[int], dont_cares: Iterable[int] = ()
) -> List[Implicant]:
    """Compute all prime implicants of the ON-set ∪ DC-set."""
    terms: Set[Implicant] = {
        tuple(minterm_to_bits(m, num_vars)) for m in set(minterms) | set(dont_cares)
    }
    if not terms:
        return []
    primes: Set[Implicant] = set()
    current = terms
    while current:
        merged_any: Set[Implicant] = set()
        used: Set[Implicant] = set()
        current_list = sorted(
            current,
            key=lambda t: (
                sum(1 for x in t if x == 1),
                tuple(-1 if x is None else x for x in t),
            ),
        )
        for i, a in enumerate(current_list):
            for b in current_list[i + 1 :]:
                merged = _merge(a, b)
                if merged is not None:
                    merged_any.add(merged)
                    used.add(a)
                    used.add(b)
        primes |= current - used
        current = merged_any
    return sorted(primes, key=lambda t: (sum(1 for x in t if x is not None), t.__repr__()))


def minimize(
    num_vars: int,
    minterms: Sequence[int],
    dont_cares: Sequence[int] = (),
    *,
    cover_strategy: str = "auto",
) -> List[Implicant]:
    """Return a minimum set of implicants whose union covers exactly the ON-set.

    The result is a sum-of-products (DNF) description: each implicant is one
    product term.  Don't-care minterms may or may not be covered.
    """
    on_set = sorted(set(minterms))
    if not on_set:
        return []
    if num_vars == 0:
        # Only one row exists; it must be positive, so the formula is `true`.
        return [tuple()]
    primes = prime_implicants(num_vars, on_set, dont_cares)
    on_bits = {m: minterm_to_bits(m, num_vars) for m in on_set}

    cover_sets: List[Set[int]] = []
    for prime in primes:
        covered = {m for m, bits in on_bits.items() if implicant_covers(prime, bits)}
        cover_sets.append(covered)

    chosen = minimum_cover(cover_sets, set(on_set), strategy=cover_strategy)
    # Prefer implicants with fewer literals when sorting the chosen terms, for
    # reproducible, readable output.
    selected = [primes[i] for i in sorted(set(chosen))]
    selected.sort(key=lambda t: (sum(1 for x in t if x is not None), repr(t)))
    return selected


def evaluate_dnf(implicants: Sequence[Implicant], assignment: Sequence[int]) -> bool:
    """Evaluate a sum-of-products form on a full variable assignment."""
    return any(implicant_covers(imp, assignment) for imp in implicants)
