"""Bitset primitives for the synthesis engine.

The predicate learner represents truth vectors over the example tuple space as
arbitrary-precision python integers: bit *i* of a predicate's mask says whether
tuple *i* satisfies it.  Boolean algebra over whole columns of the truth table
then becomes single ``&``/``|``/``^`` machine-word operations, which is what
makes the bitmatrix pipeline fast.

``int.bit_count`` only exists on python ≥ 3.10; :func:`popcount` falls back to
``bin(x).count("1")`` on 3.9 (the oldest interpreter in CI).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

if hasattr(int, "bit_count"):

    def popcount(mask: int) -> int:
        """Number of set bits in a non-negative integer."""
        return mask.bit_count()

else:  # pragma: no cover - python < 3.10

    def popcount(mask: int) -> int:
        """Number of set bits in a non-negative integer."""
        return bin(mask).count("1")


def mask_from_bits(bits: Sequence[bool]) -> int:
    """Pack an iterable of booleans into a mask (element 0 → bit 0)."""
    mask = 0
    for index, bit in enumerate(bits):
        if bit:
            mask |= 1 << index
    return mask


def mask_from_indices(indices) -> int:
    """A mask with exactly the given bit positions set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


#: positions of set bits within one byte, for the linear-time extraction below
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if (byte >> b) & 1) for byte in range(256)
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order.

    Isolating the lowest bit with ``mask & -mask`` touches every word of the
    integer, so looping it over a k-bit mask is O(k²/64) — quadratic in the
    tuple space.  Large masks are therefore exported to bytes once (O(k)) and
    scanned with a per-byte position table, keeping whole-mask iteration
    linear; tiny masks keep the allocation-free low-bit loop.
    """
    if mask.bit_length() <= 64:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for offset in _BYTE_BITS[byte]:
                yield base + offset
        base += 8


def full_mask(width: int) -> int:
    """A mask with bits ``0 .. width-1`` set."""
    return (1 << width) - 1


def mask_to_bools(mask: int, width: int) -> List[bool]:
    """Unpack the low ``width`` bits into a list of booleans."""
    return [bool((mask >> index) & 1) for index in range(width)]


def compose_mask(uids, uid_masks) -> int:
    """Recompose a predicate's tuple mask from its satisfying node uids.

    ``uid_masks`` maps a column's node uids to tuple bitmasks (the
    :class:`~repro.synthesis.predicate_matrix.TupleSpace` tables); the
    predicate holds on exactly the tuples whose column entry is one of
    ``uids``.  Separating the *decision* (which nodes satisfy the predicate —
    cacheable across candidate table extractors) from the *expansion* (which
    tuple positions those nodes occupy — specific to one tuple space) is what
    lets a new candidate reuse every predicate evaluation whose column nodes
    did not change.
    """
    mask = 0
    for uid in uids:
        mask |= uid_masks[uid]
    return mask


def compose_pair_mask(pairs, left_masks, right_masks) -> int:
    """Recompose a two-column predicate's tuple mask from satisfying uid pairs.

    A tuple satisfies the predicate iff its (left column, right column) node
    pair is one of ``pairs``; the tuple positions holding that pair are the
    intersection of the two per-column bitmasks.
    """
    mask = 0
    for left, right in pairs:
        mask |= left_masks[left] & right_masks[right]
    return mask
