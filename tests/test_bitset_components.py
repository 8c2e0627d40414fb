"""Unit tests for the bitset building blocks against their list-based seeds.

Each bitmask component (set cover, Quine–McCluskey, predicate matrix, fast
tuple classification) has a list-based seed counterpart kept as an oracle in
``tests/reference/``; these tests pin them together on randomized and
hand-built instances.
"""

import random

import pytest

from repro.dsl import Children, Var
from repro.dsl.ast import TableExtractor
from repro.hdt import build_tree
from repro.synthesis import (
    SynthesisConfig,
    SynthesisContext,
    build_predicate_masks,
    classify_tuples_fast,
    construct_predicate_universe,
    distinguishing_pairs_mask,
    exact_cover_bits,
    greedy_cover_bits,
    ilp_cover_bits,
    minimize_bits,
    minimum_cover_bits,
    prime_implicants_bits,
)
from repro.synthesis.bitset import (
    full_mask,
    iter_bits,
    mask_from_bits,
    mask_from_indices,
    mask_to_bools,
    popcount,
)
from repro.synthesis.set_cover import CoverError
from tests.reference.predicate_learner import _feature_matrix, classify_tuples
from tests.reference.qm import minimize, prime_implicants
from tests.reference.set_cover import branch_and_bound_cover, greedy_cover, ilp_cover, minimum_cover


# --------------------------------------------------------------------------- #
# Bitset primitives
# --------------------------------------------------------------------------- #


def test_popcount_and_iter_bits_small():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert list(iter_bits(0b1011)) == [0, 1, 3]


def test_iter_bits_large_mask_uses_linear_path():
    """Masks beyond 64 bits take the bytes-based scan; results identical."""
    rnd = random.Random(3)
    positions = sorted(rnd.sample(range(5000), 700))
    mask = mask_from_indices(positions)
    assert list(iter_bits(mask)) == positions
    assert popcount(mask) == len(positions)


def test_mask_round_trips():
    bools = [True, False, True, True, False]
    mask = mask_from_bits(bools)
    assert mask == 0b01101
    assert mask_to_bools(mask, 5) == bools
    assert full_mask(4) == 0b1111
    assert full_mask(0) == 0


# --------------------------------------------------------------------------- #
# Set cover: bitmask vs list-based
# --------------------------------------------------------------------------- #


def test_cover_solvers_randomized_parity():
    rnd = random.Random(42)
    for _ in range(150):
        n_elements = rnd.randrange(1, 12)
        sets = [
            set(rnd.sample(range(n_elements), rnd.randrange(1, n_elements + 1)))
            for _ in range(rnd.randrange(1, 9))
        ]
        universe = set().union(*sets)
        masks = [mask_from_indices(s) for s in sets]
        universe_mask = mask_from_indices(universe)
        assert greedy_cover(sets, universe) == greedy_cover_bits(masks, universe_mask)
        exact = branch_and_bound_cover(sets, universe)
        assert exact_cover_bits(masks, universe_mask) == (exact, True)
        for strategy in ("auto", "greedy"):
            assert minimum_cover(sets, universe, strategy=strategy) == minimum_cover_bits(
                masks, universe_mask, strategy=strategy
            )
        ilp = ilp_cover_bits(masks, universe_mask)
        assert sorted(ilp_cover(sets, universe)) == sorted(ilp)
        # The one ILP is optimal: the exact search's cover size.
        assert len(ilp) == len(exact)


def test_cover_bits_uncoverable_raises():
    with pytest.raises(CoverError):
        minimum_cover_bits([0b001], 0b011)


def test_cover_bits_empty_universe():
    assert minimum_cover_bits([0b1], 0) == []


def test_cover_bits_unknown_strategy():
    with pytest.raises(ValueError):
        minimum_cover_bits([0b1], 0b1, strategy="magic")


# --------------------------------------------------------------------------- #
# Quine–McCluskey: bitmask vs list-based
# --------------------------------------------------------------------------- #


def test_qm_randomized_parity():
    rnd = random.Random(11)
    for _ in range(200):
        num_vars = rnd.randrange(1, 6)
        total = 1 << num_vars
        on_set = sorted(rnd.sample(range(total), rnd.randrange(1, total + 1)))
        rest = [m for m in range(total) if m not in on_set]
        dont_cares = (
            sorted(rnd.sample(rest, rnd.randrange(0, len(rest) + 1))) if rest else []
        )
        assert prime_implicants(num_vars, on_set, dont_cares) == prime_implicants_bits(
            num_vars, on_set, dont_cares
        )
        assert minimize(num_vars, on_set, dont_cares) == minimize_bits(
            num_vars, on_set, dont_cares
        )


def test_qm_bits_edge_cases():
    assert minimize_bits(3, []) == []
    assert minimize_bits(0, [0]) == [tuple()]
    assert prime_implicants_bits(2, []) == []


# --------------------------------------------------------------------------- #
# Predicate matrix vs the seed feature matrix
# --------------------------------------------------------------------------- #


@pytest.fixture
def classification_instance():
    tree = build_tree(
        {
            "rec": [
                {"id": 1, "name": "a", "item": [{"v": 5}, {"v": 6}]},
                {"id": 2, "name": "b", "item": [{"v": 7}]},
            ]
        },
        tag="root",
    )
    extractor = TableExtractor(
        (
            Children(Children(Var(), "rec"), "id"),
            Children(Children(Children(Var(), "rec"), "item"), "v"),
        )
    )
    rows = [(1, 5), (1, 6), (2, 7)]
    return tree, extractor, rows


def test_classify_tuples_fast_matches_seed(classification_instance):
    tree, extractor, rows = classification_instance
    seed_pos, seed_neg = classify_tuples([(tree, rows)], extractor)
    fast_pos, fast_neg = classify_tuples_fast([(tree, rows)], extractor)
    assert seed_pos == fast_pos
    assert seed_neg == fast_neg


def test_classify_tuples_fast_max_rows(classification_instance):
    tree, extractor, rows = classification_instance
    with pytest.raises(MemoryError):
        classify_tuples_fast([(tree, rows)], extractor, max_rows=2)


def test_predicate_masks_match_seed_feature_matrix(classification_instance):
    tree, extractor, rows = classification_instance
    config = SynthesisConfig.fast()
    positives, negatives = classify_tuples([(tree, rows)], extractor)
    universe = construct_predicate_universe([tree], extractor.columns, config)
    assert universe

    pos_rows, neg_rows = _feature_matrix(universe, positives, negatives)
    context = SynthesisContext()
    masks = build_predicate_masks(
        universe, positives + negatives, len(extractor.columns), context
    )
    for idx in range(len(universe)):
        vector = [row[idx] for row in pos_rows] + [row[idx] for row in neg_rows]
        assert masks[idx] == mask_from_bits(vector), universe[idx]


def test_distinguishing_pairs_mask_matches_enumeration():
    rnd = random.Random(5)
    for _ in range(100):
        num_pos = rnd.randrange(1, 5)
        num_neg = rnd.randrange(1, 5)
        mask = rnd.randrange(1 << (num_pos + num_neg))
        expected = 0
        for p in range(num_pos):
            for n in range(num_neg):
                pos_bit = (mask >> p) & 1
                neg_bit = (mask >> (num_pos + n)) & 1
                if pos_bit != neg_bit:
                    expected |= 1 << (p * num_neg + n)
        assert distinguishing_pairs_mask(mask, num_pos, num_neg) == expected


# --------------------------------------------------------------------------- #
# Tag-index alphabets (satellite: cached per HDT)
# --------------------------------------------------------------------------- #


def test_tag_index_tags_and_positions_match_scan():
    tree = build_tree(
        {
            "rec": [
                {"id": 1, "item": [{"v": 1}, {"v": 2}]},
                {"id": 2, "item": [{"v": 3}]},
            ]
        },
        tag="root",
    )
    scan_tags = []
    seen = set()
    for node in tree.nodes():
        if node.tag not in seen:
            seen.add(node.tag)
            scan_tags.append(node.tag)
    assert tree.tags() == scan_tags
    assert tree.tag_index().tags() == scan_tags
    for tag in scan_tags:
        expected = sorted({n.pos for n in tree.nodes() if n.tag == tag})
        assert tree.positions_for_tag(tag) == expected
    assert tree.positions_for_tag("absent") == []
