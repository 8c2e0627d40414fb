"""Candidate-level caching, the parallel ψ stage and the large-cover solver.

PR 8 turns predicate learning incremental across the candidate table
extractors of one task (universes, χi sets and per-predicate satisfying-node
sets are keyed by column *node-list signatures* and reused), adds a
process-parallel candidate stage, and replaces HiGHS with a deterministic
exact search on large pair-cover instances.  Every one of those is required
to be a pure performance transformation: identical programs, identical
θ-costs, identical success — which is what this module checks, from the
solver level up to whole random synthesis tasks.
"""

import random

import pytest

from test_vectorized_synthesis import _random_task

from repro.dsl.ast import (
    CompareConst,
    CompareNodes,
    Descendants,
    NodeVar,
    Op,
    Parent,
    Var,
)
from repro.dsl.cost import program_cost
from repro.dsl.pretty import pretty_program
from repro.dsl.serialize import (
    SerializationError,
    column_to_json,
    node_extractor_to_json,
    predicate_to_json,
)
from repro.hdt import build_tree
from repro.synthesis import SynthesisConfig, SynthesisContext, synthesize
from repro.synthesis.predicate_matrix import build_predicate_masks
from repro.synthesis.serialize import deserialize_context, serialize_context
from repro.synthesis.bitset import iter_bits
from repro.synthesis.set_cover import (
    exact_cover_bits,
    greedy_cover_bits,
    minimum_cover_bits,
)
from repro.synthesis.synthesizer import (
    ExamplePair,
    SynthesisTask,
    Synthesizer,
)
from tests.reference.set_cover import branch_and_bound_cover, minimum_cover
from tests.reference.synthesizer import use_reference_engine

FAST = SynthesisConfig.fast()


def _signature(result):
    if not result.success or result.program is None:
        return ("unsolved", result.message)
    return (pretty_program(result.program), program_cost(result.program))


# --------------------------------------------------------------------------- #
# Property: caching and parallelism never change the learned program
# --------------------------------------------------------------------------- #


def test_property_cached_equals_uncached_on_random_tasks(monkeypatch):
    """≥100 random tasks: the engine with its candidate caches and the
    uncached seed algorithms learn identical results."""
    rnd = random.Random(20260808)
    tasks = [_random_task(rnd) for _ in range(110)]
    cached = [
        synthesize([(tree, rows)], config=FAST, name=f"t{trial}")
        for trial, (tree, rows) in enumerate(tasks)
    ]
    use_reference_engine(monkeypatch)
    solved = 0
    for trial, (tree, rows) in enumerate(tasks):
        uncached = synthesize([(tree, rows)], config=FAST, name=f"t{trial}")
        assert _signature(cached[trial]) == _signature(uncached), trial
        if cached[trial].success:
            solved += 1
    assert solved >= 80


def test_property_parallel_equals_serial_on_random_tasks():
    """Candidate-level --jobs fan-out returns byte-identical programs."""
    rnd = random.Random(1147)
    checked = 0
    for trial in range(10):
        tree, rows = _random_task(rnd)
        task = SynthesisTask(examples=[ExamplePair(tree, rows)], name=f"p{trial}")
        serial = Synthesizer(FAST).synthesize(task)
        parallel = Synthesizer(FAST, jobs=2).synthesize(task)
        assert _signature(serial) == _signature(parallel), trial
        assert serial.candidates_tried == parallel.candidates_tried, trial
        if serial.success:
            checked += 1
    assert checked >= 5


def test_synthesizer_rejects_negative_jobs():
    with pytest.raises(ValueError):
        Synthesizer(FAST, jobs=-1)


def test_synthesis_stats_are_populated(monkeypatch):
    """Per-candidate universe sizes, phase timings and cache counters."""
    doc = {
        "person": [
            {"name": "Ann", "age": 31, "city": "Oslo"},
            {"name": "Bob", "age": 24, "city": "Pune"},
            {"name": "Cid", "age": 31, "city": "Oslo"},
        ]
    }
    tree = build_tree(doc)
    rows = [("Ann", "Oslo"), ("Cid", "Oslo")]
    result = synthesize([(tree, rows)], config=FAST, name="stats")
    assert result.success
    stats = result.stats
    assert stats is not None
    assert len(stats.universe_sizes) == result.candidates_tried
    assert all(size >= 0 for size in stats.universe_sizes)
    assert stats.universe_seconds >= 0.0
    assert stats.bitmatrix_seconds >= 0.0
    assert stats.cover_seconds >= 0.0
    assert stats.cache_counters.get("universe_misses", 0) >= 1
    assert "universe sizes per candidate" in stats.describe()

    use_reference_engine(monkeypatch)
    uncached = synthesize([(tree, rows)], config=FAST, name="stats")
    assert uncached.stats is not None
    # The seed algorithms never touch the candidate-level caches.
    assert not any(uncached.stats.cache_counters.values())


# --------------------------------------------------------------------------- #
# Bitmask recomposition when one column changes
# --------------------------------------------------------------------------- #


def _nodes_by_tag(tree, tag):
    return [n for n in tree.nodes() if n.tag == tag]


def test_mask_recomposition_after_one_column_change():
    """Predicates on the unchanged column recompose from cached node sets."""
    doc = {
        "person": [
            {"name": "Ann", "age": 31, "city": "Oslo"},
            {"name": "Bob", "age": 24, "city": "Pune"},
            {"name": "Cid", "age": 31, "city": "Oslo"},
            {"name": "Dee", "age": 27, "city": "Lima"},
        ]
    }
    tree = build_tree(doc)
    cities = _nodes_by_tag(tree, "city")
    ages = _nodes_by_tag(tree, "age")
    assert len(cities) == 4 and len(ages) == 4
    universe = [
        CompareConst(NodeVar(), 0, Op.EQ, "Oslo"),
        CompareConst(NodeVar(), 1, Op.GT, 25),
        CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1),
        CompareNodes(Parent(NodeVar()), 1, Op.EQ, Parent(NodeVar()), 1),
    ]
    context = SynthesisContext()

    # A fresh context per cold evaluation: nothing to reuse.
    tuples1 = [(c, a) for c in cities for a in ages]
    cold1 = build_predicate_masks(universe, tuples1, 2, SynthesisContext())
    warm1 = build_predicate_masks(universe, tuples1, 2, context)
    assert warm1 == cold1
    assert context.counters["mask_misses"] == len(universe)

    # ψₙ₊₁ differs from ψₙ in column 0 only (one city dropped), and the tuple
    # order changes too: cached node sets must recompose to exactly the masks
    # a cold evaluation produces.
    tuples2 = [(c, a) for a in ages for c in cities[1:]]
    cold2 = build_predicate_masks(universe, tuples2, 2, SynthesisContext())
    hits_before = context.counters["mask_hits"]
    warm2 = build_predicate_masks(universe, tuples2, 2, context)
    assert warm2 == cold2
    # Exactly the predicates reading only column 1 (the age constant and the
    # same-column age comparison) hit; everything touching column 0 misses.
    assert context.counters["mask_hits"] == hits_before + 2

    # An identical tuple space is a full cache hit.
    hits_before = context.counters["mask_hits"]
    misses_before = context.counters["mask_misses"]
    warm2_again = build_predicate_masks(universe, tuples2, 2, context)
    assert warm2_again == cold2
    assert context.counters["mask_hits"] == hits_before + len(universe)
    assert context.counters["mask_misses"] == misses_before


# --------------------------------------------------------------------------- #
# Large-instance exact cover
# --------------------------------------------------------------------------- #


def _random_cover_instance(rnd):
    width = rnd.randint(4, 16)
    universe = (1 << width) - 1
    masks = []
    for _ in range(rnd.randint(3, 30)):
        mask = 0
        for element in range(width):
            if rnd.random() < 0.35:
                mask |= 1 << element
        masks.append(mask)
    covered = 0
    for mask in masks:
        covered |= mask
    missing = universe & ~covered
    if missing:
        masks.append(missing)  # keep the instance coverable
    return masks, universe


def _oracle_cover(masks, universe):
    """The set-based branch and bound of ``tests/reference/`` on a bitmask instance."""
    return branch_and_bound_cover(
        [set(iter_bits(mask)) for mask in masks], set(iter_bits(universe))
    )


def test_exact_cover_matches_branch_and_bound_on_random_instances():
    """The numpy-accelerated search makes the identical decisions."""
    rnd = random.Random(88)
    for trial in range(60):
        masks, universe = _random_cover_instance(rnd)
        reference = _oracle_cover(masks, universe)
        cover, complete = exact_cover_bits(masks, universe)
        assert complete, trial
        assert cover == reference, trial


def test_exact_cover_budget_exhaustion_returns_valid_cover():
    rnd = random.Random(9)
    masks, universe = _random_cover_instance(rnd)
    cover, complete = exact_cover_bits(masks, universe, max_nodes=1)
    assert not complete
    covered = 0
    for idx in cover:
        covered |= masks[idx]
    assert covered & universe == universe
    assert cover == greedy_cover_bits(masks, universe)


def test_auto_dispatch_uses_exact_search_above_the_small_limit():
    """> 26 sets, where ``auto`` may apply costs: still a minimal cover."""
    rnd = random.Random(4242)
    for _ in range(10):
        masks, universe = _random_cover_instance(rnd)
        if len(masks) <= 26:
            masks = masks * (26 // len(masks) + 1)  # force the large path
        auto = minimum_cover_bits(masks, universe, strategy="auto")
        reference = _oracle_cover(masks, universe)
        assert len(auto) == len(reference)
        covered = 0
        for idx in auto:
            covered |= masks[idx]
        assert covered & universe == universe


def test_cost_aware_search_prefers_cheaper_equally_minimal_cover():
    """With per-set costs, swaps pick the cheaper of two same-size optima."""
    # Elements {0,1}: sets 0 and 1 each cover both (interchangeable minimum
    # covers of size 1); set 2 covers only element 0 (never sufficient).
    masks = [0b11, 0b11, 0b01]
    universe = 0b11
    without_costs, complete = exact_cover_bits(masks, universe)
    assert complete and without_costs == [0]
    preferring_second, complete = exact_cover_bits(masks, universe, costs=[5, 1, 0])
    assert complete and preferring_second == [1]
    # Swapping never changes the cover size, only which optimum is returned.
    rnd = random.Random(31)
    for trial in range(30):
        masks, universe = _random_cover_instance(rnd)
        costs = [rnd.randrange(10) for _ in masks]
        plain, _ = exact_cover_bits(masks, universe)
        swapped, _ = exact_cover_bits(masks, universe, costs=costs)
        assert len(swapped) == len(plain), trial
        covered = 0
        for idx in swapped:
            covered |= masks[idx]
        assert covered & universe == universe, trial
        assert sum(costs[i] for i in swapped) <= sum(costs[i] for i in plain), trial


def test_unknown_cover_strategy_is_rejected():
    # 'legacy' names a removed strategy and must not fall back to 'auto'.
    for strategy in ("simulated-annealing", 'legacy'):
        with pytest.raises(ValueError):
            minimum_cover_bits([1], 1, strategy=strategy)
        with pytest.raises(ValueError):
            minimum_cover([{0}], {0}, strategy=strategy)


# --------------------------------------------------------------------------- #
# Context wire format: only version 2 loads
# --------------------------------------------------------------------------- #

_DOC = {
    "person": [
        {"name": "Ann", "city": "Oslo"},
        {"name": "Bob", "city": "Pune"},
    ]
}


def test_v1_context_payload_is_refused():
    """A version-1 payload (χi/universe entries keyed by column AST) is
    refused; the context store treats that as a miss."""
    tree = build_tree({"person": [{"name": "Ann", "city": "Oslo"}]})
    column = Descendants(Var(), "city")
    predicate = CompareConst(NodeVar(), 0, Op.EQ, "Oslo")
    payload = {
        "kind": "synthesis_context",
        "version": 1,
        "trees": [{"fingerprint": tree.content_fingerprint(), "size": tree.size()}],
        "columns_pool": [column_to_json(column)],
        "node_extractors_pool": [node_extractor_to_json(NodeVar())],
        "predicates_pool": [predicate_to_json(predicate)],
        "column_results": [],
        "chi": [{"trees": [0], "column": 0, "extractors": [0]}],
        "universes": [{"trees": [0], "columns": [0], "predicates": [0]}],
    }
    target = SynthesisContext()
    with pytest.raises(SerializationError):
        deserialize_context(payload, [tree], context=target)
    assert not target.trees() and not target.chi and not target.universes


def test_v2_round_trip_preserves_signature_keys():
    """χi/universe entries serialize as version 2 and re-key onto the node
    signatures of a rebuilt tree."""
    tree = build_tree(_DOC)
    column = Descendants(Var(), "name")
    context = SynthesisContext()
    context.facts(tree)
    sig = context.column_signature(column, [tree])
    context.chi[((id(tree),), sig)] = [NodeVar()]
    context.universes[((id(tree),), (sig,))] = [
        CompareConst(NodeVar(), 0, Op.EQ, "Ann")
    ]
    payload = serialize_context(context)
    assert payload["version"] == 2
    rebuilt = build_tree(_DOC)  # fresh uids: positions must re-key
    restored = deserialize_context(payload, [rebuilt])
    new_sig = restored.column_signature(column, [rebuilt])
    assert restored.chi[((id(rebuilt),), new_sig)] == [NodeVar()]
    assert restored.universes[((id(rebuilt),), (new_sig,))] == [
        CompareConst(NodeVar(), 0, Op.EQ, "Ann")
    ]
