"""Equivalence of the bitset-vectorized synthesis engine and the seed algorithms.

The vectorized engine (lazy product DFA, predicate bitmatrices, bitmask
solvers) must be a pure performance transformation: on every task it returns a
program semantically equivalent to the seed learner's — same output tables,
same θ-cost — and in practice the identical pretty-printed program, which
``test_seed_engine_learns_the_vectorized_dblp_plan`` pins on a whole schema.
"""

import hashlib
import random

import pytest

from repro.dsl.cost import program_cost
from repro.dsl.pretty import pretty_program
from repro.dsl.semantics import run_program
from repro.hdt import build_tree
from repro.synthesis import (
    ColumnLearningError,
    SynthesisConfig,
    SynthesisContext,
    learn_column_extractors_eager,
    learn_column_extractors_lazy,
    synthesize,
)

FAST = SynthesisConfig.fast()
FAST_SEED = FAST.seed_variant()

NAMES = ["ann", "bob", "cara", "dan", "eve", "fay"]
CATEGORIES = ["red", "blue", "green"]


# --------------------------------------------------------------------------- #
# Random task generation
# --------------------------------------------------------------------------- #


def _random_document(rnd: random.Random):
    """A record-shaped document: recs with scalar fields and nested items."""
    records = []
    for index in range(rnd.randint(2, 4)):
        record = {
            "id": index + 1,
            "name": rnd.choice(NAMES) + str(index),
            "cat": rnd.choice(CATEGORIES),
        }
        if rnd.random() < 0.7:
            record["item"] = [
                {"v": rnd.randint(1, 9), "w": rnd.choice(CATEGORIES)}
                for _ in range(rnd.randint(1, 3))
            ]
        records.append(record)
    return records


def _random_task(rnd: random.Random):
    """A (tree, rows) synthesis task over a random document.

    Mixes the shapes that exercise every engine stage: plain projections
    (no filter), per-record joins (structural predicates), record-item joins
    (hierarchical predicates), and value-filtered subsets (constant
    predicates).  Some tasks are unsolvable within the FAST bounds — both
    engines must then agree on the failure.
    """
    records = _random_document(rnd)
    tree = build_tree({"rec": records}, tag="root")
    shape = rnd.randrange(4)
    if shape == 0:
        field = rnd.choice(["id", "name", "cat"])
        rows = [(r[field],) for r in records]
    elif shape == 1:
        rows = [(r["id"], r["name"]) for r in records]
    elif shape == 2:
        rows = [
            (r["id"], item["v"])
            for r in records
            for item in r.get("item", [])
        ]
        if not rows:
            rows = [(r["id"],) for r in records]
    else:
        cutoff = rnd.randint(1, len(records))
        rows = [(r["name"],) for r in records if r["id"] <= cutoff]
    return tree, rows


def test_property_vectorized_equals_seed_on_random_tasks():
    """≥100 random tasks: identical success, outputs, θ-cost and rendering."""
    rnd = random.Random(20260727)
    solved = 0
    for trial in range(110):
        tree, rows = _random_task(rnd)
        fast_result = synthesize([(tree, rows)], config=FAST, name=f"t{trial}")
        seed_result = synthesize([(tree, rows)], config=FAST_SEED, name=f"t{trial}")
        assert fast_result.success == seed_result.success, (
            trial,
            fast_result.message,
            seed_result.message,
        )
        if not fast_result.success:
            continue
        solved += 1
        fast_program, seed_program = fast_result.program, seed_result.program
        assert program_cost(fast_program) == program_cost(seed_program), trial
        assert pretty_program(fast_program) == pretty_program(seed_program), trial
        fast_rows = sorted(map(repr, run_program(fast_program, tree)))
        seed_rows = sorted(map(repr, run_program(seed_program, tree)))
        assert fast_rows == seed_rows, trial
    # The generator is tuned so most tasks are solvable; make sure the test
    # actually exercised the synthesis pipeline.
    assert solved >= 80


def test_property_column_learner_lazy_equals_eager():
    """Random (tree, column) examples: identical extractor lists."""
    rnd = random.Random(7)
    context = SynthesisContext()
    checked = 0
    for _ in range(60):
        records = _random_document(rnd)
        tree = build_tree({"rec": records}, tag="root")
        field = rnd.choice(["id", "name", "cat"])
        values = [r[field] for r in records]
        if rnd.random() < 0.5:
            values = values[: rnd.randint(1, len(values))]
        examples = [(tree, values)]
        try:
            eager = learn_column_extractors_eager(examples, FAST)
        except ColumnLearningError:
            with pytest.raises(ColumnLearningError):
                learn_column_extractors_lazy(examples, FAST, context)
            continue
        lazy = learn_column_extractors_lazy(examples, FAST, context)
        assert eager == lazy
        checked += 1
    assert checked >= 30


def test_column_learner_multi_example_parity():
    tree1 = build_tree(
        {"rec": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]}, tag="root"
    )
    tree2 = build_tree({"rec": [{"id": 9, "name": "z"}]}, tag="root")
    examples = [(tree1, ["a", "b"]), (tree2, ["z"])]
    assert learn_column_extractors_eager(examples, FAST) == learn_column_extractors_lazy(
        examples, FAST
    )


def test_column_learner_error_parity_value_absent():
    tree = build_tree({"rec": [{"id": 1}]}, tag="root")
    for learner in (learn_column_extractors_eager, learn_column_extractors_lazy):
        with pytest.raises(ColumnLearningError):
            learner([(tree, ["missing"])], FAST)


def test_column_learner_none_value_parity():
    """A None column value matches data-less (internal) nodes in both engines."""
    tree = build_tree({"item": [{"name": "a"}]}, tag="root")
    examples = [(tree, [None])]
    eager = learn_column_extractors_eager(examples, FAST)
    lazy = learn_column_extractors_lazy(examples, FAST)
    assert eager == lazy
    assert eager  # compare_values(None, =, None) holds, so extractors exist


def test_column_learner_nan_value_rejected_by_both():
    """NaN equals nothing under compare_values — both engines must fail."""
    tree = build_tree({"item": [{"v": float("nan")}]}, tag="root")
    examples = [(tree, [float("nan")])]
    for learner in (learn_column_extractors_eager, learn_column_extractors_lazy):
        with pytest.raises(ColumnLearningError):
            learner(examples, FAST)


def test_classify_tuples_nan_identity_parity():
    """A NaN object shared by the document and an output row must classify
    identically in both implementations (negative: NaN equals nothing)."""
    from repro.dsl import Children, Var
    from repro.dsl.ast import TableExtractor
    from repro.synthesis import classify_tuples, classify_tuples_fast

    shared_nan = float("nan")
    tree = build_tree({"rec": [{"v": shared_nan}, {"v": 1}]}, tag="root")
    extractor = TableExtractor((Children(Children(Var(), "rec"), "v"),))
    rows = [(shared_nan,), (1,)]
    seed_pos, seed_neg = classify_tuples([(tree, rows)], extractor)
    fast_pos, fast_neg = classify_tuples_fast([(tree, rows)], extractor)
    assert seed_pos == fast_pos
    assert seed_neg == fast_neg


def test_synthesis_nan_output_parity():
    """Tasks whose output rows contain NaN fail identically in both engines."""
    shared_nan = float("nan")
    tree = build_tree({"rec": [{"v": shared_nan}, {"v": 2}]}, tag="root")
    rows = [(shared_nan,), (2,)]
    fast_result = synthesize([(tree, rows)], config=FAST)
    seed_result = synthesize([(tree, rows)], config=FAST_SEED)
    assert fast_result.success == seed_result.success


def test_multi_example_synthesis_parity():
    tree1 = build_tree(
        {"emp": [{"name": "a", "dept": "x"}, {"name": "b", "dept": "y"}]}, tag="root"
    )
    tree2 = build_tree({"emp": [{"name": "c", "dept": "z"}]}, tag="root")
    examples = [(tree1, [("a", "x"), ("b", "y")]), (tree2, [("c", "z")])]
    fast_result = synthesize(examples, config=FAST)
    seed_result = synthesize(examples, config=FAST_SEED)
    assert fast_result.success and seed_result.success
    assert pretty_program(fast_result.program) == pretty_program(seed_result.program)


def test_stats_parity():
    """The diagnostics collected by both engines agree."""
    tree = build_tree(
        {
            "rec": [
                {"id": 1, "name": "a", "item": [{"v": 5}]},
                {"id": 2, "name": "b", "item": [{"v": 7}]},
            ]
        },
        tag="root",
    )
    rows = [(1, 5), (2, 7)]
    fast_result = synthesize([(tree, rows)], config=FAST)
    seed_result = synthesize([(tree, rows)], config=FAST_SEED)
    assert fast_result.success and seed_result.success
    assert fast_result.candidates_tried == seed_result.candidates_tried
    assert fast_result.column_candidates == seed_result.column_candidates
    fast_stats, seed_stats = fast_result.predicate_stats, seed_result.predicate_stats
    assert (fast_stats is None) == (seed_stats is None)
    if fast_stats is not None:
        for field in (
            "universe_size",
            "distinct_feature_vectors",
            "positive_examples",
            "negative_examples",
            "selected_predicates",
            "dnf_terms",
        ):
            assert getattr(fast_stats, field) == getattr(seed_stats, field), field


# --------------------------------------------------------------------------- #
# Shared context and engine integration
# --------------------------------------------------------------------------- #


def test_context_rejects_cross_config_sharing():
    from repro.synthesis.synthesizer import Synthesizer

    context = SynthesisContext()
    Synthesizer(FAST, context)
    with pytest.raises(ValueError):
        Synthesizer(SynthesisConfig(), context)


def test_context_reuse_across_tasks_is_transparent():
    """A synthesizer reused across tasks (shared caches) stays correct."""
    from repro.synthesis.synthesizer import ExamplePair, SynthesisTask, Synthesizer

    synthesizer = Synthesizer(FAST)
    tree = build_tree(
        {"rec": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]}, tag="root"
    )
    first = synthesizer.synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [(1, "a"), (2, "b")])])
    )
    second = synthesizer.synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [("a",), ("b",)])])
    )
    third = synthesizer.synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [(1, "a"), (2, "b")])])
    )
    assert first.success and second.success and third.success
    assert pretty_program(first.program) == pretty_program(third.program)
    fresh = Synthesizer(FAST).synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [(1, "a"), (2, "b")])])
    )
    assert pretty_program(fresh.program) == pretty_program(first.program)


def test_engine_rejects_negative_jobs():
    from repro.migration.engine import MigrationEngine

    with pytest.raises(ValueError):
        MigrationEngine(jobs=-1)


def test_parallel_engine_matches_serial():
    """jobs>1 fans per-table synthesis out to processes; programs identical."""
    from repro.datasets import dblp
    from repro.migration.engine import MigrationEngine

    spec = dblp.dataset(scale=2).migration_spec()
    serial, _ = MigrationEngine().learn(spec)
    parallel, _ = MigrationEngine(jobs=2).learn(spec)
    assert set(serial) == set(parallel)
    for name in serial:
        assert pretty_program(serial[name].program) == pretty_program(
            parallel[name].program
        )
        assert serial[name].data_columns == parallel[name].data_columns


def test_seed_engine_learns_the_vectorized_dblp_plan():
    """Multi-table byte-identity: the seed learner's DBLP plan is the
    vectorized engine's, program for program and key rule for key rule."""
    from repro.datasets import dblp
    from repro.migration.engine import MigrationEngine
    from repro.runtime import MigrationPlan

    spec = dblp.dataset().migration_spec()
    config = SynthesisConfig.for_migration()
    vectorized = MigrationPlan.learn(spec, MigrationEngine(config))
    seed = MigrationPlan.learn(spec, MigrationEngine(config.seed_variant(), jobs=2))
    assert seed.content_fingerprint() == vectorized.content_fingerprint()


#: ``xml_sensors_5c_v3``, a 5-column task from the slow tail of Table 1, and
#: the digest of its learned program text and θ-cost.  Drift in the cover
#: solver or the candidate order shows up as a mismatch; the digest is never
#: re-baselined to make a change pass.
TAIL_TASK = "xml_sensors_5c_v3"
TAIL_TASK_FINGERPRINT = "fd510113acf93cc83649aeddcb87bc6b3b51d92b7c78602ccdb900f769cd90a6"


def _fingerprint(result) -> str:
    if not result.success or result.program is None:
        parts = ("unsolved",)
    else:
        parts = (pretty_program(result.program), program_cost(result.program))
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_table1_tail_task_matches_pinned_program(jobs):
    from repro.benchmarks_suite import load_suite
    from repro.synthesis import DEFAULT_CONFIG, ExamplePair, SynthesisTask, Synthesizer

    task = next(t for t in load_suite() if t.name == TAIL_TASK)
    result = Synthesizer(DEFAULT_CONFIG, jobs=jobs).synthesize(
        SynthesisTask(
            examples=[ExamplePair(task.tree, [tuple(r) for r in task.rows])],
            name=task.name,
        )
    )
    assert _fingerprint(result) == TAIL_TASK_FINGERPRINT
