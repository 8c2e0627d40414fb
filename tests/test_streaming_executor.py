"""Tests for the streaming fused-dedup execution engine (optimizer + runtime).

Covers the PR-2 executor rework: generator pipelines (`iter_execute_nodes`),
value-equality hash joins, fused projection dedup (linear output for the DBLP
author link tables), the HDT tag index, and the column-cache regression.
"""

import hashlib
import math

import pytest

from repro.datasets import dblp, imdb, mondial, yelp
from repro.dsl import (
    CompareNodes,
    Descendants,
    NodeVar,
    Op,
    Parent,
    Program,
    TableExtractor,
    True_,
    Var,
)
from repro.dsl.semantics import eval_column, eval_column_on_tree, run_program
from repro.hdt import build_tree
from repro.migration.engine import consumed_projection, iter_generate_table_rows
from repro.optimizer import (
    TupleProjection,
    execute_nodes,
    iter_execute_nodes,
    plan,
)
from repro.optimizer.optimize import DATA, IDENTITY, IGNORED
from repro.relational import ColumnDef, TableSchema
from repro.runtime import MemoryBackend, MigrationPlan, execute_plan
from repro.runtime.executor import canonical_table_rows, compile_plan_executions


@pytest.fixture(scope="module")
def dblp_plan():
    return MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())


@pytest.fixture(scope="module")
def table2_plans(dblp_plan):
    """The learned plans of the four Table 2 datasets."""
    plans = {"dblp": dblp_plan}
    for name, module in (("imdb", imdb), ("mondial", mondial), ("yelp", yelp)):
        plans[name] = MigrationPlan.learn(module.dataset().migration_spec())
    return plans


def _all_data_projection(arity):
    return TupleProjection(tuple(DATA for _ in range(arity)))


def _content_rows(node_rows):
    """First-occurrence content dedup, as the natural-key row generator does."""
    seen, out = set(), []
    for row in node_rows:
        content = tuple(node.data for node in row)
        if content not in seen:
            seen.add(content)
            out.append(content)
    return out


# --------------------------------------------------------------------------- #
# Streaming semantics
# --------------------------------------------------------------------------- #


def test_iter_execute_nodes_matches_execute_nodes_order(dblp_plan):
    tree = dblp.dataset(scale=4).generate(4)
    for table in dblp_plan.tables.values():
        assert list(iter_execute_nodes(table.program, tree)) == execute_nodes(
            table.program, tree
        )


def test_streamed_equals_naive_semantics(dblp_plan):
    tree = dblp.dataset(scale=2).generate(2)
    for table in dblp_plan.tables.values():
        naive = run_program(table.program, tree)
        streamed = [
            tuple(n.data for n in row) for row in iter_execute_nodes(table.program, tree)
        ]
        # Multiset equality: the greedy join ordering may enumerate in a
        # different (but deterministic) order than the naive cross product.
        assert sorted(map(repr, streamed)) == sorted(map(repr, naive))


def test_stream_is_lazy(dblp_plan):
    """The generator yields without exhausting the document's tuple space."""
    tree = dblp.dataset(scale=50).generate(50)
    program = dblp_plan.table_plan("article_author").program
    stream = iter_execute_nodes(program, tree)
    first = next(stream)
    assert len(first) == program.arity
    stream.close()


# --------------------------------------------------------------------------- #
# Fused dedup: linear output for value joins
# --------------------------------------------------------------------------- #


def test_fused_value_join_is_linear_in_records(dblp_plan):
    """Acceptance: intermediate tuple count for the DBLP link tables is
    O(records), not O(records²) — counted through the pipeline's stats."""
    program = dblp_plan.table_plan("article_author").program
    projection = _all_data_projection(program.arity)
    counts = {}
    for scale in (50, 100, 200):
        tree = dblp.dataset(scale=scale).generate(scale)
        records = len(tree.root.children)
        execution = plan(program, projection)
        rows = list(iter_execute_nodes(program, tree, execution=execution))
        assert rows
        counts[scale] = (records, execution.stats["partial_tuples"])
    # Linear: tuples per record stays flat as the document quadruples.
    per_record = {s: tuples / records for s, (records, tuples) in counts.items()}
    assert per_record[200] <= per_record[50] * 1.25
    # And absolutely small: a handful of tuples per record, not records/3.
    for scale, (records, tuples) in counts.items():
        assert tuples <= 6 * records


def test_unfused_value_join_is_quadratic_which_fusion_removes(dblp_plan):
    """The same program without a projection enumerates the full value-join
    groups (exact tuple semantics) — fusion is what removes the blow-up."""
    program = dblp_plan.table_plan("article_author").program
    tree = dblp.dataset(scale=60).generate(60)
    records = len(tree.root.children)

    fused = plan(program, _all_data_projection(program.arity))
    fused_rows = list(iter_execute_nodes(program, tree, execution=fused))
    unfused = plan(program)
    unfused_rows = list(iter_execute_nodes(program, tree, execution=unfused))

    assert unfused.stats["partial_tuples"] > records * records / 20  # quadratic
    assert fused.stats["partial_tuples"] <= 6 * records  # linear
    # Same logical output: fused representatives reproduce the content rows
    # (order included) that full enumeration + downstream dedup yields.
    assert _content_rows(fused_rows) == _content_rows(unfused_rows)


def test_fused_rows_match_ground_truth_counts(dblp_plan):
    scale = 100
    tree = dblp.dataset(scale=scale).generate(scale)
    truth = dblp.ground_truth_counts(scale)
    for name in ("article_author", "inproceedings_author", "phdthesis_author"):
        table_plan = dblp_plan.table_plan(name)
        schema = dblp_plan.schema.table(name)
        projection = consumed_projection(
            schema, table_plan.data_columns, table_plan.program.arity
        )
        rows = list(
            iter_generate_table_rows(
                schema,
                table_plan.data_columns,
                table_plan.foreign_key_rules,
                iter_execute_nodes(table_plan.program, tree, projection=projection),
            )
        )
        assert len(rows) == truth[name]


def test_describe_reports_value_joins_and_fusion(dblp_plan):
    program = dblp_plan.table_plan("article_author").program
    execution = plan(program, _all_data_projection(program.arity))
    tree = dblp.dataset(scale=50).generate(50)
    list(iter_execute_nodes(program, tree, execution=execution))
    description = execution.describe()
    assert "value_joins=1" in description
    assert "node_joins=1" in description
    assert "fusable_columns=[0, 1, 2]" in description
    assert "partial_tuples=" in description
    # How many columns actually fuse depends on the greedy join order, but
    # the position value-join must always collapse.
    assert execution.stats["fused_columns"] >= 1
    assert execution.stats["partial_tuples"] <= 6 * len(tree.root.children)


# --------------------------------------------------------------------------- #
# Projection derivation
# --------------------------------------------------------------------------- #


def test_consumed_projection_natural_vs_surrogate():
    natural = TableSchema(
        "link",
        [ColumnDef("a", "text"), ColumnDef("b", "text")],
        natural_keys=True,
    )
    projection = consumed_projection(natural, ["a", "b"], 3)
    assert projection is not None
    assert projection.kinds == (DATA, DATA, IGNORED)

    surrogate = TableSchema(
        "entity",
        [ColumnDef("id", "text", nullable=False), ColumnDef("a", "text")],
        primary_key="id",
    )
    assert consumed_projection(surrogate, ["a"], 1) is None


def test_consumed_projection_keys_natural_tables_on_their_primary_key():
    keyed = TableSchema(
        "entity",
        [ColumnDef("a", "text"), ColumnDef("id", "text", nullable=False)],
        primary_key="id",
        natural_keys=True,
    )
    projection = consumed_projection(keyed, ["id", "a"], 3)
    assert projection.kinds == (DATA, DATA, IGNORED)
    assert projection.key == 0


def test_tuple_projection_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TupleProjection(("bogus",))
    assert TupleProjection.identity(2).kinds == (IDENTITY, IDENTITY)


def test_seed_collapse_keeps_nodes_with_different_join_keys():
    """The seed collapses on (signature, join key): an IGNORED seed joined by
    value keeps one node per value, not one node in all."""
    tree = build_tree({"x": [1, 2, 2], "y": [1, 2, 2]})
    program = Program(
        TableExtractor((Descendants(Var(), "x"), Descendants(Var(), "y"))),
        CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1),
    )
    execution = plan(program, TupleProjection((IGNORED, DATA)))
    rows = [row[1].data for row in iter_execute_nodes(program, tree, execution=execution)]
    assert rows == [1, 2]
    assert execution.stats["partial_tuples"] == 4  # seeds 1, 2 and one y each


def test_key_cut_yields_first_row_per_key_value():
    """The key cut leaves a key node after its first row and skips a node
    whose value was yielded, with keygen's set semantics (True == 1)."""
    tree = build_tree({"x": [5, 6, 7, 8], "y": [1, True, 2]})
    program = Program(
        TableExtractor((Descendants(Var(), "x"), Descendants(Var(), "y"))), True_()
    )
    execution = plan(program, TupleProjection((DATA, DATA), key=1))
    rows = [(a.data, b.data) for a, b in iter_execute_nodes(program, tree, execution=execution)]
    assert rows == [(5, 1), (5, 2)]
    assert execution.stats["partial_tuples"] == 4  # y=1, x=5, y=2, x=5
    assert "key_column=1" in execution.describe()


# --------------------------------------------------------------------------- #
# Value-join key semantics
# --------------------------------------------------------------------------- #


def _two_column_value_join(tag_left, tag_right):
    return Program(
        TableExtractor((Descendants(Var(), tag_left), Descendants(Var(), tag_right))),
        CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1),
    )


def test_value_join_matches_bool_and_numeric_like_eval_predicate():
    """`True == 1 == 1.0` under Figure 7 EQ; the hash join must agree."""
    tree = build_tree({"l": [{"x": True}, {"x": 1}, {"x": 2}], "r": [{"y": 1.0}, {"y": 2}]})
    program = _two_column_value_join("x", "y")
    naive = run_program(program, tree)
    planned = [tuple(n.data for n in r) for r in iter_execute_nodes(program, tree)]
    assert planned == naive
    assert (True, 1.0) in planned and (1, 1.0) in planned and (2, 2) in planned


def test_value_join_never_coerces_strings_to_numbers():
    tree = build_tree({"l": [{"x": "1"}], "r": [{"y": 1}]})
    program = _two_column_value_join("x", "y")
    assert run_program(program, tree) == []
    assert list(iter_execute_nodes(program, tree)) == []


def test_value_join_nan_never_matches():
    tree = build_tree({"l": [{"x": math.nan}], "r": [{"y": math.nan}]})
    program = _two_column_value_join("x", "y")
    assert run_program(program, tree) == []
    assert list(iter_execute_nodes(program, tree)) == []


# --------------------------------------------------------------------------- #
# Column-cache regression (satellite): empty hits, frozen keys, None guard
# --------------------------------------------------------------------------- #


def test_eval_column_caches_empty_results():
    tree = build_tree({"a": [{"b": 1}]})
    extractor = Descendants(Var(), "nonexistent")
    cache = {}
    first = eval_column_on_tree(extractor, tree, cache=cache)
    assert first == []
    key = (extractor, (tree.root.uid,))
    assert key in cache and cache[key] == []  # frozen uid-tuple key, [] cached
    # A second evaluation must be served from the cache (same list object),
    # not recomputed — `[]` is falsy but it is a hit, not a miss.
    second = eval_column_on_tree(extractor, tree, cache=cache)
    assert second is first


def test_eval_column_guards_against_none_valued_cache_hits():
    tree = build_tree({"a": [{"b": 1}]})
    extractor = Descendants(Var(), "b")
    cache = {(extractor, (tree.root.uid,)): None}  # corrupt/foreign entry
    result = eval_column(extractor, [tree.root], cache=cache)
    assert result != [] and result is not None  # recomputed, not returned as None
    assert [n.data for n in result] == [1]


# --------------------------------------------------------------------------- #
# HDT tag index
# --------------------------------------------------------------------------- #


def test_tag_index_matches_traversal():
    tree = build_tree(
        {
            "article": [
                {"key": "a1", "author": [{"name": "x", "position": 1}]},
                {"key": "a2", "author": [{"name": "y", "position": 2}]},
            ],
            "www": [{"key": "w1", "name": "deep"}],
        },
        tag="dblp",
    )
    index = tree.tag_index()
    for tag in ("dblp", "article", "key", "name", "position", "missing"):
        assert index.nodes_with_tag(tag) == tree.find_all(tag)
        for node in tree.nodes():
            assert index.descendants_with_tag(node, tag) == node.descendants_with_tag(tag)
            assert index.children_with_tag(node, tag) == node.children_with_tag(tag)


def test_indexed_eval_column_matches_plain_traversal():
    tree = build_tree(
        {"a": [{"b": [{"c": 1}, {"c": 2}]}, {"b": [{"c": 3}], "c": 4}]}, tag="root"
    )
    for extractor in (
        Descendants(Var(), "c"),
        Descendants(Descendants(Var(), "b"), "c"),
    ):
        indexed = eval_column_on_tree(extractor, tree)
        plain = eval_column_on_tree(extractor, tree, use_index=False)
        assert indexed == plain


def test_tag_index_invalidation():
    tree = build_tree({"a": [{"b": 1}]})
    assert len(tree.tag_index().nodes_with_tag("b")) == 1
    tree.root.children[0].new_child("b", 1, 2)
    tree.invalidate_indexes()
    assert len(tree.tag_index().nodes_with_tag("b")) == 2


# --------------------------------------------------------------------------- #
# Degenerate programs
# --------------------------------------------------------------------------- #


def test_single_column_program_streams():
    tree = build_tree({"x": [1, 2, 2, 3]})
    program = Program(TableExtractor((Descendants(Var(), "x"),)), True_())
    rows = [tuple(n.data for n in r) for r in iter_execute_nodes(program, tree)]
    assert rows == run_program(program, tree)


def test_disconnected_columns_cross_product():
    tree = build_tree({"x": [1, 2], "y": ["a"]})
    program = Program(
        TableExtractor((Descendants(Var(), "x"), Descendants(Var(), "y"))), True_()
    )
    rows = [tuple(n.data for n in r) for r in iter_execute_nodes(program, tree)]
    assert rows == run_program(program, tree)
    assert sorted(rows) == [(1, "a"), (2, "a")]


def test_residual_predicate_blocks_fusion():
    """A residual clause mentioning a column must keep it out of `fusable`."""
    from repro.dsl import CompareConst, Or

    tree = build_tree({"x": [1, 2], "y": [1, 1]})
    program = Program(
        TableExtractor((Descendants(Var(), "x"), Descendants(Var(), "y"))),
        Or(
            CompareConst(NodeVar(), 0, Op.EQ, 1),
            CompareConst(NodeVar(), 1, Op.GT, 5),
        ),
    )
    projection = _all_data_projection(2)
    execution = plan(program, projection)
    assert execution.fusable == set()
    rows = [tuple(n.data for n in r) for r in iter_execute_nodes(program, tree, execution=execution)]
    assert rows == run_program(program, tree)


# --------------------------------------------------------------------------- #
# Output-sensitive joins on IMDB and Yelp
# --------------------------------------------------------------------------- #


def _imdb_cliff_seed(scale):
    """The first seed whose IMDB document has fewer episodes than movies.

    In that regime the join order seeds ``movie_director`` on the episode
    ``number`` column, which once enumerated every (number, director) pair
    with an equal value.
    """
    for seed in range(64):
        records = imdb.make_records(scale, seed)
        if sum(len(s["episodes"]) for s in records["series"]) < len(records["movies"]):
            return seed
    raise AssertionError(f"no IMDB document with fewer episodes than movies at scale {scale}")


def _table_tuples(plan, table, tree):
    """(records, partial tuples, rows) of one table's executed program, under
    the projection its row generator consumes."""
    execution = compile_plan_executions(plan)[table]
    rows = sum(1 for _ in iter_execute_nodes(plan.table_plan(table).program, tree, execution=execution))
    return len(tree.root.children), execution.stats["partial_tuples"], rows


@pytest.mark.parametrize("table", ["genre", "movie_director"])
def test_imdb_joins_are_linear_in_records(table2_plans, table):
    """``genre`` (a disjunctive join: first or second genre) and
    ``movie_director`` in the regime that seeds it on ``number`` enumerate a
    few tuples per record, flat as the document doubles."""
    per_record = []
    for scale in (40, 80):
        tree = imdb.dataset(scale=scale, seed=_imdb_cliff_seed(scale)).generate(scale)
        records, tuples, rows = _table_tuples(table2_plans["imdb"], table, tree)
        assert rows
        assert tuples <= 2 * records
        per_record.append(tuples / records)
    assert per_record[1] <= per_record[0] * 1.25


def test_yelp_review_enumerates_only_kept_rows(table2_plans):
    """The key cut: ``review`` yields one tuple per review id instead of every
    row keygen would discard (1.1 M of them at 6 000 records), and stays
    within a few tuples per record.

    It is not yet flat: the ``stars`` step still walks the businesses' star
    nodes of equal value, which have no ``date`` and so end nowhere (2 → 11
    tuples per record from 250 to 6 000 records; see the xfail below).
    """
    for scale in (50, 100):
        tree = yelp.dataset(scale=scale).generate(scale)
        records, tuples, rows = _table_tuples(table2_plans["yelp"], "review", tree)
        assert rows == len(yelp.make_records(scale)["reviews"])
        assert tuples <= 6 * records


@pytest.mark.xfail(
    strict=True,
    reason="dead-end business stars at the review stars step; needs semi-join reduction",
)
def test_yelp_review_tuples_per_record_are_flat(table2_plans):
    per_record = []
    for scale in (100, 400):
        tree = yelp.dataset(scale=scale).generate(scale)
        records, tuples, _ = _table_tuples(table2_plans["yelp"], "review", tree)
        per_record.append(tuples / records)
    assert per_record[1] <= per_record[0] * 1.25


def test_describe_reports_disjunctive_joins_and_key_column(table2_plans):
    executions = compile_plan_executions(table2_plans["imdb"])
    assert "disjunctive_joins=1" in executions["genre"].describe()
    assert "key_column" not in executions["genre"].describe()
    assert "disjunctive_joins=0" in executions["movie"].describe()
    assert "key_column=0" in executions["movie"].describe()


#: sha256 of the canonical rows (``canonical_table_rows``, table by table in
#: schema order, ``repr`` of each row) of a whole-tree run at scale 50 with
#: each dataset's default seed.  Any change of a row or of the row order
#: changes a digest; recompute them only for a change meant to alter output.
TABLE2_DIGESTS = {
    "dblp": "cab4a0b3d3727e80fca6f8320930ba72219a4270e25f6e8ce09e0de50f0d43a7",
    "imdb": "7f7f9f4139c48360d9c6da03bc44f2ce5dce77dbe5e82be219257ed5bcbf046f",
    "mondial": "170c8ddc482cd15d5d8b1df91365285d9eafad8c65a137bf489bd65ef9279feb",
    "yelp": "75b09a7d76c582b1079fa9a817cc2697971de79e818abb71496acbb93769f172",
}


@pytest.mark.parametrize("dataset", sorted(TABLE2_DIGESTS))
def test_table2_output_is_pinned(table2_plans, dataset):
    module = {"dblp": dblp, "imdb": imdb, "mondial": mondial, "yelp": yelp}[dataset]
    plan = table2_plans[dataset]
    backend = MemoryBackend()
    execute_plan(plan, module.dataset(scale=50).generate(50), backend)
    rows = {table.name: backend.fetch_rows(table.name) for table in plan.schema.tables}
    canonical = canonical_table_rows(plan.schema, rows)
    digest = hashlib.sha256()
    for table in plan.schema.tables:
        digest.update(table.name.encode("utf-8"))
        for row in canonical[table.name]:
            digest.update(repr(row).encode("utf-8"))
    assert digest.hexdigest() == TABLE2_DIGESTS[dataset]


@pytest.mark.xfail(
    strict=True,
    reason="known deviation: the learned review program takes stars/date from "
    "any review with equal stars (docs/paper-mapping.md, Known deviations)",
)
def test_yelp_review_rows_match_ground_truth(table2_plans):
    scale, seed = 50, 3
    plan = table2_plans["yelp"]
    backend = MemoryBackend()
    execute_plan(plan, yelp.dataset(scale=scale, seed=seed).generate(scale), backend)
    truth = yelp.records_to_tables(yelp.make_records(scale, seed))["review"]
    assert sorted(backend.fetch_rows("review")) == sorted(truth)
