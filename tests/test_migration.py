"""Tests for key generation and the whole-database migration engine."""

import pytest

from repro.dsl import Child, NodeVar, Parent
from repro.hdt import build_tree
from repro.migration import (
    ForeignKeyRule,
    LinkRule,
    MigrationEngine,
    MigrationError,
    MigrationSpec,
    TableExampleSpec,
    key_of,
    learn_link_rules,
    path_extractor,
)
from repro.optimizer import execute_nodes
from repro.relational import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from repro.runtime import MemoryBackend, MigrationPlan, execute_plan


@pytest.fixture
def library_tree():
    return build_tree(
        {
            "author": [
                {
                    "name": "Ada Chen",
                    "country": "NZ",
                    "book": [
                        {"title": "Harbor", "year": 2001},
                        {"title": "Meadow", "year": 2007},
                    ],
                },
                {
                    "name": "Brian Okafor",
                    "country": "NG",
                    "book": [{"title": "Quartz", "year": 2013}],
                },
            ]
        },
        tag="library",
    )


def library_schema() -> DatabaseSchema:
    """A small schema exercising surrogate keys and structural foreign keys."""
    return DatabaseSchema(
        "library",
        [
            TableSchema(
                "author",
                [
                    ColumnDef("author_id", "text", nullable=False),
                    ColumnDef("name", "text"),
                    ColumnDef("country", "text"),
                ],
                primary_key="author_id",
            ),
            TableSchema(
                "book",
                [
                    ColumnDef("book_id", "text", nullable=False),
                    ColumnDef("author_id", "text"),
                    ColumnDef("title", "text"),
                    ColumnDef("year", "integer"),
                ],
                primary_key="book_id",
                foreign_keys=[ForeignKey("author_id", "author", "author_id")],
            ),
        ],
    )


def library_spec(tree) -> MigrationSpec:
    return MigrationSpec(
        schema=library_schema(),
        example_tree=tree,
        table_examples=[
            TableExampleSpec(
                "author",
                [("a1", "Ada Chen", "NZ"), ("a2", "Brian Okafor", "NG")],
            ),
            TableExampleSpec(
                "book",
                [
                    ("b1", "a1", "Harbor", 2001),
                    ("b2", "a1", "Meadow", 2007),
                    ("b3", "a2", "Quartz", 2013),
                ],
            ),
        ],
    )


def migrate(spec, document):
    """Learn every table of ``spec`` and run the plan on ``document`` into memory."""
    programs, _ = MigrationEngine().learn(spec)
    plan = MigrationPlan.from_programs(spec.schema, programs)
    return execute_plan(plan, document, MemoryBackend())


# --------------------------------------------------------------------------- #
# Key helpers
# --------------------------------------------------------------------------- #


def test_key_of_is_injective(library_tree):
    nodes = list(library_tree.nodes())
    keys = {key_of((a, b)) for a in nodes[:5] for b in nodes[:5]}
    assert len(keys) == 25


def test_path_extractor_parent_then_child(library_tree):
    title = library_tree.find_first("title")
    author_name = title.parent.parent.child_with("name", 0)
    extractor = path_extractor(title, author_name)
    assert isinstance(extractor, Child)
    from repro.dsl import eval_node_extractor

    assert eval_node_extractor(extractor, title) is author_name


def test_path_extractor_identity(library_tree):
    node = library_tree.find_first("name")
    extractor = path_extractor(node, node)
    assert isinstance(extractor, NodeVar)


def test_path_extractor_disjoint_trees(library_tree):
    other = build_tree({"x": 1})
    assert path_extractor(library_tree.root, other.root) is None


def test_learn_link_rules_consistent(library_tree):
    books = library_tree.root.descendants_with_tag("book")
    pairs = []
    for book in books:
        author = book.parent
        pairs.append(
            (
                (book.child_with("title", 0), book.child_with("year", 0)),
                (author.child_with("name", 0), author.child_with("country", 0)),
            )
        )
    rules = learn_link_rules(pairs)
    assert rules is not None and len(rules) == 2
    fk_rule = ForeignKeyRule("author_id", "author", rules)
    for (book_nodes, author_nodes) in pairs:
        assert fk_rule.foreign_key_for(book_nodes) == key_of(author_nodes)


def test_learn_link_rules_empty():
    assert learn_link_rules([]) is None


def test_link_rule_out_of_range(library_tree):
    rule = LinkRule(5, NodeVar())
    assert rule.apply((library_tree.root,)) is None


# --------------------------------------------------------------------------- #
# Migration engine with surrogate keys
# --------------------------------------------------------------------------- #


def test_migration_learn_and_migrate_surrogate_keys(library_tree):
    result = migrate(library_spec(library_tree), library_tree)
    database = result.backend.database
    assert database.row_count("author") == 2
    assert database.row_count("book") == 3
    assert database.validate_foreign_keys() == []
    # every book's author_id resolves to the right author name
    authors = {row[0]: row[1] for row in database.table("author").rows}
    books = database.table("book").rows
    harbor = next(row for row in books if row[2] == "Harbor")
    assert authors[harbor[1]] == "Ada Chen"


def test_migration_scales_to_larger_document(library_tree):
    spec = library_spec(library_tree)
    bigger = build_tree(
        {
            "author": [
                {
                    "name": f"author{i}",
                    "country": f"country{i}",
                    "book": [{"title": f"t{i}_{j}", "year": 2000 + j} for j in range(3)],
                }
                for i in range(10)
            ]
        },
        tag="library",
    )
    result = migrate(spec, bigger)
    assert result.per_table_rows == {"author": 10, "book": 30}
    assert result.backend.database.validate_foreign_keys() == []
    assert result.total_rows == 40


def test_migration_missing_example_raises(library_tree):
    spec = MigrationSpec(
        schema=library_schema(),
        example_tree=library_tree,
        table_examples=[TableExampleSpec("author", [("a1", "Ada Chen", "NZ")])],
    )
    with pytest.raises(MigrationError):
        MigrationEngine().learn(spec)


def test_migration_result_reports_times(library_tree):
    spec = library_spec(library_tree)
    programs, per_table_synthesis_time = MigrationEngine().learn(spec)
    result = execute_plan(MigrationPlan.from_programs(spec.schema, programs), library_tree)
    assert sum(per_table_synthesis_time.values()) > 0
    assert set(per_table_synthesis_time) == {"author", "book"}
    assert set(result.per_table_rows) == {"author", "book"}


def test_table_program_exposes_learned_program(library_tree):
    programs, _ = MigrationEngine().learn(library_spec(library_tree))
    book_program = programs["book"]
    assert book_program.data_columns == ["title", "year"]
    assert len(book_program.foreign_key_rules) == 1
    assert book_program.program.arity == 2
    node_rows = execute_nodes(book_program.program, library_tree)
    assert len(node_rows) == 3


# --------------------------------------------------------------------------- #
# Natural-key path (DBLP-style)
# --------------------------------------------------------------------------- #


def test_migration_natural_keys_small():
    tree = build_tree(
        {
            "article": [
                {"key": "a/1", "title": "T1", "author": [{"name": "X", "position": 1}, {"name": "Y", "position": 2}]},
                {"key": "a/2", "title": "T2", "author": [{"name": "Z", "position": 1}]},
            ]
        },
        tag="dblp",
    )
    schema = DatabaseSchema(
        "mini",
        [
            TableSchema(
                "article",
                [ColumnDef("key", "text", nullable=False), ColumnDef("title", "text")],
                primary_key="key",
                natural_keys=True,
            ),
            TableSchema(
                "authorship",
                [
                    ColumnDef("article_key", "text", nullable=False),
                    ColumnDef("author_name", "text"),
                    ColumnDef("position", "integer"),
                ],
                foreign_keys=[ForeignKey("article_key", "article", "key")],
                natural_keys=True,
            ),
        ],
    )
    spec = MigrationSpec(
        schema=schema,
        example_tree=tree,
        table_examples=[
            TableExampleSpec("article", [("a/1", "T1"), ("a/2", "T2")]),
            TableExampleSpec(
                "authorship", [("a/1", "X", 1), ("a/1", "Y", 2), ("a/2", "Z", 1)]
            ),
        ],
    )
    result = migrate(spec, tree)
    assert result.per_table_rows == {"article": 2, "authorship": 3}
    assert result.backend.database.validate_foreign_keys() == []
