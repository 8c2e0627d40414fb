"""Tests for the migration runtime: plans, backends, streaming, spec store, CLI."""

import json
import os
import sqlite3

import pytest

from repro.datasets import dblp, mondial
from repro.hdt import build_tree, hdt_to_json_string, hdt_to_xml, json_to_hdt, xml_to_hdt
from repro.migration import MigrationEngine, MigrationSpec, TableExampleSpec
from repro.relational import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from repro.relational.schema import SchemaError
from repro.runtime import (
    ContextStore,
    MemoryBackend,
    MigrationPlan,
    SQLiteBackend,
    Spec,
    acquire_plan,
    canonical_database_rows,
    database_matches_sqlite,
    execute_plan,
    iter_json_chunks,
    iter_tree_chunks,
    iter_xml_chunks,
    load_database,
    spec_fingerprint,
    stream_execute,
)
from repro.runtime.cli import main as cli_main
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.synthesizer import Synthesizer


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def dblp_bundle():
    return dblp.dataset(scale=3)


@pytest.fixture(scope="module")
def dblp_plan(dblp_bundle):
    """The DBLP plan, learned once for the whole module."""
    return MigrationPlan.learn(dblp_bundle.migration_spec())


def _library_tree(extra_authors=0):
    authors = [
        {
            "name": "Ada Chen",
            "country": "NZ",
            "book": [{"title": "Harbor", "year": 2001}, {"title": "Meadow", "year": 2007}],
        },
        {
            "name": "Brian Okafor",
            "country": "NG",
            "book": [{"title": "Quartz", "year": 2013}],
        },
    ]
    for index in range(extra_authors):
        authors.append(
            {
                "name": f"Author {index}",
                "country": ["NZ", "NG", "DE"][index % 3],
                "book": [{"title": f"Book {index}", "year": 1990 + index % 20}],
            }
        )
    return build_tree({"author": authors}, tag="library")


def _library_schema() -> DatabaseSchema:
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


def _library_spec(tree) -> MigrationSpec:
    return MigrationSpec(
        schema=_library_schema(),
        example_tree=tree,
        table_examples=[
            TableExampleSpec("author", [("a1", "Ada Chen", "NZ"), ("a2", "Brian Okafor", "NG")]),
            TableExampleSpec(
                "book",
                [("b1", "a1", "Harbor", 2001), ("b2", "a1", "Meadow", 2007), ("b3", "a2", "Quartz", 2013)],
            ),
        ],
    )


@pytest.fixture(scope="module")
def library_plan():
    return MigrationPlan.learn(_library_spec(_library_tree()))


# --------------------------------------------------------------------------- #
# Plan serialization and replay
# --------------------------------------------------------------------------- #


def test_plan_json_round_trip(dblp_plan):
    restored = MigrationPlan.loads(dblp_plan.dumps())
    assert restored == dblp_plan


def test_plan_save_load(tmp_path, dblp_plan):
    path = str(tmp_path / "dblp.plan.json")
    dblp_plan.save(path)
    assert MigrationPlan.load(path) == dblp_plan


def test_dblp_saved_plan_replay_is_byte_identical(tmp_path, monkeypatch, dblp_bundle):
    """A reloaded plan reproduces a fresh learn-and-run's SQLite bytes —
    without ever invoking the synthesizer."""
    spec = dblp_bundle.migration_spec()
    programs, _ = MigrationEngine().learn(spec)
    plan = MigrationPlan.from_programs(spec.schema, programs)
    fresh = execute_plan(plan, dblp_bundle.generate(3), MemoryBackend())
    plan_path = str(tmp_path / "plan.json")
    plan.save(plan_path)

    def _no_synthesis(self, task):  # pragma: no cover - failure path
        raise AssertionError("synthesizer must not run during plan replay")

    monkeypatch.setattr(Synthesizer, "synthesize", _no_synthesis)
    replay_plan = MigrationPlan.load(plan_path)
    backend = SQLiteBackend()
    execute_plan(replay_plan, dblp_bundle.generate(3), backend)
    fresh_dump = load_database(fresh.backend.database).dump()
    assert backend.dump() == fresh_dump


def test_mondial_saved_plan_replay_is_byte_identical(tmp_path, monkeypatch):
    """Same byte-identity property on a MONDIAL sub-schema.

    The subset {continent, country, province, city, encompasses} is closed
    under foreign keys; ``stop_after_first_solution`` keeps the one-off
    synthesis cost manageable (byte-identity does not depend on θ-minimality).
    """
    from dataclasses import replace

    from repro.synthesis import SynthesisConfig

    bundle = mondial.dataset(scale=4)
    subset = ["continent", "country", "province", "city", "encompasses"]
    schema = DatabaseSchema("mondial", [t for t in bundle.schema.tables if t.name in subset])
    spec = MigrationSpec(
        schema=schema,
        example_tree=bundle.example_tree,
        table_examples=[e for e in bundle.table_examples if e.table in subset],
    )
    config = replace(SynthesisConfig.for_migration(), stop_after_first_solution=True)
    programs, _ = MigrationEngine(config).learn(spec)
    plan = MigrationPlan.from_programs(schema, programs)
    fresh = execute_plan(plan, bundle.generate(4), MemoryBackend())
    plan_path = str(tmp_path / "plan.json")
    plan.save(plan_path)

    def _no_synthesis(self, task):  # pragma: no cover - failure path
        raise AssertionError("synthesizer must not run during plan replay")

    monkeypatch.setattr(Synthesizer, "synthesize", _no_synthesis)
    replay_plan = MigrationPlan.load(plan_path)
    backend = SQLiteBackend()
    execute_plan(replay_plan, bundle.generate(4), backend)
    assert backend.dump() == load_database(fresh.backend.database).dump()


def test_restrict_requires_fk_closed_subset(dblp_plan):
    with pytest.raises(SchemaError):
        dblp_plan.restrict(["article"])  # article references journal
    sub = dblp_plan.restrict(["journal", "article"])
    assert sub.schema.table_names == ["journal", "article"]


# --------------------------------------------------------------------------- #
# SQLite backend
# --------------------------------------------------------------------------- #


def test_sqlite_backend_parity_with_memory(library_plan):
    tree = _library_tree(extra_authors=10)
    memory = MemoryBackend()
    execute_plan(library_plan, tree, memory)
    sqlite_backend = SQLiteBackend()
    execute_plan(library_plan, tree, sqlite_backend)
    assert database_matches_sqlite(memory.database, sqlite_backend) == []


def test_sqlite_backend_enforces_foreign_keys(tmp_path):
    schema = _library_schema()
    backend = SQLiteBackend(str(tmp_path / "broken.db"))
    backend.begin(schema)
    backend.insert_rows("author", [("a1", "Ada", "NZ")])
    backend.insert_rows("book", [("b1", "missing-author", "Ghost", 2000)])
    from repro.runtime import SQLiteBackendError

    with pytest.raises(SQLiteBackendError):
        backend.finalize()


def test_sqlite_file_backend_is_self_contained(tmp_path, library_plan):
    path = str(tmp_path / "library.db")
    backend = SQLiteBackend(path)
    execute_plan(library_plan, _library_tree(), backend)
    backend.close()
    assert not os.path.exists(path + "-wal") or os.path.getsize(path + "-wal") == 0
    connection = sqlite3.connect(path)
    assert connection.execute("SELECT COUNT(*) FROM book").fetchone()[0] == 3
    assert connection.execute("PRAGMA foreign_key_check").fetchall() == []


# --------------------------------------------------------------------------- #
# Streaming
# --------------------------------------------------------------------------- #


def test_streaming_matches_whole_tree_row_for_row_at_50k(dblp_bundle, dblp_plan):
    """Acceptance: ≥50k records, bounded chunks, row-for-row whole-tree parity.

    Runs the *full* 9-table DBLP plan, author link tables included.  Those
    tables join on position *values* (3 distinct values), which used to make
    their node-tuple output quadratic in the record count — infeasible at 50k
    records, forcing earlier revisions to ``restrict()`` the plan to its
    linear tables.  The fused-dedup executor collapses value-join groups to
    per-value representatives, so the whole plan now runs in linear time and
    the escape hatch is gone.  Chunk boundedness is asserted on every chunk
    the stream produces.
    """
    chunk_size = 2000
    plan = dblp_plan
    scale = 10000  # 2s articles + 2s inproceedings + s/2 phd + s/2 www = 5s records
    document = dblp_bundle.generate(scale)
    assert len(document.root.children) >= 50000

    seen_chunks = []

    def bounded_chunks():
        for chunk in iter_tree_chunks(document, chunk_size):
            assert chunk.records <= chunk_size
            seen_chunks.append(chunk.records)
            yield chunk

    streamed = stream_execute(plan, bounded_chunks())
    whole = execute_plan(plan, document)
    assert sum(seen_chunks) == len(document.root.children)
    assert streamed.chunks == len(seen_chunks)
    for name in plan.schema.table_names:
        assert (
            streamed.backend.database.table(name).rows
            == whole.backend.database.table(name).rows
        ), f"row mismatch in table {name}"

    truth = dblp.ground_truth_counts(scale)
    summary = streamed.backend.database.summary()
    for name in plan.schema.table_names:
        assert summary[name] == truth[name]


def test_streaming_xml_file_matches_whole_tree(tmp_path, dblp_bundle, dblp_plan):
    document = dblp_bundle.generate(20)
    path = str(tmp_path / "dblp.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(document))
    whole = execute_plan(dblp_plan, xml_to_hdt(hdt_to_xml(document)))
    streamed = stream_execute(dblp_plan, iter_xml_chunks(path, 13))
    assert streamed.chunks > 1
    for name in dblp_plan.schema.table_names:
        assert (
            streamed.backend.database.table(name).rows
            == whole.backend.database.table(name).rows
        )


def test_streaming_json_file_matches_whole_tree(tmp_path, dblp_bundle, dblp_plan):
    document = dblp_bundle.generate(20)
    text = hdt_to_json_string(document)
    path = str(tmp_path / "dblp.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    whole = execute_plan(dblp_plan, json_to_hdt(text))
    streamed = stream_execute(dblp_plan, iter_json_chunks(path, 13))
    assert streamed.chunks > 1
    for name in dblp_plan.schema.table_names:
        assert (
            streamed.backend.database.table(name).rows
            == whole.backend.database.table(name).rows
        )


def test_streaming_reconciles_surrogate_keys_across_chunks(library_plan):
    """The same logical row in different chunks must keep one key, and later
    foreign-key references must be rewritten to it."""
    tree = _library_tree(extra_authors=12)  # repeated countries force aliasing
    whole = execute_plan(library_plan, tree)
    streamed = stream_execute(library_plan, iter_tree_chunks(tree, 1))
    streamed.backend.database.validate()  # no dangling foreign keys
    assert canonical_database_rows(streamed.backend.database) == canonical_database_rows(
        whole.backend.database
    )


def test_whole_tree_execution_repairs_value_join_aliases(library_plan):
    """Data-value joins can collapse logical rows; references must follow."""
    tree = _library_tree(extra_authors=12)
    report = execute_plan(library_plan, tree)
    report.backend.database.validate()
    assert report.per_table_rows["author"] == 14
    assert report.per_table_rows["book"] == 15


def test_chunk_iterators_reject_nonpositive_chunk_size():
    tree = _library_tree()
    with pytest.raises(ValueError):
        next(iter_tree_chunks(tree, 0))
    with pytest.raises(ValueError):
        next(iter_json_chunks([], 0))


def test_iter_tree_chunks_does_not_mutate_source():
    tree = _library_tree(extra_authors=3)
    before = tree.size()
    parents_before = [child.parent for child in tree.root.children]
    list(iter_tree_chunks(tree, 2))
    assert tree.size() == before
    assert [child.parent for child in tree.root.children] == parents_before


def test_iter_xml_chunks_preserves_record_positions(tmp_path):
    xml = "<root><a>1</a><b>x</b><a>2</a><a>3</a></root>"
    path = str(tmp_path / "doc.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(xml)
    chunks = list(iter_xml_chunks(path, 2))
    records = [(node.tag, node.pos, node.data) for chunk in chunks for node in chunk.tree.root.children]
    assert records == [("a", 0, 1), ("b", 0, "x"), ("a", 1, 2), ("a", 2, 3)]


def test_iter_json_chunks_top_level_array():
    chunks = list(iter_json_chunks([{"x": 1}, {"x": 2}, {"x": 3}], 2))
    assert [c.records for c in chunks] == [2, 1]
    first = chunks[0].tree.root.children[0]
    assert first.tag == "item" and first.pos == 0


# --------------------------------------------------------------------------- #
# The spec store's exact hit (the plan cache it replaces)
# --------------------------------------------------------------------------- #

MIGRATION_CONFIG = SynthesisConfig.for_migration()


def test_plan_cache_round_trip(tmp_path, library_plan):
    spec = _library_spec(_library_tree())
    store = ContextStore(str(tmp_path / "cache"))
    assert store.load_snapshot(spec, MIGRATION_CONFIG) is None
    store.record_spec(spec, library_plan, MIGRATION_CONFIG)
    snapshot = store.load_snapshot(spec, MIGRATION_CONFIG)
    assert snapshot is not None
    assert snapshot.plan == library_plan
    assert snapshot.fingerprint == spec_fingerprint(spec)
    # Another configuration's snapshot is another file: a miss.
    assert store.load_snapshot(spec, SynthesisConfig.fast()) is None


def test_spec_fingerprint_tracks_learnable_content():
    spec_a = _library_spec(_library_tree())
    spec_b = _library_spec(_library_tree())
    assert spec_fingerprint(spec_a) == spec_fingerprint(spec_b)
    spec_c = _library_spec(_library_tree(extra_authors=1))
    assert spec_fingerprint(spec_a) != spec_fingerprint(spec_c)
    spec_d = _library_spec(_library_tree())
    spec_d.table_examples[0].rows[0] = ("a9", "Ada Chen", "NZ")
    assert spec_fingerprint(spec_a) != spec_fingerprint(spec_d)


def test_spec_fingerprint_distinguishes_nesting():
    """Preorder without depth would collide a child with a following sibling."""
    from repro.hdt import xml_to_hdt

    nested = xml_to_hdt("<r><a><b>1</b></a></r>")
    flat = xml_to_hdt("<r><a/><b>1</b></r>")
    spec_nested = _library_spec(nested)
    spec_flat = _library_spec(flat)
    assert spec_fingerprint(spec_nested) != spec_fingerprint(spec_flat)


def test_plan_cache_treats_corrupt_entry_as_miss(tmp_path, library_plan):
    spec = _library_spec(_library_tree())
    store = ContextStore(str(tmp_path / "cache"))
    path = store.record_spec(spec, library_plan, MIGRATION_CONFIG)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json {")  # truncated/corrupt cache entry
    assert store.load_snapshot(spec, MIGRATION_CONFIG) is None  # miss, not a crash
    assert not os.path.exists(path)  # corrupt entry evicted


def test_iter_xml_chunks_replicates_root_attributes(tmp_path):
    xml = '<root version="2"><a>1</a><a>2</a><a>3</a></root>'
    path = str(tmp_path / "doc.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(xml)
    chunks = list(iter_xml_chunks(path, 2))
    assert len(chunks) == 2
    for chunk in chunks:
        leaves = [(n.tag, n.data) for n in chunk.tree.root.children if n.tag == "version"]
        assert leaves == [("version", 2)]


def test_cli_failed_run_leaves_no_partial_output(tmp_path, capsys):
    """A mid-load failure must not leave a half-written database behind."""
    spec_path = _write_cli_fixture(tmp_path)
    plan_path = str(tmp_path / "plan.json")
    assert cli_main(["learn", "--spec", spec_path, "--plan-out", plan_path, "--no-cache"]) == 0
    # Corrupt the plan's FK links so every book references a missing author.
    payload = json.loads(open(plan_path).read())
    for table in payload["tables"]:
        for rule in table["foreign_key_rules"]:
            for link in rule["links"]:
                link["extractor"] = {"kind": "parent", "source": link["extractor"]}
    open(plan_path, "w").write(json.dumps(payload))
    output = str(tmp_path / "broken.db")
    assert cli_main(["run", "--spec", spec_path, "--plan", plan_path,
                     "--backend", "sqlite", "--output", output]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(output)
    assert not os.path.exists(output + "-wal")


def test_plan_source_format_round_trips(tmp_path, library_plan):
    library_plan.source_format = "json"
    restored = MigrationPlan.loads(library_plan.dumps())
    assert restored.source_format == "json"
    assert restored.restrict(["author", "book"]).source_format == "json"


def test_plan_cache_acquire_plan_synthesizes_once(tmp_path, monkeypatch):
    spec = Spec.load(_write_cli_fixture(tmp_path))
    store_dir = str(tmp_path / "cache")
    first, provenance = acquire_plan(spec, {}, store_dir=store_dir, allow_learn=True)
    assert provenance == f"learned: 2/2 tables synthesized, 0/2 reused, stored in {store_dir}"

    def _no_synthesis(self, task):  # pragma: no cover - failure path
        raise AssertionError("cache hit must not re-synthesize")

    monkeypatch.setattr(Synthesizer, "synthesize", _no_synthesis)
    second, provenance = acquire_plan(spec, {}, store_dir=store_dir, allow_learn=True)
    assert provenance.startswith("cache hit: 2/2 tables reused")
    assert second == first
    # A run that may not learn accepts the exact hit, and only that.
    third, provenance = acquire_plan(spec, {}, store_dir=store_dir, allow_learn=False)
    assert provenance.startswith("cache hit") and third == first


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def _write_cli_fixture(tmp_path):
    example = {
        "author": [
            {"name": "Ada Chen", "country": "NZ",
             "book": [{"title": "Harbor", "year": 2001}, {"title": "Meadow", "year": 2007}]},
            {"name": "Brian Okafor", "country": "NG",
             "book": [{"title": "Quartz", "year": 2013}]},
        ]
    }
    full = {
        "author": [
            {"name": f"Author {index}", "country": ["NZ", "NG", "DE"][index % 3],
             "book": [{"title": f"Book {index}", "year": 1990 + index % 20}]}
            for index in range(30)
        ]
    }
    from repro.dsl import schema_to_json

    spec = {
        "format": "json",
        "schema": schema_to_json(_library_schema()),
        "example_document": "example.json",
        "examples": {
            "author": [["a1", "Ada Chen", "NZ"], ["a2", "Brian Okafor", "NG"]],
            "book": [
                ["b1", "a1", "Harbor", 2001],
                ["b2", "a1", "Meadow", 2007],
                ["b3", "a2", "Quartz", 2013],
            ],
        },
        "document": "full.json",
        "cache_dir": str(tmp_path / "cache"),
    }
    (tmp_path / "example.json").write_text(json.dumps(example))
    (tmp_path / "full.json").write_text(json.dumps(full))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return str(tmp_path / "spec.json")


def test_cli_migrate_sqlite_end_to_end(tmp_path, capsys):
    spec_path = _write_cli_fixture(tmp_path)
    output = str(tmp_path / "library.db")
    assert cli_main(["migrate", "--spec", spec_path, "--backend", "sqlite", "--output", output]) == 0
    captured = capsys.readouterr()
    assert "database written to" in captured.out
    connection = sqlite3.connect(output)
    assert connection.execute("SELECT COUNT(*) FROM author").fetchone()[0] == 30
    assert connection.execute("SELECT COUNT(*) FROM book").fetchone()[0] == 30
    assert connection.execute("PRAGMA foreign_key_check").fetchall() == []


def test_cli_learn_then_run_streaming(tmp_path, capsys):
    spec_path = _write_cli_fixture(tmp_path)
    plan_path = str(tmp_path / "plan.json")
    assert cli_main(["learn", "--spec", spec_path, "--plan-out", plan_path, "--no-cache"]) == 0
    assert os.path.exists(plan_path)
    output = str(tmp_path / "library.db")
    assert (
        cli_main(
            [
                "run",
                "--spec", spec_path,
                "--plan", plan_path,
                "--backend", "sqlite",
                "--output", output,
                "--streaming",
                "--chunk-size", "7",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "chunk(s)" in captured.out
    connection = sqlite3.connect(output)
    assert connection.execute("SELECT COUNT(*) FROM book").fetchone()[0] == 30


def test_cli_migrate_uses_cache_on_second_run(tmp_path, capsys, monkeypatch):
    spec_path = _write_cli_fixture(tmp_path)
    assert cli_main(["migrate", "--spec", spec_path]) == 0
    monkeypatch.setattr(
        Synthesizer,
        "synthesize",
        lambda self, task: (_ for _ in ()).throw(AssertionError("must hit cache")),
    )
    assert cli_main(["migrate", "--spec", spec_path]) == 0
    assert "cache hit" in capsys.readouterr().out


def test_cli_run_without_plan_is_an_error(tmp_path, capsys):
    spec_path = _write_cli_fixture(tmp_path)
    assert cli_main(["run", "--spec", spec_path]) == 1
    assert "requires --plan" in capsys.readouterr().err


def test_cli_refuses_to_overwrite_without_force(tmp_path, capsys):
    spec_path = _write_cli_fixture(tmp_path)
    output = str(tmp_path / "library.db")
    assert cli_main(["migrate", "--spec", spec_path, "--backend", "sqlite", "--output", output]) == 0
    assert cli_main(["migrate", "--spec", spec_path, "--backend", "sqlite", "--output", output]) == 1
    assert "already exists" in capsys.readouterr().err
    assert (
        cli_main(
            ["migrate", "--spec", spec_path, "--backend", "sqlite", "--output", output, "--force"]
        )
        == 0
    )


def test_cli_missing_spec_file(capsys):
    assert cli_main(["migrate", "--spec", "/nonexistent/spec.json"]) == 1
    assert "cannot read spec file" in capsys.readouterr().err
