"""Tests for the sharded multi-process run path (`repro.runtime.sharded`).

Covers the PR-5 map/reduce execution: contiguous record partitioning, the
shardable sources (tree, XML/JSON file, document directory), the spill
protocol's corruption handling, canonical parity between whole-tree,
streamed and sharded execution across all three backends, and the CLI's
execution-mode flag validation.
"""

import json
import os
import tempfile
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.datasets import dblp
from repro.hdt import HDT, Node, build_tree, json_file_to_hdt, xml_file_to_hdt
from repro.hdt.xml_plugin import hdt_to_xml
from repro.relational import ColumnDef, DatabaseSchema, TableSchema
from repro.runtime import (
    MemoryBackend,
    MigrationPlan,
    SQLiteBackend,
    ShardError,
    canonical_table_rows,
    execute_plan,
    shard_execute,
    shard_source,
    stream_execute,
)
from repro.runtime.backends import ColumnarBackend
from repro.runtime.cli import main as cli_main
from repro.runtime.plan import TablePlan
from repro.runtime.service import CHECKPOINT_MANIFEST_NAME, ShardCheckpoint
from repro.runtime.sharded import (
    _SPILL_MAGIC,
    ShardSpec,
    SpillWriter,
    _spill_path,
    execute_shard,
    iter_spill,
    partition_records,
    validate_spill,
)
from repro.runtime.transport import encode_frame
from repro.runtime.streaming import (
    DocumentSetSource,
    JSONSource,
    TreeSource,
    XMLSource,
    count_json_records,
    iter_tree_chunks,
)

# Reuse the program strategies of test_properties and the two-table library
# fixture of test_runtime (same directory, importable as top-level modules
# under pytest's rootdir-based sys.path).
from test_properties import random_programs
from test_runtime import _library_spec, _library_tree

from tests.reference import xml_reader as reference_xml


@pytest.fixture(scope="module")
def dblp_plan():
    return MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())


def _canonical(plan, backend):
    return canonical_table_rows(
        plan.schema, {t: backend.fetch_rows(t) for t in plan.schema.table_names}
    )


def _whole_tree_reference(plan, document):
    report = execute_plan(plan, document, MemoryBackend())
    return _canonical(plan, report.backend)


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #


def test_partition_records_balanced_contiguous():
    specs = partition_records(10, 3)
    assert [(s.start, s.stop) for s in specs] == [(0, 4), (4, 7), (7, 10)]
    assert [s.index for s in specs] == [0, 1, 2]
    assert sum(s.records for s in specs) == 10


def test_partition_records_more_shards_than_records():
    specs = partition_records(2, 4)
    assert [(s.start, s.stop) for s in specs] == [(0, 1), (1, 2), (2, 2), (2, 2)]
    assert specs[3].records == 0


def test_partition_records_empty_and_invalid():
    assert [(s.start, s.stop) for s in partition_records(0, 2)] == [(0, 0), (0, 0)]
    with pytest.raises(ShardError):
        partition_records(5, 0)
    with pytest.raises(ShardError):
        partition_records(-1, 2)


# --------------------------------------------------------------------------- #
# Record-range chunk iterators
# --------------------------------------------------------------------------- #


def test_iter_tree_chunks_record_range():
    tree = build_tree({"item": [{"v": i} for i in range(7)]}, tag="root")
    all_records = [
        node.children[0].data
        for chunk in iter_tree_chunks(tree, 2)
        for node in chunk.tree.root.children
    ]
    window = [
        node.children[0].data
        for chunk in iter_tree_chunks(tree, 2, record_range=(2, 5))
        for node in chunk.tree.root.children
    ]
    assert window == all_records[2:5]
    with pytest.raises(ValueError):
        list(iter_tree_chunks(tree, 2, record_range=(3, 1)))


def test_count_records_helpers(tmp_path):
    tree = build_tree({"item": [{"v": i} for i in range(5)]}, tag="root")
    xml_path = str(tmp_path / "doc.xml")
    with open(xml_path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(tree))
    assert XMLSource(xml_path).count_records() == 5
    assert count_json_records([{"v": i} for i in range(4)]) == 4
    json_path = str(tmp_path / "doc.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"item": [1, 2, 3]}, handle)
    assert count_json_records(json_path) == 3


# --------------------------------------------------------------------------- #
# Sharded vs whole-tree vs streamed: the DBLP plan (surrogate keys + FKs)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize(
    "make_backend", [MemoryBackend, SQLiteBackend, ColumnarBackend]
)
def test_sharded_matches_whole_tree_canonically(dblp_plan, shards, make_backend):
    document = dblp.dataset(scale=30).generate(30)
    reference = _whole_tree_reference(dblp_plan, document)
    report = shard_execute(
        dblp_plan, document, make_backend(), shards=shards, workers=1, chunk_size=7
    )
    assert report.shards == shards
    assert _canonical(dblp_plan, report.backend) == reference
    truth = dblp.ground_truth_counts(30)
    assert report.total_rows == sum(truth.values())


def test_sharded_pool_matches_in_process(dblp_plan):
    document = dblp.dataset(scale=12).generate(12)
    serial = shard_execute(dblp_plan, document, shards=2, workers=1, chunk_size=5)
    pooled = shard_execute(dblp_plan, document, shards=2, workers=2, chunk_size=5)
    assert _canonical(dblp_plan, pooled.backend) == _canonical(
        dblp_plan, serial.backend
    )
    assert pooled.per_table_rows == serial.per_table_rows


def test_sharded_matches_streamed(dblp_plan):
    document = dblp.dataset(scale=20).generate(20)
    streamed = stream_execute(dblp_plan, iter_tree_chunks(document, 6))
    sharded = shard_execute(dblp_plan, document, shards=3, workers=1, chunk_size=6)
    assert _canonical(dblp_plan, sharded.backend) == _canonical(
        dblp_plan, streamed.backend
    )


def test_pool_file_source_with_surrogate_keys(tmp_path):
    """Worker pool + file source + surrogate keys: the uid-collision case.

    Forked workers share the node-uid counter start value, so without
    per-shard key namespacing two shards mint identical ``key_of`` keys for
    different rows (duplicate primary keys, ambiguous foreign keys).  The
    library plan is surrogate-keyed and the JSON file is re-parsed inside
    each worker — exactly the combination a tree-source pool test misses.
    """
    plan = MigrationPlan.learn(_library_spec(_library_tree()))
    full = {
        "author": [
            {
                "name": f"Author {i}",
                "country": ["NZ", "NG", "DE"][i % 3],
                "book": [{"title": f"Book {i}", "year": 1990 + i % 20}],
            }
            for i in range(40)
        ]
    }
    path = tmp_path / "library.json"
    path.write_text(json.dumps(full))
    from repro.hdt import json_to_hdt

    reference = _whole_tree_reference(plan, json_to_hdt(full))
    report = shard_execute(
        plan, str(path), shards=4, workers=4, chunk_size=5
    )
    assert _canonical(plan, report.backend) == reference
    report.backend.database.validate()  # no duplicate keys, FKs resolve


def test_sharded_empty_document(dblp_plan):
    tree = build_tree({}, tag="dblp")
    report = shard_execute(dblp_plan, tree, shards=3, workers=1)
    assert report.total_rows == 0
    assert report.shards == 3


# --------------------------------------------------------------------------- #
# Shardable sources: files and directories
# --------------------------------------------------------------------------- #


def _write_xml(tmp_path, name, tree):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(tree))
    return path


def test_xml_source_parity(dblp_plan, tmp_path):
    document = dblp.dataset(scale=15).generate(15)
    path = _write_xml(tmp_path, "doc.xml", document)
    reparsed = xml_file_to_hdt(path)
    reference = _whole_tree_reference(dblp_plan, reparsed)
    source = shard_source(path)
    assert isinstance(source, XMLSource)
    assert source.count_records() == len(reparsed.root.children)
    report = shard_execute(dblp_plan, path, shards=3, workers=1, chunk_size=4)
    assert _canonical(dblp_plan, report.backend) == reference


def test_directory_source_parity(dblp_plan, tmp_path):
    first = dblp.dataset(scale=8).generate(8)
    second = dblp.dataset(scale=9).generate(9)
    path_a = _write_xml(tmp_path, "a.xml", first)
    path_b = _write_xml(tmp_path, "b.xml", second)
    source = shard_source(str(tmp_path))
    assert isinstance(source, DocumentSetSource)
    parsed = [xml_file_to_hdt(path_a), xml_file_to_hdt(path_b)]
    assert source.count_records() == sum(len(t.root.children) for t in parsed)
    # Reference: both documents streamed in sorted-name order (each file is
    # its own document; records of different files never share a chunk).
    streamed = stream_execute(
        dblp_plan,
        (chunk for tree in parsed for chunk in iter_tree_chunks(tree, 1)),
    )
    # The shard boundary deliberately cuts across the two files.
    report = shard_execute(dblp_plan, source, shards=2, workers=1, chunk_size=1)
    assert _canonical(dblp_plan, report.backend) == _canonical(
        dblp_plan, streamed.backend
    )


def test_json_source_counts():
    source = JSONSource({"item": [{"v": 1}, {"v": 2}]})
    assert source.count_records() == 2
    chunks = list(source.iter_chunks(1, 2, 10))
    assert sum(c.records for c in chunks) == 1


def test_shard_source_inference_errors(tmp_path):
    with pytest.raises(ShardError):
        shard_source(str(tmp_path / "doc.csv"))  # unknown extension, no fmt
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ShardError):
        shard_source(str(empty))
    with pytest.raises(ShardError):
        shard_source(42)  # type: ignore[arg-type]


def test_shard_source_mixed_directory_needs_explicit_format(tmp_path):
    (tmp_path / "a.xml").write_text("<root><item/></root>")
    (tmp_path / "b.json").write_text("[1]")
    with pytest.raises(ShardError, match="mixes"):
        shard_source(str(tmp_path))
    # An explicit format picks the matching file set instead of guessing.
    source = shard_source(str(tmp_path), "json")
    assert isinstance(source, DocumentSetSource)
    assert source.paths == [str(tmp_path / "b.json")]


# --------------------------------------------------------------------------- #
# The spill protocol: corruption surfaces, never silent truncation
# --------------------------------------------------------------------------- #


def _write_spill(path, fingerprint="fp0", shard_index=0):
    writer = SpillWriter(str(path), shard_index, fingerprint, batch_rows=2)
    writer.write_rows("t", [("a",), ("b",), ("c",)])
    writer.finish(chunks=1, records=3)
    return str(path)


def test_spill_roundtrip(tmp_path):
    path = _write_spill(tmp_path / "s.spill")
    batches = list(iter_spill(path, plan_fingerprint="fp0", shard_index=0))
    assert [rows for _, rows in batches] == [[("a",), ("b",)], [("c",)]]


def test_spill_truncation_is_an_error(tmp_path):
    path = _write_spill(tmp_path / "s.spill")
    payload = open(path, "rb").read()
    open(path, "wb").write(payload[:-9])
    with pytest.raises(ShardError, match="truncated|corrupt"):
        list(iter_spill(path, plan_fingerprint="fp0", shard_index=0))


def test_spill_plan_fingerprint_mismatch(tmp_path):
    path = _write_spill(tmp_path / "s.spill")
    with pytest.raises(ShardError, match="different plan"):
        list(iter_spill(path, plan_fingerprint="other", shard_index=0))


def test_spill_shard_index_mismatch(tmp_path):
    path = _write_spill(tmp_path / "s.spill")
    with pytest.raises(ShardError, match="belongs to shard"):
        list(iter_spill(path, plan_fingerprint="fp0", shard_index=1))


def test_spill_missing_and_foreign_files(tmp_path):
    with pytest.raises(ShardError, match="missing"):
        list(iter_spill(str(tmp_path / "nope.spill"), plan_fingerprint="x", shard_index=0))
    garbage = tmp_path / "garbage.spill"
    garbage.write_text("this is not a pickle stream")
    with pytest.raises(ShardError, match="header|spill"):
        list(iter_spill(str(garbage), plan_fingerprint="x", shard_index=0))


def test_every_flipped_byte_and_truncation_is_a_shard_error(tmp_path):
    """Each frame's CRC covers its payload and the framing covers the rest:
    no single-byte change and no truncation of a spill replays, or escapes
    as anything but ShardError."""
    path = str(tmp_path / "s.spill")
    writer = SpillWriter(path, 0, "fp0", batch_rows=2)
    writer.write_rows("t", [("Alice Smith 7",), ("b",), ("c",)])
    writer.finish(chunks=1, records=3)
    payload = open(path, "rb").read()
    assert [rows for _, rows in iter_spill(path, plan_fingerprint="fp0", shard_index=0)]
    damaged = [payload[:cut] for cut in range(len(payload))]
    for position in range(len(payload)):
        for mask in (0x01, 0xFF):
            flipped = bytearray(payload)
            flipped[position] ^= mask
            damaged.append(bytes(flipped))
    for data in damaged:
        open(path, "wb").write(data)
        with pytest.raises(ShardError):
            list(iter_spill(path, plan_fingerprint="fp0", shard_index=0))
        with pytest.raises(ShardError):
            validate_spill(path, plan_fingerprint="fp0", shard_index=0)


def test_old_format_spill_is_refused(tmp_path):
    """A spill of the earlier bare-pickle format is refused, not misread."""
    import pickle

    path = str(tmp_path / "s.spill")
    with open(path, "wb") as handle:
        pickle.dump(
            ("begin", {"magic": "repro-shard-spill/1", "shard": 0, "plan_fingerprint": "fp0"}),
            handle,
        )
        pickle.dump(("end", {"shard": 0, "chunks": 0, "batches": 0, "per_table_rows": {}}), handle)
    with pytest.raises(ShardError):
        validate_spill(path, plan_fingerprint="fp0", shard_index=0)


def test_spill_manifest_count_mismatch(tmp_path):
    path = str(tmp_path / "s.spill")
    with open(path, "wb") as handle:
        handle.write(encode_frame(
            ("begin", {"magic": _SPILL_MAGIC, "shard": 0, "plan_fingerprint": "fp0"})
        ))
        handle.write(encode_frame(("rows", "t", [("a",)])))
        handle.write(encode_frame(
            ("end", {"shard": 0, "chunks": 1, "batches": 1, "per_table_rows": {"t": 5}})
        ))
    with pytest.raises(ShardError, match="do not match"):
        list(iter_spill(path, plan_fingerprint="fp0", shard_index=0))


def test_worker_death_surfaces_through_shard_execute(dblp_plan, monkeypatch):
    """A shard whose worker never wrote the end manifest fails the reduce."""
    document = dblp.dataset(scale=4).generate(4)

    def _broken_shard(plan, source, spec, *, spill_path, plan_fingerprint=None, **kw):
        # Simulated crash: header written, stream abandoned mid-shard.
        writer = SpillWriter(
            spill_path, spec.index, plan_fingerprint or plan.content_fingerprint()
        )
        writer._handle.close()
        return {"chunks": 0, "records": 0}

    monkeypatch.setattr("repro.runtime.sharded.execute_shard", _broken_shard)
    with pytest.raises(ShardError, match="truncated"):
        shard_execute(dblp_plan, document, shards=2, workers=1)


def test_execute_shard_manifest_shape(dblp_plan, tmp_path):
    document = dblp.dataset(scale=6).generate(6)
    spec = ShardSpec(index=0, start=0, stop=10)
    manifest = execute_shard(
        dblp_plan,
        TreeSource(document),
        spec,
        chunk_size=3,
        spill_path=str(tmp_path / "s.spill"),
    )
    assert manifest["shard"] == 0
    assert manifest["records"] == 10
    assert manifest["chunks"] == 4
    assert sum(manifest["per_table_rows"].values()) > 0


# --------------------------------------------------------------------------- #
# Property tests: random program/tree pairs across modes and backends
# --------------------------------------------------------------------------- #


def _single_table_plan(program):
    arity = program.arity
    table = TableSchema(
        "t", [ColumnDef(f"c{i}", "text") for i in range(arity)], natural_keys=True
    )
    return MigrationPlan(
        schema=DatabaseSchema(name="prop", tables=[table]),
        tables={
            "t": TablePlan(
                table="t",
                program=program,
                data_columns=[f"c{i}" for i in range(arity)],
            )
        },
    )


def _rows_multiset(backend):
    return sorted(map(repr, backend.fetch_rows("t")))


_BACKEND_FACTORIES = (
    lambda: MemoryBackend(validate=False),
    lambda: SQLiteBackend(),
    lambda: ColumnarBackend(),
)


@st.composite
def single_record_trees(draw):
    """One root record: every program is record-local, so all execution modes
    must agree (chunking and sharding cannot separate any nodes)."""
    scalars = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", "c"]))
    doc = {
        "item": [
            {
                "k": draw(scalars),
                "v": draw(scalars),
                "sub": [{"x": draw(scalars)} for _ in range(draw(st.integers(0, 2)))],
            }
        ]
    }
    return build_tree(doc, tag="root")


@st.composite
def multi_record_trees(draw, documents=False):
    """Several root records.  With ``documents=True`` the trees take every
    shape a serialized document can: mixed record tags, plain and
    namespaced (``{uri}local``, children in their record's namespace),
    multibyte text, and root attributes as the root's leading leaves."""
    if not documents:
        scalars = st.sampled_from([0, 1, "a"])
        doc = {
            "item": [
                {
                    "k": draw(scalars),
                    "v": draw(scalars),
                    "sub": [{"x": draw(scalars)} for _ in range(draw(st.integers(0, 1)))],
                }
                for _ in range(draw(st.integers(1, 4)))
            ]
        }
        return build_tree(doc, tag="root")
    text = st.sampled_from([0, 1, "a", "中文", "é è", "δοκιμή"])
    root = Node("root", 0, None)
    for name in draw(st.lists(st.sampled_from(["version", "lang"]), unique=True, max_size=2)):
        root.new_child(name, 0, draw(text))
    positions = {}
    for _ in range(draw(st.integers(0, 6))):
        tag = draw(st.sampled_from(["item", "row", "{urn:a}item", "{urn:b}row"]))
        namespace = tag[: tag.index("}") + 1] if tag.startswith("{") else ""
        positions[tag] = positions.get(tag, -1) + 1
        record = root.new_child(tag, positions[tag], None)
        record.new_child(namespace + "k", 0, draw(text))
        record.new_child(namespace + "v", 0, draw(text))
        if draw(st.booleans()):
            record.new_child(namespace + "sub", 0, None).new_child(namespace + "x", 0, draw(text))
    return HDT(root)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(single_record_trees(), st.data())
def test_all_modes_and_backends_agree_on_record_local_programs(tree, data):
    """Whole-tree == streamed == sharded (1/2/4 shards), on every backend."""
    plan = _single_table_plan(data.draw(random_programs()))
    modes = [
        lambda b: execute_plan(plan, tree, b),
        lambda b: stream_execute(plan, iter_tree_chunks(tree, 1), b),
    ]
    for shards in (1, 2, 4):
        modes.append(
            lambda b, s=shards: shard_execute(
                plan, tree, b, shards=s, workers=1, chunk_size=1
            )
        )
    for make_backend in _BACKEND_FACTORIES:
        reference = None
        for index, run in enumerate(modes):
            backend = make_backend()
            run(backend)
            rows = _rows_multiset(backend)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"mode {index} diverged"


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(multi_record_trees(), st.data())
def test_sharded_is_boundary_invariant(tree, data):
    """With per-record chunks, sharding must not change the row multiset
    relative to serial streaming, for *any* program (record-local or not) —
    shard boundaries fall on chunk boundaries by construction."""
    plan = _single_table_plan(data.draw(random_programs()))
    streamed = MemoryBackend(validate=False)
    stream_execute(plan, iter_tree_chunks(tree, 1), streamed)
    reference = _rows_multiset(streamed)
    for shards in (1, 2, 4):
        backend = MemoryBackend(validate=False)
        shard_execute(plan, tree, backend, shards=shards, workers=1, chunk_size=1)
        assert _rows_multiset(backend) == reference


# --------------------------------------------------------------------------- #
# One oracle for what a record is: every source against a whole-tree parse
# --------------------------------------------------------------------------- #

#: How a namespaced record is written: prefixes declared on the root, a
#: default namespace declared on the record, or a prefix the record declares.
NAMESPACE_STYLES = ("prefixed", "default", "redeclared")
_PREFIXES = {"urn:a": "a", "urn:b": "b"}


def _xml_element(node, style, top):
    uri, local = node.tag[1:].split("}") if node.tag.startswith("{") else ("", node.tag)
    name, declare = local, ""
    if uri and style == "prefixed":
        name = f"{_PREFIXES[uri]}:{local}"
    elif uri and style == "default":
        declare = f' xmlns="{uri}"' if top else ""
    elif uri:
        name, declare = f"p:{local}", (f' xmlns:p="{uri}"' if top else "")
    if node.is_leaf():
        inner = escape(str(node.data))
    else:
        inner = "".join(_xml_element(child, style, False) for child in node.children)
    return f"<{name}{declare}>{inner}</{name}>"


def _document_xml(tree, style):
    """The tree as an XML document: root leaves become root attributes."""
    attributes = "".join(
        f' {leaf.tag}="{escape(str(leaf.data))}"' for leaf in tree.root.children if leaf.is_leaf()
    )
    if style == "prefixed":
        attributes += "".join(f' xmlns:{p}="{uri}"' for uri, p in _PREFIXES.items())
    records = "\n  <!-- record -->".join(
        _xml_element(record, style, True) for record in tree.root.children if not record.is_leaf()
    )
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<root{attributes}>\n  {records}\n</root>'


def _json_body(node):
    return node.data if node.is_leaf() else {c.tag: _json_body(c) for c in node.children}


def _document_json(tree, as_array):
    """The tree's records as a JSON array, or as an object of per-tag lists
    plus one scalar pair per root leaf."""
    if as_array:
        return json.dumps(
            [_json_body(r) for r in tree.root.children if not r.is_leaf()], ensure_ascii=False
        )
    value = {}
    for record in tree.root.children:
        if record.is_leaf():
            value[record.tag] = record.data
        else:
            value.setdefault(record.tag, []).append(_json_body(record))
    return json.dumps(value, ensure_ascii=False)


def _shape(node):
    return (node.tag, node.pos, node.data, tuple(_shape(c) for c in node.children))


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _counted(source):
    source.count_records()
    return source


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    multi_record_trees(documents=True),
    st.sampled_from(NAMESPACE_STYLES),
    st.booleans(),
    st.data(),
)
def test_every_source_reads_the_records_of_a_whole_parse(tree, style, as_array, data):
    """For every source and random ``(start, stop, chunk_size)``: the count is
    the whole parse's record count, and the chunks' records are the whole
    parse's ``records[start:stop]`` as (tag, pos, data) subtrees.  XML root
    attributes ride along in every chunk; they are not records."""
    with tempfile.TemporaryDirectory() as directory:
        xml_text = _document_xml(tree, style)
        xml_path = _write(directory, "a.xml", xml_text)
        copy_path = _write(directory, "b.xml", xml_text)
        json_path = _write(directory, "doc.json", _document_json(tree, as_array))
        whole = reference_xml.xml_file_to_hdt(xml_path)
        # The writer is faithful: namespaces parse back to the tree's tags.
        assert _shape(whole.root) == _shape(tree.root)
        attributes = sum(1 for child in tree.root.children if child.is_leaf())
        root_leaves = [_shape(c) for c in whole.root.children[:attributes]]
        xml_records = [_shape(c) for c in whole.root.children[attributes:]]
        json_records = [_shape(c) for c in json_file_to_hdt(json_path).root.children]
        cases = [
            ("xml, read before counting", lambda: XMLSource(xml_path), xml_records, attributes),
            ("xml, seeked", lambda: _counted(XMLSource(xml_path)), xml_records, attributes),
            ("json", lambda: JSONSource(json_path), json_records, 0),
            ("tree", lambda: TreeSource(whole), [_shape(c) for c in whole.root.children], 0),
            (
                "two-file document set",
                lambda: _counted(DocumentSetSource([xml_path, copy_path], "xml")),
                xml_records * 2,
                attributes,
            ),
        ]
        for name, make, expected, extras in cases:
            start = data.draw(st.integers(0, len(expected)), label=f"{name} start")
            stop = data.draw(st.integers(start, len(expected)), label=f"{name} stop")
            chunk_size = data.draw(st.integers(1, 4), label=f"{name} chunk_size")
            source = make()
            chunks = list(source.iter_chunks(start, stop, chunk_size))
            assert source.count_records() == len(expected), name
            records = [_shape(r) for c in chunks for r in c.tree.root.children[extras:]]
            assert records == expected[start:stop], name
            for chunk in chunks:
                assert 0 < chunk.records <= chunk_size, name
                if extras:
                    assert [_shape(c) for c in chunk.tree.root.children[:extras]] == root_leaves


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(multi_record_trees(documents=True), st.sampled_from(NAMESPACE_STYLES), st.booleans())
def test_truncated_documents_never_read_short(tree, style, as_array):
    """Every strict prefix of a document is malformed: counting and reading
    must raise, never return fewer records."""
    documents = (
        ("doc.xml", _document_xml(tree, style), XMLSource),
        ("doc.json", _document_json(tree, as_array), JSONSource),
    )
    with tempfile.TemporaryDirectory() as directory:
        for name, text, kind in documents:
            raw = text.encode("utf-8")
            path = os.path.join(directory, name)
            for cut in range(len(raw)):
                with open(path, "wb") as handle:
                    handle.write(raw[:cut])
                with pytest.raises((ET.ParseError, ValueError, ShardError)):
                    kind(path).count_records()
                with pytest.raises((ET.ParseError, ValueError, ShardError)):
                    list(kind(path).iter_chunks(0, None, 2))


# --------------------------------------------------------------------------- #
# CLI: execution-mode validation and the sharded end-to-end path
# --------------------------------------------------------------------------- #


def _demo_spec(tmp_path, **extra):
    payload = {"dataset": "dblp", "scale": 4, "cache_dir": str(tmp_path / "cache")}
    payload.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--streaming", "--no-stream"], "conflicts with --no-stream"),
        (["--shards", "2", "--no-stream"], "conflicts with --no-stream"),
        (["--shards", "2", "--streaming"], "different execution modes"),
        (["--shards", "0"], "--shards must be >= 1"),
        (["--streaming", "--shards", "2", "--no-stream"], "--streaming conflicts with --shards"),
        (["--streaming", "--chunk-size", "0"], "--chunk-size must be positive"),
        (["--chunk-size", "5"], "--chunk-size and --workers only apply"),
        (["--workers", "2"], "--chunk-size and --workers only apply"),
        (["--no-stream", "--chunk-size", "5"], "--chunk-size and --workers only apply"),
        (
            ["--streaming", "--workers", "2"],
            "--workers only applies to sharded execution (add --shards N)",
        ),
    ],
)
def test_cli_rejects_conflicting_execution_flags(tmp_path, capsys, flags, message):
    spec = _demo_spec(tmp_path)
    assert cli_main(["migrate", "--spec", spec, *flags]) == 1
    assert message in capsys.readouterr().err


def test_cli_rejects_conflicting_spec_keys(tmp_path, capsys):
    spec = _demo_spec(tmp_path, streaming=True, shards=2)
    assert cli_main(["migrate", "--spec", spec]) == 1
    assert 'spec keys "streaming" and "shards" conflict' in capsys.readouterr().err
    # ...but a CLI mode flag overrides the conflicting spec keys.
    assert cli_main(["migrate", "--spec", spec, "--no-stream"]) == 0


def test_cli_rejects_memory_backend_with_output(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert cli_main(["migrate", "--spec", spec, "--output", str(tmp_path / "x.db")]) == 1
    assert "memory backend produces no output" in capsys.readouterr().err


def test_cli_rejects_sql_dump_with_columnar(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            [
                "migrate",
                "--spec",
                spec,
                "--backend",
                "columnar",
                "--output",
                str(tmp_path / "out"),
                "--sql-dump",
                str(tmp_path / "d.sql"),
            ]
        )
        == 1
    )
    assert "--sql-dump only applies" in capsys.readouterr().err


def test_cli_columnar_backend_requires_output(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert cli_main(["migrate", "--spec", spec, "--backend", "columnar"]) == 1
    assert "needs an output directory" in capsys.readouterr().err


def test_cli_sharded_columnar_end_to_end(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    out = str(tmp_path / "columns")
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "2",
             "--backend", "columnar", "--output", out]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "in 2 shard(s)" in captured
    assert os.path.exists(os.path.join(out, "manifest.json"))
    from repro.runtime.backends import load_table_rows

    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["format"] in ("json", "arrow")
    entry = manifest["tables"]["journal"]
    rows = load_table_rows(out, "journal")
    assert len(rows) == entry["rows"] > 0
    assert all(len(row) == len(entry["columns"]) for row in rows)


def test_cli_spec_shards_key(tmp_path, capsys):
    spec = _demo_spec(tmp_path, shards=3)
    assert cli_main(["migrate", "--spec", spec]) == 0
    assert "in 3 shard(s)" in capsys.readouterr().out


def test_cli_non_integer_spec_workers_is_a_usage_error(tmp_path, capsys):
    spec = _demo_spec(tmp_path, shards=2, workers="two")
    assert cli_main(["migrate", "--spec", spec]) == 1
    assert 'spec key "workers" must be an integer' in capsys.readouterr().err


def test_cli_columnar_output_must_be_a_directory(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    plain = tmp_path / "plain"
    plain.write_text("not a directory")
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--backend", "columnar", "--output", str(plain)]
        )
        == 1
    )
    assert "not a directory" in capsys.readouterr().err
    assert plain.read_text() == "not a directory"  # untouched


def test_cli_force_clears_stale_columnar_output(tmp_path):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "old_table.columns.json").write_text("{}")
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--backend", "columnar",
             "--output", str(out), "--force"]
        )
        == 0
    )
    assert not (out / "old_table.columns.json").exists()
    assert (out / "manifest.json").exists()


def test_cli_failed_columnar_run_removes_partial_directory(tmp_path, monkeypatch):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out"

    def _boom(*args, **kwargs):
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr("repro.runtime.run.shard_execute", _boom)
    with pytest.raises(RuntimeError):
        cli_main(
            ["migrate", "--spec", spec, "--shards", "2",
             "--backend", "columnar", "--output", str(out)]
        )
    assert not out.exists()


def test_cli_failed_columnar_run_preserves_user_directory(tmp_path, monkeypatch):
    """A pre-existing (user-created) output directory survives a failure;
    only the files this run would have written are cleaned up."""
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out"
    out.mkdir()  # user-created, empty: accepted without --force

    def _boom(*args, **kwargs):
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr("repro.runtime.run.shard_execute", _boom)
    with pytest.raises(RuntimeError):
        cli_main(
            ["migrate", "--spec", spec, "--shards", "2",
             "--backend", "columnar", "--output", str(out)]
        )
    assert out.exists() and list(out.iterdir()) == []


def test_cli_columnar_format_requires_columnar_backend(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--backend", "sqlite",
             "--output", str(tmp_path / "x.db"), "--columnar-format", "json"]
        )
        == 1
    )
    assert "--columnar-format only applies" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Checkpointed resume: kill after shard k, resume, identical canonical output
# --------------------------------------------------------------------------- #


class _Abort(Exception):
    """Stands in for SIGKILL: raised from the progress callback mid-map."""


def _abort_after(n):
    def progress(done, total):
        if done >= n:
            raise _Abort()

    return progress


@pytest.mark.parametrize(
    "make_backend", [MemoryBackend, SQLiteBackend, ColumnarBackend]
)
def test_checkpoint_resume_is_canonically_identical(dblp_plan, tmp_path, make_backend):
    """Abort after 2 of 4 shards, resume, and match the uninterrupted run —
    across every backend: the reduce replays resumed and fresh spills alike."""
    document = dblp.dataset(scale=12).generate(12)
    reference = _whole_tree_reference(dblp_plan, document)
    directory = str(tmp_path / "ckpt")
    with pytest.raises(_Abort):
        shard_execute(
            dblp_plan, document, make_backend(), shards=4, workers=1,
            chunk_size=5, checkpoint=ShardCheckpoint(directory),
            progress=_abort_after(2),
        )
    assert os.path.exists(os.path.join(directory, CHECKPOINT_MANIFEST_NAME))
    report = shard_execute(
        dblp_plan, document, make_backend(), shards=4, workers=1,
        chunk_size=5, checkpoint=ShardCheckpoint(directory), resume=True,
    )
    assert report.shards_resumed == 2
    assert report.shards_executed == 2
    assert _canonical(dblp_plan, report.backend) == reference
    # Success clears the checkpoint: no manifest, no spills.
    assert os.listdir(directory) == []


def test_checkpoint_truncated_spill_is_reexecuted(dblp_plan, tmp_path):
    """A spill truncated by a killed worker fails validation and re-runs."""
    document = dblp.dataset(scale=8).generate(8)
    reference = _whole_tree_reference(dblp_plan, document)
    directory = str(tmp_path / "ckpt")
    with pytest.raises(_Abort):
        shard_execute(
            dblp_plan, document, shards=4, workers=1, chunk_size=5,
            checkpoint=ShardCheckpoint(directory), progress=_abort_after(2),
        )
    victim = _spill_path(directory, 0)
    payload = open(victim, "rb").read()
    open(victim, "wb").write(payload[:-7])
    report = shard_execute(
        dblp_plan, document, shards=4, workers=1, chunk_size=5,
        checkpoint=ShardCheckpoint(directory), resume=True,
    )
    assert report.shards_resumed == 1  # only the intact spill survived
    assert report.shards_executed == 3
    assert _canonical(dblp_plan, report.backend) == reference


def test_checkpoint_corrupt_spill_is_reexecuted(dblp_plan, tmp_path):
    """One flipped byte inside a checkpointed spill: resume re-executes that
    shard, resumes the intact one, and matches an uninterrupted run."""
    document = dblp.dataset(scale=8).generate(8)
    reference = _whole_tree_reference(dblp_plan, document)
    directory = str(tmp_path / "ckpt")
    with pytest.raises(_Abort):
        shard_execute(
            dblp_plan, document, shards=4, workers=1, chunk_size=5,
            checkpoint=ShardCheckpoint(directory), progress=_abort_after(2),
        )
    victim = _spill_path(directory, 1)
    payload = bytearray(open(victim, "rb").read())
    payload[len(payload) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(payload))
    report = shard_execute(
        dblp_plan, document, shards=4, workers=1, chunk_size=5,
        checkpoint=ShardCheckpoint(directory), resume=True,
    )
    assert report.shards_resumed == 1
    assert report.shards_executed == 3
    assert _canonical(dblp_plan, report.backend) == reference


def test_checkpoint_manifest_holds_only_run_parameters(dblp_plan, tmp_path):
    document = dblp.dataset(scale=4).generate(4)
    directory = str(tmp_path / "ckpt")
    with pytest.raises(_Abort):
        shard_execute(
            dblp_plan, document, shards=2, workers=1, chunk_size=5,
            checkpoint=ShardCheckpoint(directory), progress=_abort_after(1),
        )
    with open(os.path.join(directory, CHECKPOINT_MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    assert sorted(manifest) == [
        "chunk_size", "kind", "plan_fingerprint", "records", "shards"
    ]


def test_checkpoint_resume_rejects_changed_parameters(dblp_plan, tmp_path):
    document = dblp.dataset(scale=6).generate(6)
    directory = str(tmp_path / "ckpt")
    with pytest.raises(_Abort):
        shard_execute(
            dblp_plan, document, shards=3, workers=1, chunk_size=5,
            checkpoint=ShardCheckpoint(directory), progress=_abort_after(1),
        )
    with pytest.raises(ShardError, match="different.*shards"):
        shard_execute(
            dblp_plan, document, shards=4, workers=1, chunk_size=5,
            checkpoint=ShardCheckpoint(directory), resume=True,
        )
    with pytest.raises(ShardError, match="different.*chunk_size"):
        shard_execute(
            dblp_plan, document, shards=3, workers=1, chunk_size=9,
            checkpoint=ShardCheckpoint(directory), resume=True,
        )


def test_checkpoint_argument_validation(dblp_plan, tmp_path):
    document = dblp.dataset(scale=3).generate(3)
    with pytest.raises(ShardError, match="needs a checkpoint"):
        shard_execute(dblp_plan, document, shards=2, workers=1, resume=True)
    with pytest.raises(ShardError, match="mutually exclusive"):
        shard_execute(
            dblp_plan, document, shards=2, workers=1,
            checkpoint=ShardCheckpoint(str(tmp_path / "c")),
            spill_dir=str(tmp_path / "s"),
        )


def test_progress_callback_reports_shard_completions(dblp_plan):
    document = dblp.dataset(scale=6).generate(6)
    seen = []
    shard_execute(
        dblp_plan, document, shards=3, workers=1,
        progress=lambda done, total: seen.append((done, total)),
    )
    assert seen == [(0, 3), (1, 3), (2, 3), (3, 3)]


def test_validate_spill_returns_manifest(tmp_path):
    path = _write_spill(tmp_path / "s.spill")
    manifest = validate_spill(path, plan_fingerprint="fp0", shard_index=0)
    assert manifest["per_table_rows"] == {"t": 3}
    with pytest.raises(ShardError):
        validate_spill(path, plan_fingerprint="other", shard_index=0)


def test_cli_resume_flag_validation(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert cli_main(["migrate", "--spec", spec, "--shards", "2", "--resume"]) == 1
    assert "--resume needs --checkpoint-dir" in capsys.readouterr().err
    assert (
        cli_main(
            ["migrate", "--spec", spec,
             "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        == 1
    )
    assert "only apply to sharded execution" in capsys.readouterr().err


def test_cli_checkpoint_resume_end_to_end(tmp_path, capsys, monkeypatch):
    """`repro migrate --checkpoint-dir` crashes mid-map; `--resume` finishes
    from the first unfinished shard and verify passes on the target."""
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out.db"
    ckpt = tmp_path / "ckpt"
    real_execute = execute_shard
    calls = []

    def flaky(plan, source, spec_, **kwargs):
        calls.append(spec_.index)
        if len(calls) > 1:
            raise RuntimeError("simulated worker crash")
        return real_execute(plan, source, spec_, **kwargs)

    monkeypatch.setattr("repro.runtime.sharded.execute_shard", flaky)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "3", "--workers", "1",
             "--backend", "sqlite", "--output", str(out),
             "--checkpoint-dir", str(ckpt)]
        )
        == 1
    )
    degraded = capsys.readouterr()
    assert "failed permanently" in degraded.err
    assert "simulated worker crash" in degraded.err
    assert "--resume" in degraded.err
    monkeypatch.setattr("repro.runtime.sharded.execute_shard", real_execute)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "3", "--workers", "1",
             "--backend", "sqlite", "--output", str(out),
             "--checkpoint-dir", str(ckpt), "--resume"]
        )
        == 0
    )
    resumed_output = capsys.readouterr().out
    assert "(1 resumed from checkpoint, 2 executed)" in resumed_output
    assert cli_main(
        ["verify", "--spec", spec, "--backend", "sqlite", "--output", str(out)]
    ) == 0
    assert "verification: PASS" in capsys.readouterr().out
