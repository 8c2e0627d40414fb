"""The XML byte-offset record index, source-count caching, and shard
auto-tuning.

The counting pass over an XML source builds a byte-offset index of record
boundaries (`build_xml_record_index`), so a shard *seeks* to its record
window instead of re-parsing the whole document.  These tests pin the
contract: seeking must equal a full reparse on DBLP-style documents with
comments, CDATA sections, namespaces, and multi-byte UTF-8 straddling shard
boundaries; malformed documents raise ElementTree's `ParseError`; a file
that changed after it was counted fails closed; counts and indexes are
cached by the file's identity+stat so resume/dry-run never re-scan an
unchanged source; and `--shards auto` sizes the partition from records x
cores x chunk size at pinned, deterministic points.  Every XML read — whole
tree, streamed chunks, seeked windows — equals the ElementTree oracle in
`tests/reference/xml_reader.py` on random documents.
"""

import json
import os
import tempfile
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.datasets import dblp
from repro.hdt.xml_plugin import (
    build_xml_record_index,
    hdt_to_xml,
    xml_file_to_hdt,
    xml_to_hdt,
)
from repro.runtime import (
    MemoryBackend,
    MigrationPlan,
    canonical_table_rows,
    execute_plan,
    shard_execute,
)
from repro.runtime.cli import main as cli_main
from repro.runtime.sharded import (
    MIN_AUTO_SHARD_RECORDS,
    ShardDegradedError,
    ShardError,
    auto_shard_count,
    resolve_shard_count,
)
from repro.runtime.streaming import (
    _SOURCE_CACHE,
    JSONSource,
    XMLSource,
    clear_source_caches,
    iter_xml_chunks,
)
from tests.reference import xml_reader as reference_xml

TRICKY_XML = """<?xml version="1.0" encoding="UTF-8"?>
<!-- catalogue preamble -->
<dblp version="7">
  <!-- leading comment between records -->
  <article><title>Tést 中文 ünïçode — δοκιμή</title><year>2001</year></article>
  <book><title><![CDATA[CDATA <raw> &amp; bytes]]></title><pages>42</pages></book>
  <article><author>名前 αβγ</author><note>multi–byte “quotes”</note></article>
  <!-- trailing comment -->
</dblp>
"""


@pytest.fixture
def tricky_path(tmp_path):
    path = tmp_path / "tricky.xml"
    path.write_text(TRICKY_XML, encoding="utf-8")
    return str(path)


def _shape(node):
    return (node.tag, node.pos, node.data, tuple(_shape(c) for c in node.children))


def _records(chunks):
    """Flatten a chunk stream into comparable (tag, pos, subtree) shapes."""
    out = []
    for chunk in chunks:
        for record in chunk.tree.root.children:
            out.append(_shape(record))
    return out


def _seeked(path, chunk_size, record_range):
    """A record window read the way a shard reads it: through a counted
    source, which seeks with the byte-offset index."""
    source = XMLSource(path)
    source.count_records()
    return source.iter_chunks(*record_range, chunk_size)


# --------------------------------------------------------------------------- #
# Index structure
# --------------------------------------------------------------------------- #


def test_index_structure_on_tricky_document(tricky_path):
    index = build_xml_record_index(tricky_path)
    assert index.root_tag == "dblp"
    assert index.tags == ("article", "book", "article")
    assert index.record_count == 3
    raw = open(tricky_path, "rb").read()
    assert index.size == len(raw)
    # Every offset lands on the ASCII '<' that opens its record element, so
    # a byte splice can never split a multi-byte sequence.
    for offset, tag in zip(index.offsets, index.tags):
        assert raw[offset : offset + 1] == b"<"
        assert raw[offset : offset + len(tag) + 1] == b"<" + tag.encode()
    assert index.offsets == tuple(sorted(index.offsets))
    # content_end points at the closing root tag, after the last record.
    assert index.content_end > index.offsets[-1]
    assert raw[index.content_end :].strip().startswith(b"</dblp>")


def test_index_counts_match_streaming_counter(tricky_path):
    assert build_xml_record_index(tricky_path).record_count == sum(
        chunk.records for chunk in iter_xml_chunks(tricky_path, 2)
    )


# --------------------------------------------------------------------------- #
# Seek == full reparse
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("record_range", [(0, 3), (0, 1), (1, 2), (2, 3), (1, 3), (3, 3)])
@pytest.mark.parametrize("chunk_size", [1, 2, 10])
def test_seek_equals_full_reparse(tricky_path, record_range, chunk_size):
    seeked = _records(_seeked(tricky_path, chunk_size, record_range))
    reparsed = _records(
        iter_xml_chunks(tricky_path, chunk_size, record_range=record_range)
    )
    assert seeked == reparsed


def test_seek_equals_reparse_on_generated_dblp(tmp_path):
    document = dblp.dataset(scale=10).generate(10)
    path = str(tmp_path / "dblp.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(document))
    index = build_xml_record_index(path)
    total = index.record_count
    assert total == XMLSource(path).count_records()
    for record_range in ((0, total), (0, total // 2), (total // 2, total), (1, total - 1)):
        assert _records(_seeked(path, 3, record_range)) == _records(
            iter_xml_chunks(path, 3, record_range=record_range)
        )


def test_multibyte_straddles_every_shard_boundary(tmp_path):
    """Records made almost entirely of multi-byte UTF-8: every per-record
    window must splice on the ASCII '<' boundaries and decode cleanly."""
    records = "".join(
        f"<item><name>中文{i}éèαω</name></item>"
        for i in range(9)
    )
    path = tmp_path / "mb.xml"
    path.write_text(f"<root>{records}</root>", encoding="utf-8")
    index = build_xml_record_index(str(path))
    assert index.record_count == 9
    for start in range(9):
        window = (start, start + 1)
        assert _records(_seeked(str(path), 1, window)) == _records(
            iter_xml_chunks(str(path), 1, record_range=window)
        )


def test_tag_positions_are_preserved_across_windows(tricky_path):
    """A seeked window's records keep their whole-document per-tag positions
    (the second `article` is article pos=1 even when read alone)."""
    records = _records(_seeked(tricky_path, 1, (2, 3)))
    # Root attributes (version="7") ride along as attribute nodes, exactly
    # as they do in a whole-document parse; the record itself comes last.
    tag, pos, _data, _children = records[-1]
    assert (tag, pos) == ("article", 1)


# --------------------------------------------------------------------------- #
# Namespaces, malformed documents, files changed after counting
# --------------------------------------------------------------------------- #


def test_namespaced_document_seeks(tmp_path):
    path = tmp_path / "ns.xml"
    document = (
        '<root xmlns:x="http://example.com/ns">'
        "<x:item><x:v>1</x:v></x:item><x:item><x:v>2</x:v></x:item>"
        '<item xmlns="urn:d"><v>3</v></item></root>'
    )
    path.write_text(document, encoding="utf-8")
    index = build_xml_record_index(str(path))
    # The index names records as ElementTree does: {uri}local.
    assert index.tags == tuple(e.tag for e in ET.fromstring(document))
    assert index.tags[0] == "{http://example.com/ns}item"
    source = XMLSource(str(path))
    assert source.count_records() == 3
    whole = _records(iter_xml_chunks(str(path), 1))
    for start in range(4):
        for stop in range(start, 4):
            assert _records(source.iter_chunks(start, stop, 1)) == whole[start:stop]
    # The second x:item keeps its whole-document position when read alone.
    assert whole[1][:2] == ("{http://example.com/ns}item", 1)


def test_malformed_xml_keeps_elementtree_error_surface(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<root><item>unclosed", encoding="utf-8")
    with pytest.raises(ET.ParseError) as error:
        build_xml_record_index(str(path))
    assert error.value.position == (1, 20)
    # Counting goes through the index, so callers see ElementTree's
    # ParseError, never an expat error.
    source = XMLSource(str(path))
    with pytest.raises(ET.ParseError):
        source.count_records()


#: An entity the document never defines.  With an external DTD expat cannot
#: tell it is undefined and skips it; ElementTree refuses the document.
UNDEFINED_ENTITY_XML = '<!DOCTYPE r SYSTEM "r.dtd"><r><a>M&uuml;ller</a><a>2</a></r>'


def test_undefined_entity_fails_at_count_time(tmp_path):
    path = str(tmp_path / "entity.xml")
    _rewrite(path, UNDEFINED_ENTITY_XML)
    with pytest.raises(ET.ParseError) as error:
        ET.fromstring(UNDEFINED_ENTITY_XML)
    expected = (error.value.code, error.value.position)
    reads = (
        lambda: XMLSource(path).count_records(),
        lambda: xml_to_hdt(UNDEFINED_ENTITY_XML),
        lambda: list(iter_xml_chunks(path, 1)),
    )
    for read in reads:
        with pytest.raises(ET.ParseError, match="undefined entity &uuml;") as error:
            read()
        assert (error.value.code, error.value.position) == expected


def test_sharded_run_over_undefined_entity_writes_nothing(tmp_path, monkeypatch):
    plan = MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())
    path = str(tmp_path / "entity.xml")
    _rewrite(path, UNDEFINED_ENTITY_XML)
    partitioned = []
    monkeypatch.setattr(
        "repro.runtime.sharded.partition_records", lambda *args: partitioned.append(args)
    )
    backend = MemoryBackend()
    with pytest.raises(ET.ParseError, match="undefined entity"):
        shard_execute(plan, path, backend, shards=2, workers=1, chunk_size=4)
    assert partitioned == []  # refused at count time, before any shard exists
    assert backend.database is None  # never begun: no partial target


def _rewrite(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _xml_items(count):
    return "<root>" + "".join(f"<item>{i}</item>" for i in range(count)) + "</root>"


def test_xml_file_changed_after_counting_fails_closed(tmp_path):
    """Count 6 records, grow the file to 8: every window fails closed instead
    of returning 6 rows of a document that no longer exists."""
    path = str(tmp_path / "doc.xml")
    _rewrite(path, _xml_items(6))
    source = XMLSource(path)
    assert source.count_records() == 6
    _rewrite(path, _xml_items(8))
    for start, stop in ((0, 3), (3, 6)):
        with pytest.raises(ShardError, match="changed after its records were counted"):
            list(source.iter_chunks(start, stop, 2))
    # Same size, records 4 and 5 merged into one: the window's record count
    # catches what the size cannot.
    _rewrite(path, _xml_items(6).replace("<item>4</item><item>5</item>", f"<item>4{'x' * 14}</item>"))
    assert os.path.getsize(path) == source.record_index().size
    with pytest.raises(ShardError, match="changed after its records were counted"):
        list(source.iter_chunks(3, 6, 2))


def test_json_file_changed_after_counting_fails_closed(tmp_path):
    path = str(tmp_path / "doc.json")
    _rewrite(path, json.dumps([{"v": i} for i in range(6)]))
    source = JSONSource(path)
    assert source.count_records() == 6
    _rewrite(path, json.dumps([{"v": i} for i in range(8)]))
    for start, stop in ((0, 3), (3, 6)):
        with pytest.raises(ShardError, match="changed after its records were counted"):
            list(source.iter_chunks(start, stop, 2))


def test_touched_file_still_reads(tmp_path):
    """A new mtime with the same bytes (a copy on a worker host, a touch)
    is the same document: windows read as before."""
    xml_path = str(tmp_path / "doc.xml")
    json_path = str(tmp_path / "doc.json")
    _rewrite(xml_path, _xml_items(6))
    _rewrite(json_path, json.dumps([{"v": i} for i in range(6)]))
    for source in (XMLSource(xml_path), JSONSource(json_path)):
        assert source.count_records() == 6
        before = [_records(source.iter_chunks(a, b, 2)) for a, b in ((0, 3), (3, 6))]
        for path in (xml_path, json_path):
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert [_records(source.iter_chunks(a, b, 2)) for a, b in ((0, 3), (3, 6))] == before


def test_sharded_run_over_changed_file_writes_nothing(tmp_path):
    plan = MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())
    path = str(tmp_path / "dblp.xml")
    _rewrite(path, hdt_to_xml(dblp.dataset(scale=3).generate(3)))
    source = XMLSource(path)
    source.count_records()
    _rewrite(path, hdt_to_xml(dblp.dataset(scale=4).generate(4)))
    backend = MemoryBackend()
    with pytest.raises(ShardDegradedError, match="changed after its records were counted"):
        shard_execute(plan, source, backend, shards=2, workers=1, chunk_size=4)
    assert backend.database is None  # never begun: no partial target


# --------------------------------------------------------------------------- #
# Every XML read against the ElementTree oracle
# --------------------------------------------------------------------------- #

_TEXTS = ["", " ", "\n  ", "7", " -3 ", "4.5", "1e3", "x y", "中文", "é è", "δοκιμή", "<&>"]
_TAGS = ["a", "b", "p:a", "q:b"]
_ATTRIBUTES = ["id", "lang", "p:id", "q:id"]


@st.composite
def _character_data(draw):
    """Text as a document may write it: plain, CDATA, with entity and
    character references, or split by a comment or a processing instruction."""
    text = draw(st.sampled_from(_TEXTS))
    kind = draw(st.sampled_from(["plain", "cdata", "reference", "comment", "pi"]))
    if kind == "cdata":
        return f"<![CDATA[{text}]]>"
    if kind == "reference":
        return escape(text) + draw(st.sampled_from(["&amp;", "&lt;", "&#233;", "&#x4e2d;"]))
    if kind == "comment":
        return escape(text) + "<!-- note -->"
    if kind == "pi":
        return escape(text) + "<?pi data?>"
    return escape(text)


@st.composite
def _xml_element(draw, depth=2):
    """An element with attributes (some namespaced), mixed content, and at
    times a default namespace declaration or an empty-element tag."""
    tag = draw(st.sampled_from(_TAGS))
    declare = ' xmlns="urn:d"' if draw(st.integers(0, 5)) == 0 else ""
    names = draw(st.lists(st.sampled_from(_ATTRIBUTES), unique=True, max_size=2))
    attributes = "".join(f" {name}={quoteattr(draw(st.sampled_from(_TEXTS)))}" for name in names)
    content = "".join(
        draw(_xml_element(depth - 1)) if depth and draw(st.booleans()) else draw(_character_data())
        for _ in range(draw(st.integers(0, 3)))
    )
    if not content and draw(st.booleans()):
        return f"<{tag}{declare}{attributes}/>"
    return f"<{tag}{declare}{attributes}>{content}</{tag}>"


@st.composite
def _xml_documents(draw):
    names = draw(st.lists(st.sampled_from(["version", "p:lang"]), unique=True, max_size=2))
    attributes = "".join(f" {name}={quoteattr(draw(st.sampled_from(_TEXTS)))}" for name in names)
    between = st.sampled_from(["", "\n  ", "<!-- between -->", "stray text"])
    body = "".join(
        draw(between) + draw(_xml_element()) for _ in range(draw(st.integers(0, 6)))
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<root xmlns:p="urn:p" xmlns:q="urn:q"{attributes}>{body}{draw(between)}</root>'
    )


def _preorder(node):
    """A subtree's (tag, pos, data type, data) in preorder; its uids must
    increase along it (nodes are created in document order)."""
    out, uids, stack = [], [], [node]
    while stack:
        current = stack.pop()
        out.append((current.tag, current.pos, type(current.data).__name__, current.data))
        uids.append(current.uid)
        stack.extend(reversed(current.children))
    assert uids == sorted(set(uids))
    return out


def _chunk_shapes(chunks):
    """Each chunk as its root and record count, then its children's preorders."""
    return [
        [(chunk.tree.root.tag, chunk.tree.root.pos, chunk.tree.root.data, chunk.records)]
        + [_preorder(child) for child in chunk.tree.root.children]
        for chunk in chunks
    ]


def _expected_chunks(root_tag, extras, records, chunk_size):
    """Chunks as the oracle's records batch: a root, the root's attribute
    leaves, then up to ``chunk_size`` records."""
    leaves = [[(tag, pos, type(data).__name__, data)] for tag, pos, data in extras]
    batches = [records[i : i + chunk_size] for i in range(0, len(records), chunk_size)]
    return [
        [(root_tag, 0, None, len(batch))] + leaves + [_preorder(record) for record in batch]
        for batch in batches
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_xml_documents(), st.data())
def test_every_xml_read_equals_the_elementtree_oracle(document, data):
    """Whole-tree reads, streamed chunks at sizes 1, 3 and n, and seeked
    windows equal the ElementTree oracle node for node — (tag, pos, data) in
    preorder, chunk boundaries, and uids increasing along each record."""
    expected_tree = _preorder(reference_xml.xml_to_hdt(document).root)
    assert _preorder(xml_to_hdt(document).root) == expected_tree
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        assert _preorder(xml_file_to_hdt(path).root) == expected_tree
        root_tag, extras, records = reference_xml.read_records(path)
        for chunk_size in (1, 3, max(len(records), 1)):
            assert _chunk_shapes(iter_xml_chunks(path, chunk_size)) == _expected_chunks(
                root_tag, extras, records, chunk_size
            )
        start = data.draw(st.integers(0, len(records)), label="start")
        stop = data.draw(st.integers(start, len(records)), label="stop")
        chunk_size = data.draw(st.integers(1, 4), label="chunk_size")
        source = XMLSource(path)
        assert source.count_records() == len(records)
        assert _chunk_shapes(source.iter_chunks(start, stop, chunk_size)) == _expected_chunks(
            root_tag, extras, records[start:stop], chunk_size
        )


# --------------------------------------------------------------------------- #
# Source-count caching (fix: resume/dry-run re-scanned every time)
# --------------------------------------------------------------------------- #


def test_xml_index_cached_by_file_identity(tricky_path, monkeypatch):
    clear_source_caches()
    calls = []
    real = build_xml_record_index

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr("repro.runtime.streaming.build_xml_record_index", counting)
    assert XMLSource(tricky_path).count_records() == 3
    # A *fresh* source instance for the same unchanged file hits the cache.
    assert XMLSource(tricky_path).count_records() == 3
    assert len(calls) == 1
    assert len(_SOURCE_CACHE) == 1
    clear_source_caches()


def test_xml_index_cache_invalidated_by_edit(tricky_path, monkeypatch):
    clear_source_caches()
    calls = []
    real = build_xml_record_index

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr("repro.runtime.streaming.build_xml_record_index", counting)
    assert XMLSource(tricky_path).count_records() == 3
    # Rewrite the file (content + size change): the stat key changes, so the
    # stale index is never served for the edited document.
    with open(tricky_path, "w", encoding="utf-8") as handle:
        handle.write("<dblp><article><t>only one</t></article></dblp>")
    assert XMLSource(tricky_path).count_records() == 1
    assert len(calls) == 2
    clear_source_caches()


def test_json_count_cached_for_files_not_inline_content(tmp_path, monkeypatch):
    clear_source_caches()
    calls = []
    from repro.runtime.streaming import count_json_records as real

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr("repro.runtime.streaming.count_json_records", counting)
    path = str(tmp_path / "doc.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"item": [1, 2, 3, 4]}, handle)
    assert JSONSource(path).count_records() == 4
    assert JSONSource(path).count_records() == 4
    assert len(calls) == 1  # second fresh instance served from the cache
    assert len(_SOURCE_CACHE) == 1
    # Inline JSON content is not a file: counted per instance, never cached.
    inline = '{"item": [1, 2]}'
    assert JSONSource(inline).count_records() == 2
    assert JSONSource(inline).count_records() == 2
    assert len(calls) == 3
    assert len(_SOURCE_CACHE) == 1
    clear_source_caches()


def test_sharded_run_reuses_the_counting_pass(tricky_path, monkeypatch):
    """A dry-run followed by the real run (the `repro migrate --dry-run`
    then `migrate` pattern) scans the source once, not twice."""
    clear_source_caches()
    calls = []
    real = build_xml_record_index

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr("repro.runtime.streaming.build_xml_record_index", counting)
    plan_source = dblp.dataset(scale=3)
    plan = MigrationPlan.learn(plan_source.migration_spec())
    document = plan_source.generate(3)
    path = tricky_path  # reuse the fixture file's path for a fresh DBLP doc
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(document))
    first = shard_execute(plan, path, shards=2, workers=1, chunk_size=4)
    second = shard_execute(plan, path, shards=2, workers=1, chunk_size=4)
    assert len(calls) == 1
    whole = execute_plan(plan, document, MemoryBackend())
    reference = canonical_table_rows(
        plan.schema,
        {t: whole.backend.fetch_rows(t) for t in plan.schema.table_names},
    )
    for report in (first, second):
        assert canonical_table_rows(
            plan.schema,
            {t: report.backend.fetch_rows(t) for t in plan.schema.table_names},
        ) == reference
    clear_source_caches()


# --------------------------------------------------------------------------- #
# Shard auto-tuning
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "records, cores, chunk_size, expected",
    [
        (10000, 4, 1000, 4),     # core-bound: plenty of records per shard
        (10000, 16, 1000, 5),    # record-bound: 10000 // 2000 = 5
        (100000, 8, 1000, 8),    # large document saturates the cores
        (1999, 8, 1000, 1),      # too small to fill two chunks anywhere
        (4096, 8, 100, 8),       # small chunks: the 512-record floor rules
        (4096, 8, 1000, 2),      # 4096 // 2000 = 2
        (512, 2, 100, 1),        # exactly the floor: one shard
        (1024, 2, 100, 2),
    ],
)
def test_auto_shard_count_pinned_points(records, cores, chunk_size, expected):
    assert auto_shard_count(records, cores=cores, chunk_size=chunk_size) == expected


def test_auto_shard_count_degenerate_inputs():
    assert auto_shard_count(0, cores=8) == 1
    assert auto_shard_count(-5, cores=8) == 1
    assert auto_shard_count(10**6, cores=1) == 1
    assert auto_shard_count(10**6, cores=0) == 1
    assert MIN_AUTO_SHARD_RECORDS == 512  # documented floor


def test_resolve_shard_count():
    assert resolve_shard_count(3, 10**6) == 3
    assert resolve_shard_count("auto", 10000, chunk_size=1000, cores=4) == 4
    assert resolve_shard_count("  AUTO ", 10000, chunk_size=1000, cores=4) == 4
    with pytest.raises(ShardError, match='integer or "auto"'):
        resolve_shard_count("many", 100)


def test_shards_auto_end_to_end():
    plan = MigrationPlan.learn(dblp.dataset(scale=4).migration_spec())
    document = dblp.dataset(scale=4).generate(4)
    whole = execute_plan(plan, document, MemoryBackend())
    reference = canonical_table_rows(
        plan.schema, {t: whole.backend.fetch_rows(t) for t in plan.schema.table_names}
    )
    report = shard_execute(plan, document, shards="auto", workers=1)
    # A small demo document auto-tunes to a single shard on any machine.
    assert report.shards == 1
    assert canonical_table_rows(
        plan.schema, {t: report.backend.fetch_rows(t) for t in plan.schema.table_names}
    ) == reference


# --------------------------------------------------------------------------- #
# CLI: --shards auto
# --------------------------------------------------------------------------- #


def _demo_spec(tmp_path, **extra):
    payload = {"dataset": "dblp", "scale": 4, "cache_dir": str(tmp_path / "cache")}
    payload.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_shards_auto(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "auto",
             "--report-json", str(report_path)]
        )
        == 0
    )
    assert "loaded" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    # The demo document is far below the 2-chunks-per-shard floor, so auto
    # resolves to a single shard on any machine — through the sharded path.
    assert report["shards"] == 1
    assert report["transport"] == "local"


def test_cli_spec_shards_auto_key(tmp_path, capsys):
    spec = _demo_spec(tmp_path, shards="auto")
    report_path = tmp_path / "report.json"
    assert (
        cli_main(["migrate", "--spec", spec, "--report-json", str(report_path)]) == 0
    )
    assert json.loads(report_path.read_text())["shards"] == 1
    capsys.readouterr()


def test_cli_rejects_malformed_shards_value(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    with pytest.raises(SystemExit):
        cli_main(["migrate", "--spec", spec, "--shards", "2x"])
    assert 'expected an integer or "auto"' in capsys.readouterr().err
