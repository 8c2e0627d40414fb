"""Streaming (chunked) plan execution with bounded memory, and the record readers.

The whole-tree path materializes the entire document as an HDT before any
program runs — fine for research benchmarks, fatal for a multi-gigabyte DBLP
dump.  This module splits a document into *record chunks* (groups of the
root's direct children, the natural unit of repetition in both the paper's
XML and JSON datasets), executes every table's program chunk by chunk with
the cross-product-free optimizer, and merges the per-chunk results.

**Equivalence assumption**: the result matches a whole-tree run for programs
whose output rows are *record-local* — every node of a row's defining tuple
lives inside one top-level record.  That is the shape migration programs
naturally have (a row per record, columns drawn from within it, predicates
relating columns of the same record).  A program whose predicate deliberately
*pairs nodes from different records* (a self-join across records, e.g. "all
author pairs sharing a country") can have rows whose nodes straddle a chunk
boundary; those rows are not produced.  Use :func:`repro.runtime.executor.
execute_plan` for such programs.

Merging handles everything else:

* **natural-key tables** deduplicate across chunks on the primary key (or the
  whole row) exactly as the one-shot engine deduplicates within a document;
* **surrogate-key tables** need *key reconciliation*: the same logical row
  seen in two chunks is built from different freshly-parsed nodes and would
  get two different generated keys, so the merger keeps the first key,
  records an alias for the second, and rewrites later foreign-key references
  through the alias table (referenced tables are always merged before
  referencing ones).

**What a record is** — one direct child of the document root — is decided
once per format by the reader that builds it:

* XML: :func:`~repro.hdt.xml_plugin.iter_xml_records`, the one XML reader,
  over a whole file or over a window spliced from the byte-offset index of
  :func:`~repro.hdt.xml_plugin.build_xml_record_index`; peak memory is one
  chunk;
* JSON: :func:`_iter_json_records` — a top-level array's elements, or a
  top-level object's pairs with array values flattened (the stdlib has no
  incremental JSON parser, so the decoded value is materialized once);
* an HDT: its root's children, cloned.

This module only batches: :func:`_chunked` groups a reader's record nodes
into :class:`Chunk`\\ s.  The public iterators (:func:`iter_xml_chunks`,
:func:`iter_json_chunks`, :func:`iter_tree_chunks`) and the
:class:`ShardSource` classes (:func:`shard_source`) are thin wrappers over
those two pieces.

:func:`stream_execute` is serial: one process parses, executes and merges
chunk after chunk.  Parallel execution over the same sources is
:func:`repro.runtime.sharded.shard_execute`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import (
    IO, Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..hdt.json_plugin import ITEM_TAG, ROOT_TAG, json_value_to_node
from ..hdt.node import Node, Scalar
from ..hdt.tree import HDT
from ..hdt.xml_plugin import (
    XMLRecordIndex, build_xml_record_index, iter_xml_records, read_blocks,
)
from .executor import ExecutionBackend, ExecutionReport, run_serial
from .plan import MigrationPlan

DEFAULT_CHUNK_SIZE = 1000

Extras = Sequence[Tuple[str, int, Scalar]]


class ShardError(Exception):
    """Sharded execution failed: bad partitioning, corrupt or partial spills,
    or a source that changed after its records were counted."""


@dataclass
class Chunk:
    """One bounded slice of a document: a synthetic root over a few records."""

    tree: HDT
    index: int
    records: int


# --------------------------------------------------------------------------- #
# The batcher
# --------------------------------------------------------------------------- #


def _window(record_range: Optional[Tuple[int, Optional[int]]]) -> Tuple[int, Optional[int]]:
    """Validate a ``(start, stop)`` record range; a ``None`` stop (or range)
    reads to the end."""
    if record_range is None:
        return 0, None
    start, stop = record_range
    if start < 0 or (stop is not None and stop < start):
        raise ValueError(f"invalid record range {record_range!r}")
    return start, stop


def _chunked(
    records: Iterable[Node],
    chunk_size: int,
    root: Callable[[], Tuple[str, Extras]] = lambda: (ROOT_TAG, ()),
) -> Iterator[Chunk]:
    """Batch record nodes (document order) into chunks.  ``root()`` gives
    each chunk's root tag and the leaf ``(tag, pos, data)`` extras replicated
    into every chunk."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    batch: List[Node] = []
    index = 0
    for record in records:
        batch.append(record)
        if len(batch) == chunk_size:
            yield _make_chunk(batch, index, *root())
            batch = []
            index += 1
    if batch:
        yield _make_chunk(batch, index, *root())


def _make_chunk(records: List[Node], index: int, root_tag: str, extras: Extras = ()) -> Chunk:
    root = Node(root_tag, 0, None)
    for tag, pos, data in extras:
        # Fresh leaf nodes per chunk: chunks must not share Node objects.
        root.new_child(tag, pos, data)
    for record in records:
        root.add_child(record)
    return Chunk(tree=HDT(root), index=index, records=len(records))


def _changed(path: str) -> ShardError:
    return ShardError(f"{path} changed after its records were counted; count it again")


def _exactly(records: Iterable[Any], expected: int, path: str) -> Iterator[Any]:
    """Pass ``records`` through, failing closed unless there are exactly
    ``expected`` of them (a window of a file that changed since counting)."""
    seen = 0
    for record in records:
        seen += 1
        if seen > expected:
            break
        yield record
    if seen != expected:
        raise _changed(path)


# --------------------------------------------------------------------------- #
# XML
# --------------------------------------------------------------------------- #


def _window_blocks(path: str, index: XMLRecordIndex, start: int, stop: int) -> Iterator[bytes]:
    """A standalone document holding records ``[start, stop)``: the preamble,
    the window's bytes and the root's close tag.  Fails closed when the
    file's size is not the indexed one."""
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size != index.size:
            raise _changed(path)
        yield handle.read(index.offsets[0])
        handle.seek(index.offsets[start])
        end = index.offsets[stop] if stop < index.record_count else index.content_end
        yield from read_blocks(handle, end - index.offsets[start])
        handle.seek(index.content_end)
        yield handle.read()


def _xml_chunks(records: Iterable[Node], head: Dict[str, Any], chunk_size: int) -> Iterator[Chunk]:
    """Chunk an XML read.  The root's attributes ride along in every chunk as
    leaf children, as in a whole-tree parse; root-level text in mixed
    content is not reconstructed (it is not complete until the end)."""
    return _chunked(records, chunk_size, lambda: (head["tag"], head["extras"]))


def iter_xml_chunks(
    source: Union[str, IO],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    record_range: Optional[Tuple[int, Optional[int]]] = None,
) -> Iterator[Chunk]:
    """Incrementally parse an XML file into record chunks.

    ``source`` is a filesystem path or an open (binary or text) file object.
    Records keep their whole-document positions (per-tag counters run across
    chunks), so position-sensitive extractors behave as they would on the
    full tree.  ``record_range=(start, stop)`` restricts the output to the
    records with sequence numbers in ``[start, stop)``: earlier records are
    parsed (and counted) but never built, and parsing stops at ``stop``.
    """
    start, stop = _window(record_range)
    head: Dict[str, Any] = {}
    records = iter_xml_records(read_blocks(source), head, start=start, stop=stop)
    return _xml_chunks(records, head, chunk_size)


# --------------------------------------------------------------------------- #
# JSON and trees
# --------------------------------------------------------------------------- #


def _is_inline_json(source: object) -> bool:
    """A string holding JSON content rather than naming a file."""
    return isinstance(source, str) and source.lstrip()[:1] in ("{", "[")


def _decode_json_source(source: Union[str, IO, list, dict]) -> Any:
    if isinstance(source, (list, dict)):
        return source
    if _is_inline_json(source):
        return json.loads(source)
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return json.load(source)


def _iter_json_records(value: Any) -> Iterator[Tuple[str, int, Any]]:
    if isinstance(value, list):
        for pos, item in enumerate(value):
            yield ITEM_TAG, pos, item
        return
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, list):
                for pos, item in enumerate(val):
                    yield str(key), pos, item
            else:
                yield str(key), 0, val
        return
    raise ValueError("top-level JSON value must be an array or an object")


def _json_node(record: Tuple[str, int, Any]) -> Node:
    return json_value_to_node(*record)


def iter_json_chunks(
    source: Union[str, IO, list, dict],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    record_range: Optional[Tuple[int, Optional[int]]] = None,
) -> Iterator[Chunk]:
    """Chunk a JSON document by its top-level records.

    ``source`` is a path, an open file object, a JSON string, or an
    already-decoded value.  A top-level array contributes one record per
    element (tag ``item``, array positions preserved); a top-level object
    contributes one record per key/value pair, with array values flattened
    into repeated same-tag records exactly as :func:`repro.hdt.json_to_hdt`
    flattens them.  ``record_range=(start, stop)`` restricts the output to
    the records with sequence numbers in ``[start, stop)``; skipped records
    are never converted to node structures.
    """
    start, stop = _window(record_range)
    records = _iter_json_records(_decode_json_source(source))
    yield from _chunked(map(_json_node, islice(records, start, stop)), chunk_size)


def count_json_records(source: Union[str, IO, list, dict]) -> int:
    """Count a JSON document's records as :func:`iter_json_chunks` defines them."""
    return sum(1 for _ in _iter_json_records(_decode_json_source(source)))


def iter_tree_chunks(
    tree: HDT,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    record_range: Optional[Tuple[int, Optional[int]]] = None,
) -> Iterator[Chunk]:
    """Chunk an already-materialized HDT by cloning its record subtrees.

    The source tree is left untouched (records are deep-cloned into each
    chunk), which makes this iterator suitable for comparing streaming and
    whole-tree execution on the same document.  ``record_range=(start,
    stop)`` clones only the records in that window.
    """
    start, stop = _window(record_range)
    records = map(clone_subtree, islice(tree.root.children, start, stop))
    return _chunked(records, chunk_size, lambda: (tree.root.tag, ()))


def clone_subtree(node: Node) -> Node:
    """Deep-copy a subtree into fresh nodes (new uids, no parent)."""
    copy = Node(node.tag, node.pos, node.data)
    stack = [(node, copy)]
    while stack:
        original, clone = stack.pop()
        for child in original.children:
            child_clone = clone.new_child(child.tag, child.pos, child.data)
            if child.children:
                stack.append((child, child_clone))
    return copy


# --------------------------------------------------------------------------- #
# Sources: a document read by record window
# --------------------------------------------------------------------------- #


#: ``(abspath, size, mtime_ns, reader) -> reader(path)``: a file's XML record
#: index or JSON record count, so resume and dry-run never re-scan an
#: unchanged file while an edited one is read again.  Bounded: the oldest
#: entry is evicted past the cap.
_SOURCE_CACHE: Dict[Tuple[str, int, int, Callable[[str], Any]], Any] = {}
_SOURCE_CACHE_MAX = 64


def _file_cached(path: str, read: Callable[[str], Any]) -> Any:
    """``read(path)``, memoized by the file's identity and stat."""
    try:
        stat = os.stat(path)
    except OSError:
        return read(path)
    key = (os.path.abspath(path), stat.st_size, stat.st_mtime_ns, read)
    if key not in _SOURCE_CACHE:
        if len(_SOURCE_CACHE) >= _SOURCE_CACHE_MAX:
            _SOURCE_CACHE.pop(next(iter(_SOURCE_CACHE)))
        _SOURCE_CACHE[key] = read(path)
    return _SOURCE_CACHE[key]


def clear_source_caches() -> None:
    """Drop the cached XML indexes and JSON counts (tests, memory pressure)."""
    _SOURCE_CACHE.clear()


class ShardSource:
    """A document (or document set) that can be read by record window.

    ``count_records()`` runs once, in the sharded runtime's parent, to drive
    :func:`~repro.runtime.sharded.partition_records`; the source — with what
    counting learned — is then pickled to the workers.  ``iter_chunks(start,
    stop, chunk_size)`` yields the records with sequence numbers in
    ``[start, stop)`` (``stop=None``: to the end) with the tags and positions
    they have in a whole-document parse, so window boundaries are invisible
    to programs.
    """

    def count_records(self) -> int:
        raise NotImplementedError

    def iter_chunks(self, start: int, stop: Optional[int], chunk_size: int) -> Iterator[Chunk]:
        raise NotImplementedError


class TreeSource(ShardSource):
    """An already-materialized :class:`HDT` (tests, benchmarks, demo mode)."""

    def __init__(self, tree: HDT) -> None:
        self.tree = tree

    def count_records(self) -> int:
        return len(self.tree.root.children)

    def iter_chunks(self, start: int, stop: Optional[int], chunk_size: int) -> Iterator[Chunk]:
        return iter_tree_chunks(self.tree, chunk_size, record_range=(start, stop))


class XMLSource(ShardSource):
    """An XML file.

    Counting builds the byte-offset record index
    (:func:`~repro.hdt.xml_plugin.build_xml_record_index`, cached by the
    file's identity and stat); a window then *seeks* to its records and parses
    O(window) bytes.  A read from record 0 before any count walks the file
    without building the index.  A window of a file whose size or record
    count no longer matches the index raises :class:`ShardError`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._index: Optional[XMLRecordIndex] = None

    def record_index(self) -> XMLRecordIndex:
        if self._index is None:
            self._index = _file_cached(self.path, build_xml_record_index)
        return self._index

    def count_records(self) -> int:
        return self.record_index().record_count

    def iter_chunks(self, start: int, stop: Optional[int], chunk_size: int) -> Iterator[Chunk]:
        if start == 0 and self._index is None:
            return iter_xml_chunks(self.path, chunk_size, record_range=(0, stop))
        index = self.record_index()
        stop = index.record_count if stop is None else min(stop, index.record_count)
        start = min(start, stop)
        if start == stop:
            return iter(())
        head: Dict[str, Any] = {}
        records = iter_xml_records(
            _window_blocks(self.path, index, start, stop),
            head,
            positions=Counter(index.tags[:start]),
        )
        return _xml_chunks(_exactly(records, stop - start, self.path), head, chunk_size)


class JSONSource(ShardSource):
    """A JSON document: a path, inline content or an already-decoded value.

    Counting decodes the whole document (the stdlib has no incremental JSON
    parser); a file's count is cached by its identity and stat.  The count
    travels with the source, and a read whose decode disagrees with it
    raises :class:`ShardError`.
    """

    def __init__(self, source: Union[str, list, dict]) -> None:
        self.source = source
        self._count: Optional[int] = None

    def count_records(self) -> int:
        if self._count is None:
            if isinstance(self.source, str) and not _is_inline_json(self.source):
                self._count = _file_cached(self.source, count_json_records)
            else:
                self._count = count_json_records(self.source)
        return self._count

    def iter_chunks(self, start: int, stop: Optional[int], chunk_size: int) -> Iterator[Chunk]:
        value = _decode_json_source(self.source)
        if self._count is not None and count_json_records(value) != self._count:
            raise _changed(str(self.source))
        records = map(_json_node, islice(_iter_json_records(value), start, stop))
        yield from _chunked(records, chunk_size)


class DocumentSetSource(ShardSource):
    """A *directory* of documents: their records, concatenated.

    Files contribute records in the given (sorted) order; a window of the
    concatenation may span a file boundary, and a large file may be split
    across shards.  Records keep their per-document tags and positions (each
    file is its own document), and records of different files never share a
    chunk.  Each file's source — and so its count or index — travels with
    this one.
    """

    def __init__(self, paths: Sequence[str], fmt: str) -> None:
        if fmt not in ("xml", "json"):
            raise ShardError(f'document format must be "xml" or "json" (got {fmt!r})')
        if not paths:
            raise ShardError("document set is empty")
        self.paths = list(paths)
        self.fmt = fmt
        kind = XMLSource if fmt == "xml" else JSONSource
        self.sources: List[ShardSource] = [kind(path) for path in self.paths]

    def count_records(self) -> int:
        return sum(source.count_records() for source in self.sources)

    def iter_chunks(self, start: int, stop: Optional[int], chunk_size: int) -> Iterator[Chunk]:
        offset = 0
        for source in self.sources:
            count = source.count_records()
            file_start = max(start - offset, 0)
            file_stop = count if stop is None else min(stop - offset, count)
            if file_start < file_stop:
                yield from source.iter_chunks(file_start, file_stop, chunk_size)
            offset += count
            if stop is not None and offset >= stop:
                break


def shard_source(
    source: Union[ShardSource, HDT, str], fmt: Optional[str] = None
) -> ShardSource:
    """Wrap a tree, a document path, or a directory as a :class:`ShardSource`.

    For paths, ``fmt`` (``"xml"``/``"json"``) decides the parser; when
    omitted it is inferred from the file extension.  A directory shards the
    concatenation of its ``.xml``/``.json`` files in sorted name order.
    """
    if isinstance(source, ShardSource):
        return source
    if isinstance(source, HDT):
        return TreeSource(source)
    if not isinstance(source, str):
        raise ShardError(f"cannot shard {type(source).__name__} objects")
    if os.path.isdir(source):
        by_format = {
            kind: sorted(
                name for name in os.listdir(source) if name.endswith("." + kind)
            )
            for kind in ("xml", "json")
        }
        if fmt is None:
            present = [kind for kind, names in by_format.items() if names]
            if len(present) > 1:
                raise ShardError(
                    f"directory {source} mixes .xml and .json documents; "
                    f'pass fmt="xml" or fmt="json" to pick one set'
                )
            fmt = present[0] if present else None
        names = by_format.get(fmt or "", [])
        if not names:
            raise ShardError(f"no shardable documents in directory {source}")
        return DocumentSetSource([os.path.join(source, n) for n in names], fmt)
    resolved = fmt or ("xml" if source.endswith(".xml") else "json" if source.endswith(".json") else None)
    if resolved == "xml":
        return XMLSource(source)
    if resolved == "json":
        return JSONSource(source)
    raise ShardError(
        f'cannot infer document format of {source!r}; pass fmt="xml" or fmt="json"'
    )


# --------------------------------------------------------------------------- #
# Streaming execution
# --------------------------------------------------------------------------- #


def stream_execute(
    plan: MigrationPlan,
    chunks: Iterable[Chunk],
    backend: Optional[ExecutionBackend] = None,
) -> ExecutionReport:
    """Execute a plan over a chunk stream with bounded memory.

    The per-table pipeline is one generator chain from tuple enumeration to
    backend insert; even within a chunk no row list is materialized.

    Examples
    --------
    >>> from repro.datasets import dblp
    >>> from repro.runtime import MigrationPlan, iter_tree_chunks, stream_execute
    >>> bundle = dblp.dataset(scale=2)
    >>> plan = MigrationPlan.learn(bundle.migration_spec())
    >>> chunks = iter_tree_chunks(bundle.generate(2), chunk_size=1)
    >>> report = stream_execute(plan, chunks)
    >>> report.total_rows, report.chunks > 1
    (30, True)
    """
    return run_serial(plan, (chunk.tree for chunk in chunks), backend)
