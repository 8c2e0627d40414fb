"""Streaming (chunked) plan execution with bounded memory.

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

Chunk iterators:

* :func:`iter_xml_chunks` — true incremental parsing via
  ``xml.etree.ElementTree.iterparse``; peak memory is one chunk of records;
* :func:`iter_json_chunks` — top-level array/object chunking (the stdlib has
  no incremental JSON parser, so the decoded value is materialized once, but
  the far larger per-record node structures exist only one chunk at a time);
* :func:`iter_tree_chunks` — chunk an already-built HDT by cloning record
  subtrees (used by tests and benchmarks).

:func:`stream_execute` is serial: one process parses, executes and merges
chunk after chunk.  Parallel execution over the same chunks is
:func:`repro.runtime.sharded.shard_execute`.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Tuple, Union

from ..hdt.json_plugin import ITEM_TAG, ROOT_TAG, json_value_to_node
from ..hdt.node import Node, Scalar
from ..hdt.tree import HDT
from ..hdt.xml_plugin import _coerce as coerce_xml_scalar
from ..hdt.xml_plugin import element_to_node
from .executor import ExecutionBackend, ExecutionReport, run_serial
from .plan import MigrationPlan

DEFAULT_CHUNK_SIZE = 1000


@dataclass
class Chunk:
    """One bounded slice of a document: a synthetic root over a few records."""

    tree: HDT
    index: int
    records: int


# --------------------------------------------------------------------------- #
# Chunk iterators
# --------------------------------------------------------------------------- #


def _normalize_record_range(
    record_range: Optional[Tuple[int, int]],
) -> Tuple[int, Optional[int]]:
    """Validate a ``(start, stop)`` record range; ``None`` means everything."""
    if record_range is None:
        return 0, None
    start, stop = record_range
    if start < 0 or stop < start:
        raise ValueError(f"invalid record range {record_range!r}")
    return start, stop


def iter_xml_chunks(
    source: Union[str, IO],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    coerce_numbers: bool = True,
    record_range: Optional[Tuple[int, int]] = None,
    tag_positions: Optional[Dict[str, int]] = None,
) -> Iterator[Chunk]:
    """Incrementally parse an XML file into record chunks.

    ``source`` is a filesystem path or an open (binary or text) file object.
    Each direct child of the document root is one record; records keep their
    whole-document positions (per-tag counters run across chunks), so
    position-sensitive extractors behave as they would on the full tree.
    Root-level *attributes* are replicated into every chunk (they become leaf
    children of the root in the whole-tree mapping, and programs may read
    them); root-level *text* in mixed content is not reconstructed — it is
    not fully available until the document ends.  Parsed elements are
    discarded as soon as they are converted, so peak memory is one chunk,
    not one document.

    ``record_range=(start, stop)`` restricts the output to records with
    document sequence numbers in ``[start, stop)`` — the unit the sharded
    runtime partitions on.  Skipped records are still parsed (and counted,
    so per-tag positions stay whole-document) but never converted to nodes,
    and parsing stops early once ``stop`` is reached.

    ``tag_positions`` seeds the per-tag position counters — the hook the
    byte-offset index path (:func:`iter_indexed_xml_chunks`) uses to start
    parsing mid-document while keeping whole-document record positions.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    start_record, stop_record = _normalize_record_range(record_range)
    context = ET.iterparse(source, events=("start", "end"))
    depth = 0
    document_root: Optional[ET.Element] = None
    root_tag = ROOT_TAG
    root_extras: List[Tuple[str, int, Scalar]] = []
    tag_counts: Dict[str, int] = dict(tag_positions) if tag_positions else {}
    records: List[Node] = []
    index = 0
    sequence = 0
    for event, element in context:
        if event == "start":
            depth += 1
            if document_root is None:
                document_root = element
                root_tag = element.tag
                root_extras = [
                    (name, 0, coerce_xml_scalar(value) if coerce_numbers else value)
                    for name, value in element.attrib.items()
                ]
            continue
        depth -= 1
        if depth != 1:
            continue
        pos = tag_counts.get(element.tag, 0)
        tag_counts[element.tag] = pos + 1
        in_range = sequence >= start_record and (
            stop_record is None or sequence < stop_record
        )
        sequence += 1
        if in_range:
            records.append(element_to_node(element, pos, coerce_numbers=coerce_numbers))
        element.clear()
        if document_root is not None:
            # Drop the (now empty) element from the root so the ElementTree
            # side of the parse stays O(chunk) too.
            try:
                document_root.remove(element)
            except ValueError:  # pragma: no cover - defensive
                pass
        if len(records) >= chunk_size:
            yield _make_chunk(root_tag, records, index, extras=root_extras)
            records = []
            index += 1
        if stop_record is not None and sequence >= stop_record:
            break
    if records:
        yield _make_chunk(root_tag, records, index, extras=root_extras)


def count_xml_records(source: Union[str, IO]) -> int:
    """Count an XML document's records (root's direct children), incrementally.

    The cheap first pass of sharded execution: elements are discarded as soon
    as they close, so the count runs in bounded memory like
    :func:`iter_xml_chunks` does.
    """
    context = ET.iterparse(source, events=("start", "end"))
    depth = 0
    count = 0
    root: Optional[ET.Element] = None
    for event, element in context:
        if event == "start":
            depth += 1
            if root is None:
                root = element
            continue
        depth -= 1
        if depth == 1:
            count += 1
            element.clear()
            if root is not None:
                try:
                    root.remove(element)
                except ValueError:  # pragma: no cover - defensive
                    pass
    return count


class _ByteSpliceReader:
    """A read-only binary file-like over ``preamble + file[start:stop] + suffix``.

    Feeds :func:`xml.etree.ElementTree.iterparse` a mid-document byte slice
    as if it were a complete document, without materializing the slice: the
    middle segment streams straight from the underlying file.
    """

    def __init__(self, path: str, preamble: bytes, start: int, stop: int, suffix: bytes):
        self._handle = open(path, "rb")
        self._handle.seek(start)
        self._remaining = max(0, stop - start)
        self._head = preamble
        self._tail = suffix
        self.closed = False

    def read(self, size: int = -1) -> bytes:
        if size is None or size < 0:
            pieces = [self._head]
            if self._remaining:
                pieces.append(self._handle.read(self._remaining))
                self._remaining = 0
            pieces.append(self._tail)
            self._head = b""
            self._tail = b""
            return b"".join(pieces)
        out = bytearray()
        while len(out) < size:
            want = size - len(out)
            if self._head:
                out += self._head[:want]
                self._head = self._head[want:]
            elif self._remaining:
                piece = self._handle.read(min(want, self._remaining))
                if not piece:
                    self._remaining = 0  # file shrank underneath us; stop cleanly
                    continue
                self._remaining -= len(piece)
                out += piece
            elif self._tail:
                out += self._tail[:want]
                self._tail = self._tail[want:]
            else:
                break
        return bytes(out)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._handle.close()

    def __enter__(self) -> "_ByteSpliceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_indexed_xml_chunks(
    path: str,
    index,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    coerce_numbers: bool = True,
    record_range: Optional[Tuple[int, int]] = None,
) -> Iterator[Chunk]:
    """Like :func:`iter_xml_chunks` over a file, but *seek* to the record
    range using a :class:`~repro.hdt.xml_plugin.XMLRecordIndex` instead of
    parsing every record before ``start`` — the difference between O(range)
    and O(file) per shard.

    The yielded chunks are identical to the full-reparse path's: the spliced
    document keeps the original preamble (XML declaration, doctype, the root
    start tag with its attributes), and per-tag position counters are seeded
    from the index so record positions stay whole-document.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if not index.seekable:
        raise ValueError("index is not seekable (namespaced document)")
    start, stop = _normalize_record_range(record_range)
    total = index.record_count
    start = min(start, total)
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return
    with open(path, "rb") as handle:
        preamble = handle.read(index.offsets[0])
    end_byte = index.offsets[stop] if stop < total else index.content_end
    suffix = f"</{index.root_tag}>".encode(index.encoding)
    positions: Dict[str, int] = {}
    for tag in index.tags[:start]:
        positions[tag] = positions.get(tag, 0) + 1
    with _ByteSpliceReader(path, preamble, index.offsets[start], end_byte, suffix) as reader:
        for chunk in iter_xml_chunks(
            reader,
            chunk_size,
            coerce_numbers=coerce_numbers,
            tag_positions=positions,
        ):
            yield chunk


def iter_json_chunks(
    source: Union[str, IO, list, dict],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    record_range: Optional[Tuple[int, int]] = None,
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
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    start_record, stop_record = _normalize_record_range(record_range)
    value = _decode_json_source(source)
    records: List[Node] = []
    index = 0
    for sequence, (tag, pos, item) in enumerate(_iter_json_records(value)):
        if stop_record is not None and sequence >= stop_record:
            break
        if sequence < start_record:
            continue
        records.append(json_value_to_node(tag, pos, item))
        if len(records) >= chunk_size:
            yield _make_chunk(ROOT_TAG, records, index)
            records = []
            index += 1
    if records:
        yield _make_chunk(ROOT_TAG, records, index)


def count_json_records(source: Union[str, IO, list, dict]) -> int:
    """Count a JSON document's records as :func:`iter_json_chunks` defines them."""
    return sum(1 for _ in _iter_json_records(_decode_json_source(source)))


def iter_tree_chunks(
    tree: HDT,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    record_range: Optional[Tuple[int, int]] = None,
) -> Iterator[Chunk]:
    """Chunk an already-materialized HDT by cloning its record subtrees.

    The source tree is left untouched (records are deep-cloned into each
    chunk), which makes this iterator suitable for comparing streaming and
    whole-tree execution on the same document.  ``record_range=(start,
    stop)`` clones only the records in that window.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    start_record, stop_record = _normalize_record_range(record_range)
    records: List[Node] = []
    index = 0
    for sequence, child in enumerate(tree.root.children):
        if stop_record is not None and sequence >= stop_record:
            break
        if sequence < start_record:
            continue
        records.append(clone_subtree(child))
        if len(records) >= chunk_size:
            yield _make_chunk(tree.root.tag, records, index)
            records = []
            index += 1
    if records:
        yield _make_chunk(tree.root.tag, records, index)


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


def _make_chunk(
    root_tag: str,
    records: List[Node],
    index: int,
    extras: Optional[List[Tuple[str, int, Scalar]]] = None,
) -> Chunk:
    root = Node(root_tag, 0, None)
    for tag, pos, data in extras or ():
        # Fresh leaf nodes per chunk: chunks must not share Node objects.
        root.new_child(tag, pos, data)
    for record in records:
        root.add_child(record)
    return Chunk(tree=HDT(root), index=index, records=len(records))


def _decode_json_source(source: Union[str, IO, list, dict]) -> Any:
    if isinstance(source, (list, dict)):
        return source
    if isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("{") or stripped.startswith("["):
            return json.loads(source)
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
