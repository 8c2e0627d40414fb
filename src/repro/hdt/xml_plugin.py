"""XML plug-in: the one XML reader (XML → HDT) and the renderer back.

Following Section 3 of the paper, XML elements map to HDT nodes; *attributes*
and *text content* are modelled as nested elements so that a node can carry a
mix of nested elements, attributes and text:

* an attribute ``a="v"`` of element ``e`` becomes a leaf child ``(a, 0, "v")``
  of the node for ``e``;
* if an element contains only text (no attributes, no child elements), the
  element node itself becomes a leaf carrying that text — this matches the
  motivating example of Figure 2/4 where ``<name>Alice</name>`` is the leaf
  node ``name`` with data ``"Alice"``;
* if an element contains text *and* other content, the text becomes a leaf
  child with the reserved tag ``text`` (as in Example 3 / Figure 8).

An element's *text* is its character data before its first child element
(CDATA and expanded entities included, comments and processing instructions
skipped), stripped; text after a child element is dropped.  Leaf data that
looks like an integer or a float is stored as a number, so that predicates
such as ``id < 20`` (Example 3) behave as expected.  Tags and attribute names
take ElementTree's ``{uri}local`` form; namespace declarations are not
attributes.  Positions are assigned per (parent, tag): the i-th child of a
parent with a given tag gets ``pos = i``.

>>> tree = xml_to_hdt('<users><user id="7">hi <name>Ann</name></user></users>')
>>> [(node.tag, node.pos, node.data) for node in tree.root.descendants()]
[('user', 0, None), ('id', 0, 7), ('text', 0, 'hi'), ('name', 0, 'Ann')]

**What a record is** — one direct child of the document root — is decided
here, by :func:`iter_xml_records`, and nowhere else.  One set of expat
callbacks builds the nodes for every entry point: whole-tree reads
(:func:`xml_to_hdt`, :func:`xml_file_to_hdt`) and the record reads of the
streaming and sharded runtimes (whole files and seeked windows).  The
byte-offset record index (:func:`build_xml_record_index`) finds record
boundaries by the same depth-one rule with the same parser setup, so a
document the reader refuses is refused at count time too.  Malformed or
truncated input raises :class:`xml.etree.ElementTree.ParseError` with
expat's ``code`` and ``position``.
"""

from __future__ import annotations

import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union
from xml.parsers import expat

from .node import Node, Scalar
from .tree import HDT

TEXT_TAG = "text"

#: Bytes per read.  Every record that ends in a block is built before the
#: first is yielded, so the block bounds how far a feed runs ahead of the
#: consumer.  64 KiB read the 6.3 MB DBLP file within noise of 16 KiB (six
#: alternating runs, 2 cores, Python 3.11: median CPU 1.37 s vs 1.45 s, with
#: a 0.2 s spread), so the smaller block stays.
_BLOCK_SIZE = 16 * 1024


@dataclass(frozen=True)
class XMLRecordIndex:
    """A byte-offset index over a document's records (root's direct children).

    Built in one expat pass (:func:`build_xml_record_index`) — the pass the
    sharded runtime's counting already pays — it lets a shard **seek**
    straight to its record window instead of re-parsing the whole document:
    ``offsets[i]`` is the byte position of record *i*'s opening ``<``, so the
    preamble ``[0, offsets[0])``, the slice ``[offsets[start],
    offsets[stop])`` and the tail from ``content_end`` (the root's close tag)
    form a valid standalone document holding exactly records ``[start,
    stop)`` (docs/distributed.md#the-xml-byte-offset-record-index).

    Offsets always land on the ASCII ``<`` byte, so a slice boundary can
    never split a multi-byte UTF-8 sequence; comments, CDATA and whitespace
    *between* records belong to the preceding slice and are ignored by the
    record parser exactly as they are in a full parse.  ``tags`` (each
    record's tag in ElementTree's ``{uri}local`` form, in document order)
    lets a mid-document slice seed its per-tag position counters so record
    positions stay whole-document.  ``size`` is the file's size when indexed:
    a reader compares it before trusting the offsets.
    """

    root_tag: str
    offsets: Tuple[int, ...]
    tags: Tuple[str, ...]
    content_end: int
    size: int

    @property
    def record_count(self) -> int:
        return len(self.offsets)


def _qualified(name: str) -> str:
    """An expat ``uri}local`` name in ElementTree's ``{uri}local`` form."""
    return "{" + name if "}" in name else name


#: A start tag: attribute values may hold ``>`` but not their own quote.
_START_TAG = re.compile(rb"<[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*>")
#: A general entity reference (character references start with ``#``).
_ENTITY_REFERENCE = re.compile(rb"&([A-Za-z_:\x80-\xff][-\w.:\x80-\xff]*);")
_PREDEFINED_ENTITIES = frozenset({"amp", "lt", "gt", "quot", "apos"})


def _undefined_entity(parser: "expat.XMLParserType", name: str) -> expat.ExpatError:
    line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
    error = expat.ExpatError(f"undefined entity &{name};: line {line}, column {column}")
    error.code = expat.errors.codes[expat.errors.XML_ERROR_UNDEFINED_ENTITY]
    error.lineno, error.offset = line, column
    return error


def _parser() -> "expat.XMLParserType":
    """An expat parser set up as every XML read needs it.

    Names arrive as ``uri}local`` (namespace declarations are consumed, not
    reported as attributes).  An entity reference expat cannot expand — an
    undefined entity in a document with an external DTD, which plain expat
    skips silently — is an error, as it is for ElementTree in content.  In
    an attribute value expat drops it without any callback, so once the
    document turns out to have an external DTD every start tag with
    attributes is checked against its raw text.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    declared = set()

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:
            raise _undefined_entity(parser, name)

    def entity_declared(name: str, is_parameter_entity: bool, *_: Any) -> None:
        if not is_parameter_entity:
            declared.add(name)

    def not_standalone() -> int:
        start_element = parser.StartElementHandler

        def checked_start_element(name: str, attributes: Dict[str, str]) -> None:
            if attributes:
                tag = _START_TAG.match(parser.GetInputContext() or b"")
                for reference in _ENTITY_REFERENCE.findall(tag.group() if tag else b""):
                    entity = reference.decode("utf-8", "replace")
                    if entity not in _PREDEFINED_ENTITIES and entity not in declared:
                        raise _undefined_entity(parser, entity)
            start_element(name, attributes)

        parser.StartElementHandler = checked_start_element
        return 1

    parser.SkippedEntityHandler = skipped_entity
    parser.EntityDeclHandler = entity_declared
    parser.NotStandaloneHandler = not_standalone
    return parser


def _feed(parser: "expat.XMLParserType", blocks: Iterable[Union[bytes, str]]) -> Iterator[None]:
    """Feed ``blocks`` to ``parser``, pausing after each, then end the
    document.  Errors surface as ``ET.ParseError`` with expat's ``code`` and
    ``position``, as ElementTree raises them."""
    try:
        for block in blocks:
            # At most a block at a time, so what expat holds (and what
            # ``GetInputContext`` copies) stays a block's worth.
            for offset in range(0, len(block), _BLOCK_SIZE):
                parser.Parse(block[offset:offset + _BLOCK_SIZE], False)
                yield
        parser.Parse(b"", True)
    except expat.ExpatError as error:
        parse_error = ET.ParseError(str(error))
        parse_error.code, parse_error.position = error.code, (error.lineno, error.offset)
        raise parse_error from error
    yield


def read_blocks(source: Union[str, IO], size: Optional[int] = None) -> Iterator[Union[bytes, str]]:
    """A file's content in blocks: ``source`` is a path, or an open (binary or
    text) file read from its current offset, at most ``size`` bytes when
    given."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            yield from read_blocks(handle, size)
        return
    while size is None or size > 0:
        block = source.read(_BLOCK_SIZE if size is None else min(_BLOCK_SIZE, size))
        if not block:
            return
        if size is not None:
            size -= len(block)
        yield block


def build_xml_record_index(path: str) -> XMLRecordIndex:
    """Index a document's record byte offsets in one streaming expat pass."""
    parser = _parser()
    depth = 0
    root_tag = ""
    content_end = 0
    offsets: List[int] = []
    tags: List[str] = []

    def start_element(name: str, attrs: Dict[str, str]) -> None:
        nonlocal depth, root_tag
        if depth == 0:
            root_tag = _qualified(name)
        elif depth == 1:
            offsets.append(parser.CurrentByteIndex)
            tags.append(_qualified(name))
        depth += 1

    def end_element(name: str) -> None:
        nonlocal depth, content_end
        depth -= 1
        if depth == 0:
            content_end = parser.CurrentByteIndex

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        for _ in _feed(parser, read_blocks(handle)):
            pass
    return XMLRecordIndex(
        root_tag=root_tag,
        offsets=tuple(offsets),
        tags=tuple(tags),
        content_end=content_end,
        size=size,
    )


def iter_xml_records(
    blocks: Iterable[Union[bytes, str]],
    head: Optional[Dict[str, Any]] = None,
    *,
    start: int = 0,
    stop: Optional[int] = None,
    positions: Optional[Mapping[str, int]] = None,
) -> Iterator[Node]:
    """The XML reader: parse ``blocks`` and yield each record as a node.

    With a ``head`` dict the records are the root's element children, and
    ``head`` receives the root's ``tag`` and its attributes as coerced leaf
    ``extras`` ``(name, 0, data)``; the root's text is not kept.  Without
    one, the one record is the root itself: the whole document.

    Only records with sequence numbers in ``[start, stop)`` are built;
    the others are walked without building nodes, and reading ends once
    record ``stop - 1`` is complete.  Record positions count per tag on from
    ``positions`` (a window of a document carries the counts of the records
    before it).  Nodes are created in document preorder — an element, its
    attribute leaves, its ``text`` leaf, its children — so uids increase
    along each record's preorder.
    """
    if stop is not None and stop <= start:
        return
    record_depth = 1 if head is None else 2
    last = math.inf if stop is None else stop
    counts = dict(positions or {})  # record positions per tag
    sequence = depth = 0
    finished: List[Node] = []
    # The open elements being built, innermost last, as [node, text so far
    # (None once a child element opened), the children's per-tag positions].
    stack: List[list] = []

    def start_element(name: str, attributes: Dict[str, str]) -> None:
        nonlocal sequence, depth
        tag = _qualified(name)
        depth += 1
        if stack:
            frame = stack[-1]
            if frame[2] is None:  # the first child ends the parent's text
                text = frame[1].strip()
                if text:
                    frame[0].add_child(Node(TEXT_TAG, 0, _coerce(text)))
                frame[1], frame[2] = None, {}
            pos = frame[2].get(tag, 0)
            frame[2][tag] = pos + 1
            node = frame[0].add_child(Node(tag, pos))
        elif depth == record_depth:
            pos = counts.get(tag, 0)
            counts[tag] = pos + 1
            sequence += 1
            if not start < sequence <= last:
                return
            node = Node(tag, pos)
        else:
            if depth == 1:
                extras = [(_qualified(key), 0, _coerce(value)) for key, value in attributes.items()]
                head.update(tag=tag, extras=extras)
            return
        for key, value in attributes.items():
            node.add_child(Node(_qualified(key), 0, _coerce(value)))
        stack.append([node, "", None])

    def end_element(name: str) -> None:
        nonlocal depth
        depth -= 1
        if not stack:
            return
        node, text, _ = stack.pop()
        text = text and text.strip()
        if text and node.children:
            node.add_child(Node(TEXT_TAG, 0, _coerce(text)))
        elif text:
            node.data = _coerce(text)
        if not stack:
            finished.append(node)

    def character_data(data: str) -> None:
        if stack and stack[-1][1] is not None:
            stack[-1][1] += data

    parser = _parser()
    parser.buffer_text = True
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = character_data
    for _ in _feed(parser, blocks):
        yield from finished
        finished.clear()
        if sequence >= last and not stack:
            return


def xml_to_hdt(text: str) -> HDT:
    """Parse an XML document held in a string into an HDT."""
    (root,) = iter_xml_records([text])
    return HDT(root)


def xml_file_to_hdt(path: str) -> HDT:
    """Parse an XML file into an HDT."""
    (root,) = iter_xml_records(read_blocks(path))
    return HDT(root)


def hdt_to_xml(tree: HDT) -> str:
    """Render an HDT back to an XML string (inverse of :func:`xml_to_hdt`).

    Leaf nodes are rendered as elements with text content; internal nodes as
    nested elements.  This is used by the dataset simulators to materialize
    synthetic XML documents.
    """
    element = _node_to_element(tree.root)
    return ET.tostring(element, encoding="unicode")


def _node_to_element(node: Node) -> ET.Element:
    element = ET.Element(node.tag)
    if node.is_leaf():
        element.text = _render(node.data)
        return element
    for child in node.children:
        if child.is_leaf() and child.tag == TEXT_TAG:
            element.text = _render(child.data)
        else:
            element.append(_node_to_element(child))
    return element


def _render(value: Scalar) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _coerce(value: str) -> Scalar:
    """Convert a string to int/float when it is purely numeric."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
