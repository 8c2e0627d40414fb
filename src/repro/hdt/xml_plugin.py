"""XML plug-in: convert XML documents to hierarchical data trees and back.

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

Positions are assigned per (parent, tag): the i-th child of a parent with a
given tag gets ``pos = i``.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union
from xml.parsers import expat

from .node import Node, Scalar
from .tree import HDT

TEXT_TAG = "text"


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


def build_xml_record_index(path: str) -> XMLRecordIndex:
    """Index a document's record byte offsets in one streaming expat pass.

    Malformed XML raises :class:`xml.etree.ElementTree.ParseError` with
    expat's ``code`` and ``position``, as an ElementTree parse would.
    """
    parser = expat.ParserCreate(namespace_separator="}")
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
        try:
            parser.ParseFile(handle)
        except expat.ExpatError as error:
            parse_error = ET.ParseError(str(error))
            parse_error.code = error.code
            parse_error.position = (error.lineno, error.offset)
            raise parse_error from error
    return XMLRecordIndex(
        root_tag=root_tag,
        offsets=tuple(offsets),
        tags=tuple(tags),
        content_end=content_end,
        size=size,
    )


def xml_to_hdt(source: Union[str, ET.Element], *, coerce_numbers: bool = True) -> HDT:
    """Parse an XML document (string or ElementTree element) into an HDT.

    Parameters
    ----------
    source:
        Either an XML string or an already-parsed ``xml.etree`` element.
    coerce_numbers:
        When true, attribute values and text content that look like integers
        or floats are stored as numbers so that predicates such as
        ``id < 20`` (Example 3 of the paper) behave as expected.
    """
    element = ET.fromstring(source) if isinstance(source, str) else source
    root = _convert_element(element, pos=0, coerce=coerce_numbers)
    return HDT(root)


def xml_file_to_hdt(path: str, *, coerce_numbers: bool = True) -> HDT:
    """Parse an XML file into an HDT."""
    tree = ET.parse(path)
    return xml_to_hdt(tree.getroot(), coerce_numbers=coerce_numbers)


def element_to_node(element: ET.Element, pos: int = 0) -> Node:
    """Convert a single parsed XML element into a standalone HDT node.

    This is the record-level entry point used by the streaming runtime
    (:mod:`repro.runtime.streaming`), which parses documents incrementally
    with a pull parser and converts one record subtree at a time.  Numbers
    are coerced, as :func:`xml_to_hdt` does by default.
    """
    return _convert_element(element, pos=pos, coerce=True)


def _convert_element(element: ET.Element, pos: int, coerce: bool) -> Node:
    text = (element.text or "").strip()
    has_children = len(element) > 0
    has_attrs = len(element.attrib) > 0

    if text and not has_children and not has_attrs:
        # Pure text element -> leaf node carrying the text directly.
        return Node(element.tag, pos, _coerce(text) if coerce else text)

    node = Node(element.tag, pos, None)
    for name, value in element.attrib.items():
        node.add_child(Node(name, 0, _coerce(value) if coerce else value))
    if text:
        node.add_child(Node(TEXT_TAG, 0, _coerce(text) if coerce else text))

    tag_counts: Dict[str, int] = {}
    for child in element:
        child_pos = tag_counts.get(child.tag, 0)
        tag_counts[child.tag] = child_pos + 1
        node.add_child(_convert_element(child, child_pos, coerce))
    return node


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
