"""The ElementTree XML conversion the expat reader replaced, kept as a test oracle.

An ``ET.XMLPullParser`` walk yields each record element (a direct child of
the root) with its per-tag position; ``_convert_element`` turns an element
into nodes; the root's attributes ride along in every chunk as coerced leaf
extras.  A whole-tree read converts the root element itself.  The code is
the library's as it stood before the one-reader rewrite, so the reader is
compared with an independent implementation rather than with itself.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.hdt.node import Node, Scalar
from repro.hdt.tree import HDT

TEXT_TAG = "text"

_BLOCK_SIZE = 16 * 1024


def xml_to_hdt(source: Union[str, ET.Element], *, coerce_numbers: bool = True) -> HDT:
    element = ET.fromstring(source) if isinstance(source, str) else source
    root = _convert_element(element, pos=0, coerce=coerce_numbers)
    return HDT(root)


def xml_file_to_hdt(path: str, *, coerce_numbers: bool = True) -> HDT:
    tree = ET.parse(path)
    return xml_to_hdt(tree.getroot(), coerce_numbers=coerce_numbers)


def element_to_node(element: ET.Element, pos: int = 0) -> Node:
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


def _file_blocks(path: str) -> Iterator[bytes]:
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_BLOCK_SIZE)
            if not block:
                return
            yield block


def _xml_records(
    blocks: Iterable[Union[bytes, str]],
    head: Dict[str, Any],
    tag_positions: Optional[Dict[str, int]] = None,
) -> Iterator[Tuple[ET.Element, int]]:
    parser = ET.XMLPullParser(events=("start", "end"))
    counts = dict(tag_positions or {})
    depth = 0
    document_root: Optional[ET.Element] = None
    for block in chain(blocks, [None]):
        if block is None:
            parser.close()
        else:
            parser.feed(block)
        for event, element in parser.read_events():
            if event == "start":
                depth += 1
                if document_root is None:
                    document_root = element
                    head.update(tag=element.tag, attrib=element.attrib)
                continue
            depth -= 1
            if depth == 1:
                pos = counts.get(element.tag, 0)
                counts[element.tag] = pos + 1
                yield element, pos
                element.clear()
                document_root.remove(element)


def read_records(path: str) -> Tuple[str, List[Tuple[str, int, Scalar]], List[Node]]:
    """A document's root tag, its root extras and all its records, as nodes."""
    head: Dict[str, Any] = {}
    records = [element_to_node(element, pos) for element, pos in _xml_records(_file_blocks(path), head)]
    extras = [(name, 0, _coerce(value)) for name, value in head["attrib"].items()]
    return head["tag"], extras, records
