"""The hierarchical data tree (HDT) container.

An :class:`HDT` wraps a root :class:`~repro.hdt.node.Node` and provides the
whole-tree queries used by the synthesizer: the set of tags, the set of
positions, the set of constants appearing in the document, node lookup by uid,
and a few statistics used by the evaluation harness (element counts mirroring
the "#Elements" column of Table 1 in the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .node import Node, Scalar


class TagIndex:
    """Tag → document-ordered node list, with pre-order subtree intervals.

    Built once per tree (or per streaming chunk) in a single O(n) walk; after
    that, ``Descendants``/``Children`` extractors answer from the index
    instead of re-traversing the document:

    * :meth:`nodes_with_tag` — every node carrying a tag, document order;
    * :meth:`descendants_with_tag` — the tag's nodes inside one subtree,
      found by binary search over pre-order entry numbers (a subtree is a
      contiguous pre-order interval), so the cost is O(log n + answer);
    * :meth:`children_with_tag` — same lookup restricted to depth + 1.

    Node uids are process-unique but *not* document-ordered (cloned chunk
    subtrees create nodes out of order), so the index assigns its own
    pre-order numbering and keeps it in uid-keyed dictionaries rather than on
    the slotted :class:`Node` instances.  Like :meth:`HDT.node_by_uid`, the
    index assumes the tree is not mutated after it is built.
    """

    def __init__(self, root: Node) -> None:
        self._root = root
        self._entry: Dict[int, int] = {}
        self._exit: Dict[int, int] = {}
        self._depth: Dict[int, int] = {}
        self._by_tag: Dict[str, List[Node]] = {}
        self._entries_by_tag: Dict[str, List[int]] = {}
        self._depths_by_tag: Dict[str, List[int]] = {}
        counter = 0
        stack: List[Tuple[Node, int, bool]] = [(root, 0, False)]
        while stack:
            node, depth, done = stack.pop()
            if done:
                self._exit[node.uid] = counter - 1
                continue
            self._entry[node.uid] = counter
            self._depth[node.uid] = depth
            self._by_tag.setdefault(node.tag, []).append(node)
            self._entries_by_tag.setdefault(node.tag, []).append(counter)
            self._depths_by_tag.setdefault(node.tag, []).append(depth)
            counter += 1
            stack.append((node, depth, True))
            for child in reversed(node.children):
                stack.append((child, depth + 1, False))

    def covers(self, node: Node) -> bool:
        """Does this index know the node (i.e. was it in the indexed tree)?"""
        return node.uid in self._entry

    def tags(self) -> List[str]:
        """All distinct tags of the indexed tree, in first-seen document order.

        The index walk is a pre-order traversal, so insertion order of the
        per-tag buckets matches :meth:`HDT.tags`.
        """
        return list(self._by_tag)

    def positions_for_tag(self, tag: str) -> List[int]:
        """Distinct positions used by nodes with the given tag, sorted."""
        return sorted({n.pos for n in self._by_tag.get(tag, ())})

    def nodes_with_tag(self, tag: str) -> List[Node]:
        """All nodes with the tag, in document order (may include the root)."""
        return self._by_tag.get(tag, [])

    def descendants_with_tag(self, node: Node, tag: str) -> List[Node]:
        """Proper descendants of ``node`` with the tag, document order."""
        nodes = self._by_tag.get(tag)
        if not nodes:
            return []
        entries = self._entries_by_tag[tag]
        start = self._entry[node.uid]
        lo = bisect_right(entries, start)
        hi = bisect_right(entries, self._exit[node.uid])
        return nodes[lo:hi]

    def children_with_tag(self, node: Node, tag: str) -> List[Node]:
        """Direct children of ``node`` with the tag, document order.

        Scans whichever candidate set is smaller: the node's child list, or
        the tag's pre-order slice inside the node's subtree (e.g. a root with
        50k children but few ``article`` descendants, or vice versa).
        """
        nodes = self._by_tag.get(tag)
        if not nodes:
            return []
        entries = self._entries_by_tag[tag]
        lo = bisect_right(entries, self._entry[node.uid])
        hi = bisect_right(entries, self._exit[node.uid])
        if hi - lo >= len(node.children):
            return [c for c in node.children if c.tag == tag]
        depths = self._depths_by_tag[tag]
        child_depth = self._depth[node.uid] + 1
        return [
            nodes[i] for i in range(lo, hi) if depths[i] == child_depth
        ]


class HDT:
    """A rooted hierarchical data tree (Definition 1 of the paper)."""

    def __init__(self, root: Node) -> None:
        self.root = root
        self._uid_index: Optional[Dict[int, Node]] = None
        self._tag_index: Optional[TagIndex] = None
        self._fingerprint: Optional[str] = None

    # --------------------------------------------------------------- queries
    def nodes(self) -> Iterator[Node]:
        """All nodes of the tree in document order (root first)."""
        yield self.root
        yield from self.root.descendants()

    def size(self) -> int:
        """Total number of nodes."""
        return self.root.subtree_size()

    def element_count(self) -> int:
        """Number of *elements*, i.e. internal nodes.

        This matches the "#Elements" statistic reported in Table 1 of the
        paper, which counts XML elements / JSON objects rather than leaves.
        """
        return sum(1 for n in self.nodes() if not n.is_leaf())

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for n in self.nodes() if n.is_leaf())

    def height(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""

        def _height(node: Node) -> int:
            if not node.children:
                return 0
            return 1 + max(_height(c) for c in node.children)

        return _height(self.root)

    def tags(self) -> List[str]:
        """All distinct tags appearing in the tree, in first-seen order.

        Answered from the cached :class:`TagIndex`, so repeated calls (the
        synthesizer instantiates the operator alphabet once per example and
        per column) cost one dictionary-keys copy instead of a tree scan.
        """
        return self.tag_index().tags()

    def positions(self) -> List[int]:
        """All distinct positions appearing in the tree, sorted."""
        return sorted({node.pos for node in self.nodes()})

    def positions_for_tag(self, tag: str) -> List[int]:
        """Distinct positions used by nodes with the given tag, sorted.

        Served from the cached :class:`TagIndex` (one bucket scan) rather than
        a full-tree traversal per call.
        """
        return self.tag_index().positions_for_tag(tag)

    def constants(self) -> List[Scalar]:
        """All distinct data values stored at leaves, in first-seen order.

        These are the constants ``c`` that rule (4) of Figure 10 may use when
        building the predicate universe.
        """
        seen: Set[Scalar] = set()
        out: List[Scalar] = []
        for node in self.nodes():
            if node.data is not None and node.data not in seen:
                seen.add(node.data)
                out.append(node.data)
        return out

    def fingerprint_items(self) -> Iterator[str]:
        """A canonical line-per-node rendering of the tree (preorder, identity-free).

        Two trees yield the same item stream iff they are structurally
        identical (same tags, positions, depths and data, in document order)
        — node uids never participate, so the stream is stable across
        processes and re-parses.  Depth is part of each line: preorder alone
        cannot distinguish a child from a following sibling, and two
        differently-nested documents must not collide (they can synthesize to
        different programs).  The item order matches :meth:`nodes`, so item
        ``i`` describes the i-th preorder node.
        """
        stack: List[Tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            data = node.data
            shape = type(data).__name__ if data is not None else "none"
            yield f"{depth}\x00{node.tag}\x00{node.pos}\x00{shape}\x00{data!r}"
            stack.extend((child, depth + 1) for child in reversed(node.children))

    def content_fingerprint(self) -> str:
        """A stable hex digest of the tree's content (see :meth:`fingerprint_items`).

        Used as the content address of every on-disk artifact derived from a
        document: the runtime's spec store
        (:class:`~repro.runtime.context_store.ContextStore`) keys its spec
        snapshots by it.  Cached like the other whole-tree indexes (one
        learn consults it several times); call
        :meth:`invalidate_indexes` after mutating the tree in place.

        Examples
        --------
        >>> a = build_tree({"k": 1})
        >>> b = build_tree({"k": 1})
        >>> a.content_fingerprint() == b.content_fingerprint()
        True
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            for item in self.fingerprint_items():
                digest.update(item.encode("utf-8"))
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def node_by_uid(self, uid: int) -> Node:
        """Look up a node by its unique id (used by the migration engine)."""
        if self._uid_index is None:
            self._uid_index = {n.uid: n for n in self.nodes()}
        return self._uid_index[uid]

    def tag_index(self) -> TagIndex:
        """The tree's :class:`TagIndex`, built lazily on first use.

        Like :meth:`node_by_uid`, the index assumes the tree is no longer
        mutated; call :meth:`invalidate_indexes` after structural changes.
        """
        if self._tag_index is None:
            self._tag_index = TagIndex(self.root)
        return self._tag_index

    def invalidate_indexes(self) -> None:
        """Drop cached indexes after mutating the tree in place."""
        self._uid_index = None
        self._tag_index = None
        self._fingerprint = None

    # ---------------------------------------------------------------- pickling
    def __getstate__(self):
        """Pickle only the tree itself; lazy indexes are rebuilt on demand.

        Keeps the payload shipped to :class:`~concurrent.futures.ProcessPoolExecutor`
        workers (parallel per-table synthesis) small.
        """
        return {"root": self.root}

    def __setstate__(self, state) -> None:
        self.root = state["root"]
        self._uid_index = None
        self._tag_index = None
        self._fingerprint = None

    def find_all(self, tag: str) -> List[Node]:
        """All nodes (including the root) with the given tag, document order."""
        return [n for n in self.nodes() if n.tag == tag]

    def find_first(self, tag: str) -> Optional[Node]:
        """First node with the given tag in document order, or ``None``."""
        for node in self.nodes():
            if node.tag == tag:
                return node
        return None

    # ------------------------------------------------------------- rendering
    def pretty(self, max_nodes: int = 200) -> str:
        """Indented textual rendering of the tree (for debugging and docs)."""
        lines: List[str] = []

        def _render(node: Node, indent: int) -> None:
            if len(lines) >= max_nodes:
                return
            lines.append("  " * indent + node.label())
            for child in node.children:
                _render(child, indent + 1)

        _render(self.root, 0)
        if self.size() > max_nodes:
            lines.append(f"... ({self.size() - max_nodes} more nodes)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HDT(root={self.root.tag!r}, size={self.size()})"


def build_tree(spec, tag: str = "root") -> HDT:
    """Build an HDT from a nested python structure (convenience for tests).

    The ``spec`` mirrors the JSON-to-HDT mapping of the paper: dictionaries
    become internal nodes whose children are the key/value pairs, lists become
    repeated children with increasing ``pos``, and scalars become leaf data.

    Examples
    --------
    >>> tree = build_tree({"person": [{"name": "Ann"}, {"name": "Bob"}]})
    >>> [n.data for n in tree.root.descendants_with_tag("name")]
    ['Ann', 'Bob']
    """
    root = Node(tag, 0, None)
    _attach(root, spec)
    return HDT(root)


def _attach(parent: Node, value) -> None:
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, list):
                for idx, item in enumerate(val):
                    child = parent.new_child(str(key), idx)
                    _fill(child, item)
            else:
                child = parent.new_child(str(key), 0)
                _fill(child, val)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            child = parent.new_child("item", idx)
            _fill(child, item)
    else:
        parent.data = value


def _fill(node: Node, value) -> None:
    if isinstance(value, (dict, list)):
        _attach(node, value)
    else:
        node.data = value
