"""Tests for the hierarchical data tree substrate and the XML/JSON plug-ins."""

import pytest

from repro.hdt import (
    HDT,
    Node,
    build_tree,
    hdt_to_json,
    hdt_to_json_string,
    hdt_to_xml,
    json_to_hdt,
    xml_to_hdt,
)


# --------------------------------------------------------------------------- #
# Node
# --------------------------------------------------------------------------- #


def test_node_add_child_sets_parent():
    parent = Node("a")
    child = parent.new_child("b", 0, "x")
    assert child.parent is parent
    assert parent.children == [child]


def test_node_is_leaf():
    node = Node("a", 0, "data")
    assert node.is_leaf()
    node.new_child("b")
    assert not node.is_leaf()


def test_node_children_with_tag_preserves_order():
    parent = Node("p")
    first = parent.new_child("x", 0)
    parent.new_child("y", 0)
    second = parent.new_child("x", 1)
    assert parent.children_with_tag("x") == [first, second]


def test_node_child_with_tag_and_pos():
    parent = Node("p")
    parent.new_child("x", 0, "a")
    target = parent.new_child("x", 1, "b")
    assert parent.child_with("x", 1) is target
    assert parent.child_with("x", 5) is None
    assert parent.child_with("z", 0) is None


def test_node_descendants_document_order():
    root = Node("r")
    a = root.new_child("a")
    b = a.new_child("b")
    c = root.new_child("c")
    assert list(root.descendants()) == [a, b, c]


def test_node_ancestors_and_depth():
    root = Node("r")
    a = root.new_child("a")
    b = a.new_child("b")
    assert list(b.ancestors()) == [a, root]
    assert b.depth() == 2
    assert root.depth() == 0


def test_node_path_from_root():
    root = Node("r")
    a = root.new_child("a")
    b = a.new_child("b")
    assert b.path_from_root() == [root, a, b]


def test_node_identity_equality_and_hash():
    a = Node("same", 0, "same")
    b = Node("same", 0, "same")
    assert a != b
    assert a == a
    assert len({a, b}) == 2


def test_node_uids_unique():
    nodes = [Node("n") for _ in range(50)]
    assert len({n.uid for n in nodes}) == 50


# --------------------------------------------------------------------------- #
# HDT
# --------------------------------------------------------------------------- #


@pytest.fixture
def small_tree():
    return build_tree(
        {"person": [{"name": "Ann", "age": 31}, {"name": "Bob", "age": 25}]},
        tag="people",
    )


def test_tree_size_and_counts(small_tree):
    assert small_tree.size() == 7  # root + 2 persons + 4 leaves
    assert small_tree.element_count() == 3
    assert small_tree.leaf_count() == 4


def test_tree_height(small_tree):
    assert small_tree.height() == 2


def test_tree_tags_first_seen_order(small_tree):
    assert small_tree.tags() == ["people", "person", "name", "age"]


def test_tree_positions_for_tag(small_tree):
    assert small_tree.positions_for_tag("person") == [0, 1]
    assert small_tree.positions_for_tag("name") == [0]


def test_tree_constants(small_tree):
    assert set(small_tree.constants()) == {"Ann", 31, "Bob", 25}


def test_tree_find_all_and_first(small_tree):
    assert len(small_tree.find_all("person")) == 2
    assert small_tree.find_first("name").data == "Ann"
    assert small_tree.find_first("missing") is None


def test_tree_node_by_uid(small_tree):
    node = small_tree.find_first("age")
    assert small_tree.node_by_uid(node.uid) is node


def test_tree_pretty_contains_labels(small_tree):
    text = small_tree.pretty()
    assert "people" in text and "name[0]='Ann'" in text


def test_build_tree_list_positions():
    tree = build_tree({"k": [1, 2, 3]})
    nodes = tree.root.children_with_tag("k")
    assert [(n.pos, n.data) for n in nodes] == [(0, 1), (1, 2), (2, 3)]


# --------------------------------------------------------------------------- #
# XML plug-in
# --------------------------------------------------------------------------- #


def test_xml_pure_text_element_becomes_leaf():
    tree = xml_to_hdt("<r><name>Alice</name></r>")
    name = tree.find_first("name")
    assert name.is_leaf() and name.data == "Alice"


def test_xml_attributes_become_children():
    tree = xml_to_hdt('<r><person id="7"><name>A</name></person></r>')
    person = tree.find_first("person")
    id_node = person.child_with("id", 0)
    assert id_node is not None and id_node.data == 7


def test_xml_mixed_text_becomes_text_child():
    tree = xml_to_hdt('<r><obj id="1">hello<sub>x</sub></obj></r>')
    obj = tree.find_first("obj")
    text = obj.child_with("text", 0)
    assert text is not None and text.data == "hello"


def test_xml_positions_per_tag():
    tree = xml_to_hdt("<r><a>1</a><b>2</b><a>3</a></r>")
    a_nodes = tree.root.children_with_tag("a")
    assert [n.pos for n in a_nodes] == [0, 1]
    assert tree.root.children_with_tag("b")[0].pos == 0


def test_xml_numeric_coercion():
    coerced = xml_to_hdt("<r><v>42</v><w>4.5</w><s>4a</s></r>")
    assert coerced.find_first("v").data == 42
    assert coerced.find_first("w").data == 4.5
    assert coerced.find_first("s").data == "4a"


def test_xml_roundtrip_structure():
    xml = "<catalog><item><sku>a1</sku><price>10</price></item></catalog>"
    tree = xml_to_hdt(xml)
    rendered = hdt_to_xml(tree)
    again = xml_to_hdt(rendered)
    assert again.find_first("sku").data == "a1"
    assert again.find_first("price").data == 10


# --------------------------------------------------------------------------- #
# JSON plug-in
# --------------------------------------------------------------------------- #


def test_json_scalars_become_leaves():
    tree = json_to_hdt({"name": "Ann", "age": 31})
    assert tree.find_first("name").data == "Ann"
    assert tree.find_first("age").data == 31


def test_json_array_flattens_to_positions():
    tree = json_to_hdt({"k": [18, 45, 32]})
    nodes = tree.root.children_with_tag("k")
    assert [(n.pos, n.data) for n in nodes] == [(0, 18), (1, 45), (2, 32)]


def test_json_nested_objects():
    tree = json_to_hdt({"a": {"b": {"c": 1}}})
    assert tree.find_first("c").data == 1
    assert tree.find_first("a").is_leaf() is False


def test_json_array_of_objects():
    tree = json_to_hdt({"users": [{"n": 1}, {"n": 2}]})
    users = tree.root.children_with_tag("users")
    assert len(users) == 2 and users[1].child_with("n", 0).data == 2


def test_json_top_level_list():
    tree = json_to_hdt([1, 2])
    items = tree.root.children_with_tag("item")
    assert [n.data for n in items] == [1, 2]


def test_json_string_input():
    tree = json_to_hdt('{"x": [true, false]}')
    assert [n.data for n in tree.root.children_with_tag("x")] == [True, False]


def test_json_roundtrip():
    doc = {"users": [{"name": "Ann", "tags": ["a", "b"]}, {"name": "Bob", "tags": ["c", "d"]}]}
    tree = json_to_hdt(doc)
    assert hdt_to_json(tree) == doc
    assert "Ann" in hdt_to_json_string(tree)


def test_json_roundtrip_single_element_array_collapses():
    # A single-element array is indistinguishable from a scalar in the HDT
    # encoding (Section 3), so reconstruction yields the scalar form.
    tree = json_to_hdt({"tags": ["only"]})
    assert hdt_to_json(tree) == {"tags": "only"}
