"""End-to-end synthesis tests: the paper's worked examples plus variations."""

import pytest

from repro import ExamplePair, SynthesisConfig, SynthesisTask, Synthesizer, synthesize
from repro.dsl import pretty_program, run_program
from repro.hdt import build_tree, json_to_hdt, xml_to_hdt
from repro.synthesis import BaselineSynthesizer
from repro.synthesis.predicate_learner import check_program, row_in_table, rows_equal

FAST = SynthesisConfig.fast()


MOTIVATING_XML = """
<root>
  <Person id="1"><name>Alice</name>
    <Friendship><Friend><fid>2</fid><years>3</years></Friend><Friend><fid>3</fid><years>5</years></Friend></Friendship>
  </Person>
  <Person id="2"><name>Bob</name>
    <Friendship><Friend><fid>1</fid><years>3</years></Friend></Friendship>
  </Person>
  <Person id="3"><name>Carol</name>
    <Friendship><Friend><fid>1</fid><years>5</years></Friend></Friendship>
  </Person>
</root>
"""
MOTIVATING_ROWS = [
    ("Alice", "Bob", 3),
    ("Alice", "Carol", 5),
    ("Bob", "Alice", 3),
    ("Carol", "Alice", 5),
]


def test_motivating_example_synthesizes():
    """Section 2: the social-network friendship table."""
    tree = xml_to_hdt(MOTIVATING_XML)
    result = synthesize([(tree, MOTIVATING_ROWS)], name="motivating")
    assert result.success
    produced = set(run_program(result.program, tree))
    assert produced == set(MOTIVATING_ROWS)
    # the paper's solution uses a handful of structural predicates
    assert 1 <= result.num_atomic_predicates <= 6


def test_example3_filter_with_constant():
    """Example 3 / Figure 8: nested objects filtered by id < 20."""
    xml = """
    <root>
      <object id="10"><text>parent-a</text>
        <object id="30"><text>child-a1</text></object>
        <object id="11"><text>child-a2</text></object>
      </object>
      <object id="25"><text>parent-b</text>
        <object id="12"><text>child-b1</text></object>
      </object>
      <object id="13"><text>parent-c</text>
        <object id="40"><text>child-c1</text></object>
      </object>
    </root>
    """
    tree = xml_to_hdt(xml)
    rows = [("parent-a", "child-a1"), ("parent-a", "child-a2"), ("parent-c", "child-c1")]
    result = synthesize([(tree, rows)], name="example3")
    assert result.success
    assert set(run_program(result.program, tree)) == set(rows)
    assert result.num_atomic_predicates <= 3


def test_single_column_no_filter_needed():
    tree = json_to_hdt({"users": [{"name": "ann"}, {"name": "bob"}]})
    result = synthesize([(tree, [("ann",), ("bob",)])], config=FAST)
    assert result.success
    assert result.num_atomic_predicates == 0


def test_two_column_join_json():
    doc = {"users": [{"name": "ann", "age": 31}, {"name": "bob", "age": 25}]}
    tree = json_to_hdt(doc)
    result = synthesize([(tree, [("ann", 31), ("bob", 25)])], config=FAST)
    assert result.success
    assert set(run_program(result.program, tree)) == {("ann", 31), ("bob", 25)}


def test_nested_join_parent_child():
    doc = {
        "order": [
            {"oid": "o1", "item": [{"sku": "a"}, {"sku": "b"}]},
            {"oid": "o2", "item": [{"sku": "c"}]},
        ]
    }
    tree = build_tree(doc, tag="orders")
    rows = [("o1", "a"), ("o1", "b"), ("o2", "c")]
    result = synthesize([(tree, rows)], config=FAST)
    assert result.success
    assert set(run_program(result.program, tree)) == set(rows)


def test_multiple_examples_constrain_generalization():
    tree1 = json_to_hdt({"emp": [{"name": "a", "dept": "x"}, {"name": "b", "dept": "y"}]})
    tree2 = json_to_hdt({"emp": [{"name": "c", "dept": "z"}]})
    task = SynthesisTask(
        examples=[
            ExamplePair(tree1, [("a", "x"), ("b", "y")]),
            ExamplePair(tree2, [("c", "z")]),
        ]
    )
    result = Synthesizer(FAST).synthesize(task)
    assert result.success
    assert set(run_program(result.program, tree2)) == {("c", "z")}


def test_unsatisfiable_output_value_fails_gracefully():
    tree = json_to_hdt({"a": [{"b": 1}]})
    result = synthesize([(tree, [("no-such-value",)])], config=FAST)
    assert not result.success
    assert result.message


def test_union_column_task_is_unsolvable():
    """One output column mixing two unrelated tags is outside the DSL."""
    tree = build_tree(
        {"book": [{"title": "t1"}], "magazine": [{"name": "m1"}]}, tag="shelf"
    )
    result = synthesize([(tree, [("t1",), ("m1",)])], config=FAST)
    assert not result.success


def test_empty_output_rows_rejected():
    tree = json_to_hdt({"a": [{"b": 1}]})
    result = synthesize([(tree, [])], config=FAST)
    assert not result.success


def test_result_describe_and_stats():
    tree = json_to_hdt({"users": [{"name": "ann"}, {"name": "bob"}]})
    result = synthesize([(tree, [("ann",), ("bob",)])], config=FAST)
    assert "filter" in result.describe()
    assert result.synthesis_time > 0
    assert result.candidates_tried >= 1
    assert result.column_candidates and result.column_candidates[0] >= 1


def test_generated_program_is_checkable():
    tree = json_to_hdt({"users": [{"name": "ann", "age": 3}, {"name": "bob", "age": 4}]})
    rows = [("ann", 3), ("bob", 4)]
    result = synthesize([(tree, rows)], config=FAST)
    assert check_program(result.program, [(tree, rows)])


def test_row_helpers():
    assert rows_equal(("a", 3), ("a", 3.0))
    assert not rows_equal(("a",), ("a", "b"))
    assert row_in_table(("a", 3), [("x", 1), ("a", 3)])
    assert not row_in_table(("a", 9), [("a", 3)])


def test_stop_after_first_solution_config():
    tree = json_to_hdt({"users": [{"name": "ann", "age": 31}, {"name": "bob", "age": 25}]})
    config = SynthesisConfig(stop_after_first_solution=True)
    result = Synthesizer(config).synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [("ann", 31), ("bob", 25)])])
    )
    assert result.success


def test_inconsistent_arities_rejected():
    tree = json_to_hdt({"a": [{"b": 1}]})
    with pytest.raises(ValueError):
        SynthesisTask(
            examples=[ExamplePair(tree, [(1,)]), ExamplePair(tree, [(1, 2)])]
        )


# --------------------------------------------------------------------------- #
# Baseline synthesizer (ablation comparator)
# --------------------------------------------------------------------------- #


def test_baseline_single_column_task():
    tree = json_to_hdt({"users": [{"name": "ann"}, {"name": "bob"}]})
    result = BaselineSynthesizer(FAST).synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [("ann",), ("bob",)])])
    )
    assert result.success
    assert set(run_program(result.program, tree)) == {("ann",), ("bob",)}


def test_baseline_is_bounded_on_join_task():
    """The enumerative baseline either solves the join task or gives up within
    its budget — quantifying that gap is exactly the E6 ablation."""
    from dataclasses import replace

    tree = json_to_hdt({"users": [{"name": "ann", "age": 31}, {"name": "bob", "age": 25}]})
    config = replace(SynthesisConfig.fast(), timeout_seconds=2.0)
    result = BaselineSynthesizer(config, max_conjunction=2).synthesize(
        SynthesisTask(examples=[ExamplePair(tree, [("ann", 31), ("bob", 25)])])
    )
    if result.success:
        assert set(run_program(result.program, tree)) == {("ann", 31), ("bob", 25)}
    else:
        assert result.synthesis_time <= config.timeout_seconds + 1


def test_baseline_enumerates_column_extractors():
    from repro.synthesis import enumerate_column_extractors

    tree = json_to_hdt({"a": [{"b": 1}]})
    pool = enumerate_column_extractors(tree, 2)
    sizes = {e.size() for e in pool}
    assert 0 in sizes and 1 in sizes and 2 in sizes
