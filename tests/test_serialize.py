"""Round-trip tests for the JSON serialization of programs, rules and schemas.

Every DSL construct the synthesizer can emit must satisfy
``x == from_json(to_json(x))`` and — for programs — produce identical output
on a sample tree after a trip through an actual JSON string.
"""

import json

import pytest

from repro.dsl import (
    And,
    Child,
    Children,
    CompareConst,
    CompareNodes,
    Descendants,
    False_,
    NodeVar,
    Not,
    Op,
    Or,
    Parent,
    PChildren,
    Program,
    SerializationError,
    TableExtractor,
    True_,
    Var,
    program_from_json,
    program_to_json,
    run_program,
    schema_from_json,
    schema_to_json,
)
from repro.dsl.serialize import (
    column_from_json,
    column_to_json,
    foreign_key_rule_from_json,
    foreign_key_rule_to_json,
    link_rule_from_json,
    link_rule_to_json,
    node_extractor_from_json,
    node_extractor_to_json,
    predicate_from_json,
    predicate_to_json,
)
from repro.hdt import build_tree
from repro.migration import ForeignKeyRule, LinkRule
from repro.relational import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from repro.synthesis import synthesize


# --------------------------------------------------------------------------- #
# Individual constructs
# --------------------------------------------------------------------------- #

COLUMN_EXTRACTORS = [
    Var(),
    Children(Var(), "person"),
    PChildren(Var(), "person", 2),
    Descendants(Var(), "name"),
    Descendants(Children(PChildren(Var(), "a", 0), "b"), "c"),
]


@pytest.mark.parametrize("extractor", COLUMN_EXTRACTORS, ids=repr)
def test_column_extractor_round_trip(extractor):
    payload = json.loads(json.dumps(column_to_json(extractor)))
    assert column_from_json(payload) == extractor


NODE_EXTRACTORS = [
    NodeVar(),
    Parent(NodeVar()),
    Child(NodeVar(), "tag", 3),
    Child(Parent(Parent(NodeVar())), "name", 0),
]


@pytest.mark.parametrize("extractor", NODE_EXTRACTORS, ids=repr)
def test_node_extractor_round_trip(extractor):
    payload = json.loads(json.dumps(node_extractor_to_json(extractor)))
    assert node_extractor_from_json(payload) == extractor


# Fixed case ids: ``hash()`` of these predicates is salted per process, so ids
# derived from it named the cases differently on every run.
PREDICATES = [
    pytest.param(True_(), id="True_187"),
    pytest.param(False_(), id="False_187"),
    pytest.param(CompareConst(NodeVar(), 0, Op.EQ, "Alice"), id="CompareConst7"),
    pytest.param(CompareConst(Parent(NodeVar()), 1, Op.LT, 20), id="CompareConst365"),
    pytest.param(CompareConst(NodeVar(), 0, Op.GE, 3.5), id="CompareConst403"),
    pytest.param(CompareConst(NodeVar(), 0, Op.NE, True), id="CompareConst673"),
    pytest.param(CompareConst(NodeVar(), 0, Op.LE, None), id="CompareConst899"),
    pytest.param(CompareNodes(NodeVar(), 0, Op.EQ, Parent(NodeVar()), 1), id="CompareNodes481"),
    pytest.param(CompareNodes(Child(NodeVar(), "id", 0), 2, Op.GT, NodeVar(), 0), id="CompareNodes861"),
    pytest.param(And(CompareConst(NodeVar(), 0, Op.EQ, "x"), True_()), id="And58"),
    pytest.param(Or(False_(), CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1)), id="Or54"),
    pytest.param(Not(CompareConst(NodeVar(), 0, Op.EQ, 1)), id="Not13"),
    pytest.param(
        And(
            Or(Not(True_()), CompareConst(NodeVar(), 0, Op.GT, 7)),
            CompareNodes(Parent(NodeVar()), 0, Op.EQ, Parent(NodeVar()), 1),
        ),
        id="And856",
    ),
]


@pytest.mark.parametrize("predicate", PREDICATES)
def test_predicate_round_trip(predicate):
    payload = json.loads(json.dumps(predicate_to_json(predicate)))
    assert predicate_from_json(payload) == predicate


@pytest.mark.parametrize("op", list(Op))
def test_every_operator_round_trips(op):
    predicate = CompareConst(NodeVar(), 0, op, 5)
    assert predicate_from_json(predicate_to_json(predicate)) == predicate


def test_constant_types_are_preserved_exactly():
    """True vs 1 vs 1.0 must stay distinct through the wire format."""
    for constant in [True, False, 1, 0, 1.0, 0.0, "1", None]:
        predicate = CompareConst(NodeVar(), 0, Op.EQ, constant)
        restored = predicate_from_json(json.loads(json.dumps(predicate_to_json(predicate))))
        assert restored.constant == constant
        assert type(restored.constant) is type(constant)


# --------------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------------- #


def _sample_program() -> Program:
    table = TableExtractor(
        (
            Descendants(Var(), "name"),
            Children(Descendants(Var(), "person"), "age"),
            PChildren(Var(), "person", 0),
        )
    )
    predicate = And(
        CompareNodes(Parent(NodeVar()), 0, Op.EQ, Parent(NodeVar()), 1),
        Or(
            CompareConst(NodeVar(), 1, Op.GT, 18),
            Not(CompareConst(Child(NodeVar(), "name", 0), 2, Op.EQ, "Bob")),
        ),
    )
    return Program(table=table, predicate=predicate)


def test_program_round_trip_structural():
    program = _sample_program()
    assert program_from_json(json.loads(json.dumps(program_to_json(program)))) == program


def test_program_round_trip_execution_identical():
    tree = build_tree(
        {
            "person": [
                {"name": "Ann", "age": 31},
                {"name": "Bob", "age": 12},
                {"name": "Cid", "age": 45},
            ]
        }
    )
    program = _sample_program()
    restored = program_from_json(program_to_json(program))
    assert run_program(restored, tree) == run_program(program, tree)


def test_synthesized_program_round_trips():
    """A program actually produced by the synthesizer survives the trip."""
    tree = build_tree(
        {
            "person": [
                {"name": "Ann", "age": 31},
                {"name": "Bob", "age": 12},
            ]
        }
    )
    result = synthesize([(tree, [("Ann", 31), ("Bob", 12)])])
    assert result.success
    restored = program_from_json(json.loads(json.dumps(program_to_json(result.program))))
    assert restored == result.program
    assert run_program(restored, tree) == run_program(result.program, tree)


def test_program_version_gate():
    payload = program_to_json(_sample_program())
    payload["version"] = 99
    with pytest.raises(SerializationError):
        program_from_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "no_such_kind"},
        {"not_kind": "var"},
        "just a string",
        {"kind": "program", "columns": [{"kind": "bogus"}], "predicate": {"kind": "true"}},
    ],
)
def test_malformed_payloads_raise(payload):
    with pytest.raises(SerializationError):
        program_from_json(payload if isinstance(payload, dict) and payload.get("kind") == "program" else {"kind": "program", "version": 1, "columns": [], "predicate": payload})


# --------------------------------------------------------------------------- #
# Key rules
# --------------------------------------------------------------------------- #


def test_link_rule_round_trip():
    rule = LinkRule(source_column=2, extractor=Child(Parent(Parent(NodeVar())), "name", 0))
    assert link_rule_from_json(json.loads(json.dumps(link_rule_to_json(rule)))) == rule


def test_foreign_key_rule_round_trip():
    rule = ForeignKeyRule(
        column="author_id",
        target_table="author",
        links=[
            LinkRule(0, Child(Parent(Parent(NodeVar())), "name", 0)),
            LinkRule(0, Child(Parent(Parent(NodeVar())), "country", 0)),
        ],
    )
    restored = foreign_key_rule_from_json(json.loads(json.dumps(foreign_key_rule_to_json(rule))))
    assert restored == rule


# --------------------------------------------------------------------------- #
# Schemas
# --------------------------------------------------------------------------- #


def test_schema_round_trip_with_all_features():
    schema = DatabaseSchema(
        "shop",
        [
            TableSchema(
                "customer",
                [
                    ColumnDef("id", "text", nullable=False),
                    ColumnDef("name", "text"),
                    ColumnDef("age", "integer"),
                    ColumnDef("score", "real"),
                ],
                primary_key="id",
            ),
            TableSchema(
                "order",
                [
                    ColumnDef("order_id", "text", nullable=False),
                    ColumnDef("customer_id", "text"),
                    ColumnDef("total", "real"),
                ],
                primary_key="order_id",
                foreign_keys=[ForeignKey("customer_id", "customer", "id")],
            ),
            TableSchema(
                "tag",
                [ColumnDef("label", "text", nullable=False)],
                primary_key="label",
                natural_keys=True,
            ),
        ],
    )
    restored = schema_from_json(json.loads(json.dumps(schema_to_json(schema))))
    assert restored == schema


def test_schema_rejects_non_schema_payload():
    with pytest.raises(SerializationError):
        schema_from_json({"kind": "program"})
