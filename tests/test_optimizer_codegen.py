"""Tests for the optimizer (cross-product-free execution) and the code generators."""

import pytest

from repro import SynthesisConfig, synthesize
from repro.codegen import (
    compile_loaders,
    compile_program,
    count_program_loc,
    generate_javascript,
    generate_python,
    generate_xslt,
)
from repro.codegen.xslt_gen import column_to_xpath
from repro.dsl import (
    And,
    Children,
    CompareConst,
    CompareNodes,
    Descendants,
    NodeVar,
    Not,
    Op,
    Or,
    Parent,
    PChildren,
    Program,
    TableExtractor,
    True_,
    Var,
    run_program,
)
from repro.hdt import build_tree, json_to_hdt, xml_to_hdt
from repro.optimizer import (
    execute,
    execute_nodes,
    plan,
    push_negations,
    to_cnf_clauses,
)

FAST = SynthesisConfig.fast()


@pytest.fixture
def orders_tree():
    return build_tree(
        {
            "order": [
                {"oid": "o1", "customer": "ann", "item": [{"sku": "a"}, {"sku": "b"}]},
                {"oid": "o2", "customer": "bob", "item": [{"sku": "c"}]},
            ]
        },
        tag="orders",
    )


def _join_program():
    table = TableExtractor(
        (
            Children(Children(Var(), "order"), "oid"),
            Descendants(Var(), "sku"),
        )
    )
    predicate = CompareNodes(Parent(NodeVar()), 0, Op.EQ, Parent(Parent(NodeVar())), 1)
    return Program(table, predicate)


# --------------------------------------------------------------------------- #
# CNF conversion
# --------------------------------------------------------------------------- #


def test_push_negations_de_morgan():
    a = CompareConst(NodeVar(), 0, Op.EQ, 1)
    b = CompareConst(NodeVar(), 0, Op.EQ, 2)
    nnf = push_negations(Not(And(a, b)))
    assert isinstance(nnf, Or)
    assert isinstance(nnf.left, Not) and isinstance(nnf.right, Not)


def test_to_cnf_true_and_false():
    assert to_cnf_clauses(True_()) == []
    assert to_cnf_clauses(Not(True_())) == [[]]


def test_to_cnf_conjunction_splits_clauses():
    a = CompareConst(NodeVar(), 0, Op.EQ, 1)
    b = CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1)
    clauses = to_cnf_clauses(And(a, b))
    assert len(clauses) == 2


def test_to_cnf_distributes_disjunction():
    a = CompareConst(NodeVar(), 0, Op.EQ, 1)
    b = CompareConst(NodeVar(), 1, Op.EQ, 2)
    c = CompareConst(NodeVar(), 0, Op.EQ, 3)
    clauses = to_cnf_clauses(Or(And(a, b), c))
    assert len(clauses) == 2
    for clause in clauses:
        assert c in clause


# --------------------------------------------------------------------------- #
# Optimized execution
# --------------------------------------------------------------------------- #


def test_plan_classifies_join_clause(orders_tree):
    execution = plan(_join_program())
    assert len(execution.joins) == 1
    assert not execution.residual
    assert "hash_joins=1" in execution.describe()


def test_plan_classifies_disjunctive_join_clauses():
    """An OR of EQ node comparisons over one column pair is one hash join;
    a non-EQ literal, a second column pair or a self-comparison keeps the
    clause residual."""
    from repro.dsl import Child

    def compare(left, right, op=Op.EQ, tag="a"):
        return CompareNodes(Child(Parent(NodeVar()), tag, 0), left, op, NodeVar(), right)

    def program(predicate):
        return Program(TableExtractor(tuple(Descendants(Var(), "a") for _ in range(3))), predicate)

    joined = plan(program(Or(compare(0, 1), compare(1, 0, tag="b"))))
    assert [len(join) for join in joined.joins] == [2] and not joined.residual
    assert "disjunctive_joins=1" in joined.describe()
    for predicate in (
        Or(compare(0, 1), compare(0, 1, op=Op.NE)),
        Or(compare(0, 1), compare(0, 2)),
        Or(compare(0, 1), compare(1, 1)),
    ):
        residual = plan(program(predicate))
        assert not residual.joins and len(residual.residual) == 1


def test_execute_matches_naive_semantics(orders_tree):
    program = _join_program()
    assert set(execute(program, orders_tree)) == set(run_program(program, orders_tree))
    assert set(execute(program, orders_tree)) == {("o1", "a"), ("o1", "b"), ("o2", "c")}


def test_execute_nodes_returns_nodes(orders_tree):
    rows = execute_nodes(_join_program(), orders_tree)
    assert all(len(row) == 2 for row in rows)
    assert all(hasattr(node, "uid") for row in rows for node in row)


def test_execute_with_constant_pushdown(orders_tree):
    table = TableExtractor((Children(Children(Var(), "order"), "oid"),))
    predicate = CompareConst(NodeVar(), 0, Op.EQ, "o1")
    program = Program(table, predicate)
    assert execute(program, orders_tree) == [("o1",)]


def test_execute_true_predicate_is_cross_product(orders_tree):
    table = TableExtractor(
        (Children(Children(Var(), "order"), "oid"), Descendants(Var(), "sku"))
    )
    program = Program(table, True_())
    assert len(execute(program, orders_tree)) == 2 * 3


@pytest.mark.parametrize(
    "doc,rows",
    [
        ({"users": [{"name": "a", "age": 1}, {"name": "b", "age": 2}]}, [("a", 1), ("b", 2)]),
        (
            {"team": [{"name": "x", "member": [{"id": 1}, {"id": 2}]}]},
            [("x", 1), ("x", 2)],
        ),
    ],
)
def test_optimizer_agrees_with_naive_on_synthesized_programs(doc, rows):
    tree = json_to_hdt(doc)
    result = synthesize([(tree, rows)], config=FAST)
    assert result.success
    assert set(execute(result.program, tree)) == set(run_program(result.program, tree))


# --------------------------------------------------------------------------- #
# Code generation
# --------------------------------------------------------------------------- #


def test_generated_python_matches_semantics(orders_tree):
    program = _join_program()
    transform = compile_program(program)
    loaders = compile_loaders()
    # Execute the generated program against the generated loader's own node type.
    xml = "<orders>" + "".join(
        f"<order><oid>{o}</oid><customer>{c}</customer>" + "".join(f"<item><sku>{s}</sku></item>" for s in skus) + "</order>"
        for o, c, skus in [("o1", "ann", ["a", "b"]), ("o2", "bob", ["c"])]
    ) + "</orders>"
    root = loaders["load_xml"](xml)
    produced = {tuple(row) for row in transform(root)}
    assert produced == {("o1", "a"), ("o1", "b"), ("o2", "c")}


def test_generated_python_json_loader_roundtrip():
    doc = {"users": [{"name": "ann", "age": 31}, {"name": "bob", "age": 25}]}
    tree = json_to_hdt(doc)
    result = synthesize([(tree, [("ann", 31), ("bob", 25)])], config=FAST)
    transform = compile_program(result.program)
    loaders = compile_loaders()
    produced = {tuple(r) for r in transform(loaders["load_json"](doc))}
    assert produced == {("ann", 31), ("bob", 25)}


def test_generate_python_contains_markers():
    source = generate_python(_join_program())
    assert "BEGIN SYNTHESIZED PROGRAM" in source
    assert "def transform(root):" in source
    assert count_program_loc(source) > 0


def test_generate_xslt_structure():
    xslt = generate_xslt(_join_program())
    assert xslt.count("<xsl:for-each") == 2
    assert "<xsl:if" in xslt and "stylesheet" in xslt
    assert count_program_loc(xslt) >= 8


def test_generate_javascript_structure():
    js = generate_javascript(_join_program())
    assert "function transform(root)" in js
    transform_section = js.split("BEGIN SYNTHESIZED PROGRAM")[1].split("END SYNTHESIZED PROGRAM")[0]
    assert transform_section.count(".forEach(function (n") == 2
    assert count_program_loc(js) >= 8


def test_column_to_xpath():
    extractor = PChildren(Children(Var(), "order"), "item", 1)
    assert column_to_xpath(extractor) == "/*/order/item[2]"
    assert column_to_xpath(Descendants(Var(), "sku")) == "/*//sku"


def test_count_program_loc_without_markers():
    assert count_program_loc("a = 1\n\n# comment\nb = 2\n") == 2


def test_sql_generation_roundtrip():
    from repro.codegen import create_table_statement, generate_sql_dump, insert_statements
    from repro.relational import ColumnDef, Database, DatabaseSchema, ForeignKey, TableSchema

    schema = DatabaseSchema(
        "shop",
        [
            TableSchema(
                "customer",
                [ColumnDef("id", "integer", nullable=False), ColumnDef("name", "text")],
                primary_key="id",
            ),
            TableSchema(
                "purchase",
                [ColumnDef("customer_id", "integer"), ColumnDef("total", "real")],
                foreign_keys=[ForeignKey("customer_id", "customer", "id")],
            ),
        ],
    )
    database = Database(schema)
    database.insert("customer", (1, "Ann"))
    database.insert("purchase", (1, 9.5))
    ddl = create_table_statement(schema.table("customer"))
    assert "PRIMARY KEY" in ddl
    dml = insert_statements(database.table("purchase"))
    assert dml and "INSERT INTO" in dml[0]
    dump = generate_sql_dump(database)
    assert "FOREIGN KEY" in dump and "'Ann'" in dump and dump.strip().endswith("COMMIT;")
