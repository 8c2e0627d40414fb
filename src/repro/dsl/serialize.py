"""Lossless JSON serialization of DSL programs, key rules and schemas.

The paper's economic argument is "learn once, run on the full dataset": the
synthesized program is the durable artifact, not the synthesis run.  This
module gives every artifact the runtime needs a stable JSON wire format:

* column/table/node extractors and predicates (the full AST of Figure 6),
* :class:`~repro.dsl.ast.Program`,
* :class:`~repro.migration.keys.LinkRule` / ``ForeignKeyRule``,
* :class:`~repro.relational.schema.ColumnDef` / ``ForeignKey`` /
  ``TableSchema`` / ``DatabaseSchema``.

Every ``*_to_json`` function returns plain JSON-compatible values (dicts,
lists, scalars) and every ``*_from_json`` function reconstructs an object that
is ``==`` to the original (the AST dataclasses are frozen, so equality is
structural).  Each composite payload carries a ``"kind"`` discriminator so
that payloads are self-describing and future constructs can be added without
breaking old plans.

The round-trip property — ``x == from_json(to_json(x))`` — is enforced for
every construct by ``tests/test_serialize.py``.
"""

from __future__ import annotations

from typing import Any

from ..hdt.node import Scalar
from ..relational.schema import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from .ast import (
    And,
    Child,
    Children,
    ColumnExtractor,
    CompareConst,
    CompareNodes,
    Descendants,
    False_,
    NodeExtractor,
    NodeVar,
    Not,
    Op,
    Or,
    Parent,
    PChildren,
    Predicate,
    Program,
    TableExtractor,
    True_,
    Var,
)

Json = Any

FORMAT_VERSION = 1
"""Bumped whenever the wire format changes incompatibly."""


class SerializationError(Exception):
    """Raised when a payload cannot be (de)serialized."""


# --------------------------------------------------------------------------- #
# Scalars
# --------------------------------------------------------------------------- #

# JSON has no separate int/float/bool distinction problem, but booleans are a
# subtype of int in Python and ``json`` preserves all four scalar shapes, so
# data constants round-trip as-is.


def _check_scalar(value: Scalar, context: str) -> Scalar:
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise SerializationError(f"non-scalar constant {value!r} in {context}")
    return value


# --------------------------------------------------------------------------- #
# Column extractors
# --------------------------------------------------------------------------- #


def column_to_json(extractor: ColumnExtractor) -> Json:
    if isinstance(extractor, Var):
        return {"kind": "var"}
    if isinstance(extractor, Children):
        return {"kind": "children", "source": column_to_json(extractor.source), "tag": extractor.tag}
    if isinstance(extractor, PChildren):
        return {
            "kind": "pchildren",
            "source": column_to_json(extractor.source),
            "tag": extractor.tag,
            "pos": extractor.pos,
        }
    if isinstance(extractor, Descendants):
        return {
            "kind": "descendants",
            "source": column_to_json(extractor.source),
            "tag": extractor.tag,
        }
    raise SerializationError(f"unknown column extractor: {extractor!r}")


def column_from_json(payload: Json) -> ColumnExtractor:
    kind = _kind(payload, "column extractor")
    if kind == "var":
        return Var()
    if kind == "children":
        return Children(column_from_json(payload["source"]), payload["tag"])
    if kind == "pchildren":
        return PChildren(column_from_json(payload["source"]), payload["tag"], payload["pos"])
    if kind == "descendants":
        return Descendants(column_from_json(payload["source"]), payload["tag"])
    raise SerializationError(f"unknown column extractor kind {kind!r}")


# --------------------------------------------------------------------------- #
# Node extractors
# --------------------------------------------------------------------------- #


def node_extractor_to_json(extractor: NodeExtractor) -> Json:
    if isinstance(extractor, NodeVar):
        return {"kind": "node_var"}
    if isinstance(extractor, Parent):
        return {"kind": "parent", "source": node_extractor_to_json(extractor.source)}
    if isinstance(extractor, Child):
        return {
            "kind": "child",
            "source": node_extractor_to_json(extractor.source),
            "tag": extractor.tag,
            "pos": extractor.pos,
        }
    raise SerializationError(f"unknown node extractor: {extractor!r}")


def node_extractor_from_json(payload: Json) -> NodeExtractor:
    kind = _kind(payload, "node extractor")
    if kind == "node_var":
        return NodeVar()
    if kind == "parent":
        return Parent(node_extractor_from_json(payload["source"]))
    if kind == "child":
        return Child(node_extractor_from_json(payload["source"]), payload["tag"], payload["pos"])
    raise SerializationError(f"unknown node extractor kind {kind!r}")


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #


def predicate_to_json(predicate: Predicate) -> Json:
    if isinstance(predicate, True_):
        return {"kind": "true"}
    if isinstance(predicate, False_):
        return {"kind": "false"}
    if isinstance(predicate, CompareConst):
        return {
            "kind": "compare_const",
            "extractor": node_extractor_to_json(predicate.extractor),
            "column": predicate.column,
            "op": predicate.op.value,
            # Booleans are ints in Python; tag the constant's shape explicitly
            # so True/1 and 1/1.0 survive the trip bit-for-bit.
            "constant": _constant_to_json(predicate.constant),
        }
    if isinstance(predicate, CompareNodes):
        return {
            "kind": "compare_nodes",
            "left_extractor": node_extractor_to_json(predicate.left_extractor),
            "left_column": predicate.left_column,
            "op": predicate.op.value,
            "right_extractor": node_extractor_to_json(predicate.right_extractor),
            "right_column": predicate.right_column,
        }
    if isinstance(predicate, And):
        return {
            "kind": "and",
            "left": predicate_to_json(predicate.left),
            "right": predicate_to_json(predicate.right),
        }
    if isinstance(predicate, Or):
        return {
            "kind": "or",
            "left": predicate_to_json(predicate.left),
            "right": predicate_to_json(predicate.right),
        }
    if isinstance(predicate, Not):
        return {"kind": "not", "operand": predicate_to_json(predicate.operand)}
    raise SerializationError(f"unknown predicate: {predicate!r}")


def predicate_from_json(payload: Json) -> Predicate:
    kind = _kind(payload, "predicate")
    if kind == "true":
        return True_()
    if kind == "false":
        return False_()
    if kind == "compare_const":
        return CompareConst(
            extractor=node_extractor_from_json(payload["extractor"]),
            column=payload["column"],
            op=_op_from_json(payload["op"]),
            constant=_constant_from_json(payload["constant"]),
        )
    if kind == "compare_nodes":
        return CompareNodes(
            left_extractor=node_extractor_from_json(payload["left_extractor"]),
            left_column=payload["left_column"],
            op=_op_from_json(payload["op"]),
            right_extractor=node_extractor_from_json(payload["right_extractor"]),
            right_column=payload["right_column"],
        )
    if kind == "and":
        return And(predicate_from_json(payload["left"]), predicate_from_json(payload["right"]))
    if kind == "or":
        return Or(predicate_from_json(payload["left"]), predicate_from_json(payload["right"]))
    if kind == "not":
        return Not(predicate_from_json(payload["operand"]))
    raise SerializationError(f"unknown predicate kind {kind!r}")


def _constant_to_json(value: Scalar) -> Json:
    _check_scalar(value, "predicate constant")
    if isinstance(value, bool):
        return {"type": "bool", "value": value}
    if isinstance(value, float):
        return {"type": "float", "value": value}
    if isinstance(value, int):
        return {"type": "int", "value": value}
    return value  # str or None


def _constant_from_json(payload: Json) -> Scalar:
    if isinstance(payload, dict):
        kind = payload.get("type")
        if kind == "bool":
            return bool(payload["value"])
        if kind == "float":
            return float(payload["value"])
        if kind == "int":
            return int(payload["value"])
        raise SerializationError(f"unknown constant type {kind!r}")
    return _check_scalar(payload, "a serialized constant")


def scalar_to_json(value: Scalar) -> Json:
    """Shape-preserving scalar encoding (public twin of the constant codec).

    Booleans are ints in Python and ``json`` would happily collapse ``True``
    vs ``1`` vs ``1.0`` distinctions on the reader side; the tagged encoding
    keeps every scalar shape bit-for-bit.  Used wherever artifacts carry raw
    document values — predicate constants here, synthesis-context value
    classes and column caches in :mod:`repro.synthesis.serialize`.

    Examples
    --------
    >>> scalar_from_json(scalar_to_json(True)), scalar_from_json(scalar_to_json(1))
    (True, 1)
    """
    return _constant_to_json(value)


def scalar_from_json(payload: Json) -> Scalar:
    """Inverse of :func:`scalar_to_json`."""
    return _constant_from_json(payload)


def op_to_json(op: Op) -> str:
    """The stable wire symbol of a comparison operator."""
    return op.value


def op_from_json(symbol: str) -> Op:
    """Inverse of :func:`op_to_json`; raises on unknown symbols."""
    return _op_from_json(symbol)


def _op_from_json(symbol: str) -> Op:
    for op in Op:
        if op.value == symbol:
            return op
    raise SerializationError(f"unknown comparison operator {symbol!r}")


# --------------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------------- #


def program_to_json(program: Program) -> Json:
    return {
        "kind": "program",
        "version": FORMAT_VERSION,
        "columns": [column_to_json(c) for c in program.table.columns],
        "predicate": predicate_to_json(program.predicate),
    }


def program_from_json(payload: Json) -> Program:
    if _kind(payload, "program") != "program":
        raise SerializationError("payload is not a serialized program")
    version = payload.get("version", FORMAT_VERSION)
    if version > FORMAT_VERSION:
        raise SerializationError(
            f"program was serialized with format version {version}, "
            f"this runtime supports up to {FORMAT_VERSION}"
        )
    table = TableExtractor(tuple(column_from_json(c) for c in payload["columns"]))
    return Program(table=table, predicate=predicate_from_json(payload["predicate"]))


# --------------------------------------------------------------------------- #
# Key rules (imported lazily to avoid a dsl -> migration import cycle)
# --------------------------------------------------------------------------- #


def link_rule_to_json(rule) -> Json:
    return {
        "kind": "link_rule",
        "source_column": rule.source_column,
        "extractor": node_extractor_to_json(rule.extractor),
    }


def link_rule_from_json(payload: Json):
    from ..migration.keys import LinkRule

    if _kind(payload, "link rule") != "link_rule":
        raise SerializationError("payload is not a serialized link rule")
    return LinkRule(
        source_column=payload["source_column"],
        extractor=node_extractor_from_json(payload["extractor"]),
    )


def foreign_key_rule_to_json(rule) -> Json:
    return {
        "kind": "foreign_key_rule",
        "column": rule.column,
        "target_table": rule.target_table,
        "links": [link_rule_to_json(link) for link in rule.links],
    }


def foreign_key_rule_from_json(payload: Json):
    from ..migration.keys import ForeignKeyRule

    if _kind(payload, "foreign key rule") != "foreign_key_rule":
        raise SerializationError("payload is not a serialized foreign key rule")
    return ForeignKeyRule(
        column=payload["column"],
        target_table=payload["target_table"],
        links=[link_rule_from_json(link) for link in payload["links"]],
    )


# --------------------------------------------------------------------------- #
# Relational schemas
# --------------------------------------------------------------------------- #


def schema_to_json(schema: DatabaseSchema) -> Json:
    return {
        "kind": "database_schema",
        "name": schema.name,
        "tables": [table_schema_to_json(t) for t in schema.tables],
    }


def schema_from_json(payload: Json) -> DatabaseSchema:
    if _kind(payload, "database schema") != "database_schema":
        raise SerializationError("payload is not a serialized database schema")
    return DatabaseSchema(
        name=payload["name"],
        tables=[table_schema_from_json(t) for t in payload["tables"]],
    )


def table_schema_to_json(table: TableSchema) -> Json:
    return {
        "name": table.name,
        "columns": [
            {"name": c.name, "dtype": c.dtype, "nullable": c.nullable} for c in table.columns
        ],
        "primary_key": table.primary_key,
        "foreign_keys": [
            {"column": fk.column, "target_table": fk.target_table, "target_column": fk.target_column}
            for fk in table.foreign_keys
        ],
        "natural_keys": table.natural_keys,
    }


def table_schema_from_json(payload: Json) -> TableSchema:
    return TableSchema(
        name=payload["name"],
        columns=[
            ColumnDef(name=c["name"], dtype=c["dtype"], nullable=c["nullable"])
            for c in payload["columns"]
        ],
        primary_key=payload.get("primary_key"),
        foreign_keys=[
            ForeignKey(fk["column"], fk["target_table"], fk["target_column"])
            for fk in payload.get("foreign_keys", [])
        ],
        natural_keys=payload.get("natural_keys", False),
    )


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _kind(payload: Json, context: str) -> str:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SerializationError(f"malformed {context} payload: {payload!r}")
    return payload["kind"]
