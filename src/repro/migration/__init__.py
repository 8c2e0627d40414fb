"""Whole-database migration: per-table synthesis plus key generation."""

from .engine import (
    MigrationEngine,
    MigrationError,
    MigrationSpec,
    TableExampleSpec,
    TableProgram,
    consumed_projection,
    iter_generate_table_rows,
)
from .keys import ForeignKeyRule, LinkRule, key_of, learn_link_rules, path_extractor

__all__ = [
    "MigrationEngine",
    "MigrationError",
    "MigrationSpec",
    "TableExampleSpec",
    "TableProgram",
    "consumed_projection",
    "iter_generate_table_rows",
    "ForeignKeyRule",
    "LinkRule",
    "key_of",
    "learn_link_rules",
    "path_extractor",
]
