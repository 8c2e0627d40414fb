"""The spec file: what to learn from and what to run on.

A :class:`Spec` is a parsed JSON spec (``docs/cli.md#spec-files``) plus the
directory its relative paths resolve against.  Both front-ends build one —
the CLI from ``--spec PATH``, the service from a job's inline ``"spec"`` or
``"spec_path"`` — and hand it to :mod:`repro.runtime.run`.  Every mistake a
user can fix (unreadable file, missing key, unknown dataset, ...) raises
:class:`UsageError`: the CLI prints it as ``error: ...`` and exits 1, the
service records it as the job's ``error``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from ..dsl.serialize import schema_from_json
from ..hdt.json_plugin import json_file_to_hdt
from ..hdt.tree import HDT
from ..hdt.xml_plugin import xml_file_to_hdt
from ..migration.engine import MigrationSpec, TableExampleSpec
from .streaming import ShardError, ShardSource, TreeSource, shard_source


class UsageError(Exception):
    """A request the user must fix: bad spec, bad option value, refused target."""


class Spec:
    """A parsed spec file plus the directory its relative paths resolve in."""

    def __init__(self, payload: Dict[str, Any], base_dir: str) -> None:
        self.payload = payload
        self.base_dir = base_dir
        self._bundle = None
        self.default_format: Optional[str] = None
        """Fallback format when the spec omits one — set from a loaded plan's
        ``source_format`` so ``run --plan`` specs need not repeat it."""

    @staticmethod
    def load(path: str) -> "Spec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise UsageError(f"cannot read spec file: {error}")
        except json.JSONDecodeError as error:
            raise UsageError(f"spec file is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise UsageError("spec file must contain a JSON object")
        return Spec(payload, os.path.dirname(os.path.abspath(path)))

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        value = self.get(key, default)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise UsageError(f'spec key "{key}" must be an integer (got {value!r})')

    # ------------------------------------------------------------- datasets
    @property
    def dataset_bundle(self):
        """The built-in dataset bundle when the spec uses demo mode."""
        if self._bundle is None and self.get("dataset"):
            from .. import datasets

            name = str(self.get("dataset")).lower()
            modules = {
                "dblp": datasets.dblp,
                "imdb": datasets.imdb,
                "mondial": datasets.mondial,
                "yelp": datasets.yelp,
            }
            if name not in modules:
                raise UsageError(
                    f"unknown dataset {name!r} (available: {', '.join(sorted(modules))})"
                )
            self._bundle = modules[name].dataset(scale=self.get_int("scale", 5))
        return self._bundle

    @property
    def format(self) -> str:
        if self.dataset_bundle is not None:
            return self.dataset_bundle.format
        fmt = self.get("format") or self.default_format
        if fmt not in {"xml", "json"}:
            raise UsageError('spec key "format" must be "xml" or "json"')
        return fmt

    # ------------------------------------------------------------ migration
    def migration_spec(self) -> MigrationSpec:
        if self.dataset_bundle is not None:
            return self.dataset_bundle.migration_spec()
        for key in ("schema", "example_document", "examples"):
            if not self.get(key):
                raise UsageError(f'spec is missing required key "{key}"')
        schema = schema_from_json(self.get("schema"))
        example_tree = self._load_document(self.resolve(self.get("example_document")))
        examples = [
            TableExampleSpec(table=name, rows=[tuple(row) for row in rows])
            for name, rows in self.get("examples").items()
        ]
        return MigrationSpec(schema=schema, example_tree=example_tree, table_examples=examples)

    def _document_path(self, allow_directory: bool = False) -> str:
        path = self.resolve(self.get("document"))
        if not os.path.exists(path):
            raise UsageError(f"document not found: {path}")
        if not allow_directory and os.path.isdir(path):
            raise UsageError(
                f"document {path} is a directory — directories execute "
                f"shard-by-shard (use --shards)"
            )
        return path

    def _load_document(self, path: str) -> HDT:
        if not os.path.exists(path):
            raise UsageError(f"document not found: {path}")
        if os.path.isdir(path):
            raise UsageError(f"document {path} is a directory, expected a file")
        if self.format == "xml":
            return xml_file_to_hdt(path)
        return json_file_to_hdt(path)

    def full_document(self) -> HDT:
        """The full dataset as a materialized tree (whole-tree mode)."""
        if self.get("document"):
            return self._load_document(self._document_path())
        if self.dataset_bundle is not None:
            return self.dataset_bundle.generate(self.get_int("scale", 5))
        raise UsageError('spec is missing required key "document"')

    def document_chunks(self, chunk_size: int):
        """The full dataset as a bounded-memory chunk stream (one file)."""
        return self._source(allow_directory=False).iter_chunks(0, None, chunk_size)

    def sharded_source(self) -> ShardSource:
        """The full dataset as a :class:`~repro.runtime.streaming.ShardSource`:
        a single XML/JSON file *or a directory* of documents (sharded
        execution is the one mode that accepts directories), or a demo-mode
        dataset's materialized tree."""
        return self._source(allow_directory=True)

    def _source(self, allow_directory: bool) -> ShardSource:
        if self.get("document"):
            path = self._document_path(allow_directory)
            try:
                fmt: Optional[str] = self.format
            except UsageError:
                fmt = None  # let shard_source infer from file extensions
            try:
                return shard_source(path, fmt)
            except ShardError as error:
                raise UsageError(str(error))
        if self.dataset_bundle is not None:
            return TreeSource(self.dataset_bundle.generate(self.get_int("scale", 5)))
        raise UsageError('spec is missing required key "document"')
