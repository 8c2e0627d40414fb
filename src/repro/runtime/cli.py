"""Command-line interface: ``python -m repro`` / the ``repro-migrate`` script.

Six subcommands cover the learn/run split that makes synthesized programs
durable artifacts, plus the operational surface around it:

* ``learn``   — synthesize a :class:`MigrationPlan` from a spec (cached on
  disk keyed by the spec fingerprint) and optionally save it to a file;
* ``run``     — execute an existing plan on a dataset, no synthesis;
* ``migrate`` — learn (or load from cache) and run in one invocation;
* ``verify``  — re-check a finished target: row counts, primary-key and
  foreign-key integrity (``docs/service.md``);
* ``serve``   — the migration service daemon: an HTTP/JSON job API with
  resumable, dry-runnable, verifiable jobs (``docs/service.md``);
* ``worker``  — a remote shard executor: sharded runs fan out to worker
  processes over TCP/Unix sockets with ``--remote-workers``
  (``docs/distributed.md``).

``run`` and ``migrate`` also take ``--dry-run`` (count rows, write nothing),
``--report-json`` (machine-readable execution report), and — for sharded
execution — ``--checkpoint-dir``/``--resume`` to restart an interrupted run
at the first unfinished shard.

Everything is driven by a JSON *spec file*:

.. code-block:: json

    {
      "format": "json",
      "schema": { "kind": "database_schema", "name": "library", "tables": ["..."] },
      "example_document": "example.json",
      "examples": { "author": [["a1", "Ada Chen", "NZ"]] },
      "document": "full.json",
      "backend": "sqlite",
      "output": "library.db"
    }

or, for the built-in synthetic datasets (demo mode):

.. code-block:: json

    { "dataset": "dblp", "scale": 5, "backend": "sqlite", "output": "dblp.db" }

Relative paths inside the spec resolve against the spec file's directory.
Command-line flags (``--backend``, ``--output``, ``--streaming``, ...)
override the corresponding spec keys.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..codegen.sql_gen import generate_sql_dump
from ..dsl.pretty import pretty_program
from ..dsl.serialize import SerializationError, schema_from_json
from ..hdt.json_plugin import json_file_to_hdt
from ..hdt.tree import HDT
from ..hdt.xml_plugin import xml_file_to_hdt
from ..migration.engine import MigrationError, MigrationSpec, TableExampleSpec
from ..relational.database import IntegrityError
from ..relational.schema import SchemaError
from .backends import (
    BACKEND_NAMES,
    OUTPUT_KIND,
    ColumnarBackend,
    ColumnarBackendError,
    DuckDBBackend,
    DuckDBBackendError,
    ExecutionBackend,
    MemoryBackend,
    SQLiteBackend,
    SQLiteBackendError,
    create_backend,
)
from .backends.columnar import FILE_FORMATS
from .backends.null import NullBackend
from .executor import ExecutionReport, execute_plan
from .faults import FaultError, resolve_plan
from .plan import MigrationPlan
from .plan_cache import DEFAULT_CACHE_DIR, PlanCache
from .service.checkpoint import ShardCheckpoint
from .sharded import ShardDegradedError, ShardError, TreeSource, shard_execute
from .sharded import shard_source as make_shard_source
from .supervisor import RetryPolicy
from .transport import SocketTransport, TransportError
from .verify import (
    VerificationError,
    read_target_indexes,
    read_target_rows,
    verify_rows,
)
from .streaming import (
    DEFAULT_CHUNK_SIZE,
    iter_json_chunks,
    iter_tree_chunks,
    iter_xml_chunks,
    stream_execute,
)


class CLIError(Exception):
    """A user-facing error: printed to stderr, exit code 1."""


# --------------------------------------------------------------------------- #
# Spec loading
# --------------------------------------------------------------------------- #


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
            raise CLIError(f"cannot read spec file: {error}")
        except json.JSONDecodeError as error:
            raise CLIError(f"spec file is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise CLIError("spec file must contain a JSON object")
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
            raise CLIError(f'spec key "{key}" must be an integer (got {value!r})')

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
                raise CLIError(
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
            raise CLIError('spec key "format" must be "xml" or "json"')
        return fmt

    # ------------------------------------------------------------ migration
    def migration_spec(self) -> MigrationSpec:
        if self.dataset_bundle is not None:
            return self.dataset_bundle.migration_spec()
        for key in ("schema", "example_document", "examples"):
            if not self.get(key):
                raise CLIError(f'spec is missing required key "{key}"')
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
            raise CLIError(f"document not found: {path}")
        if not allow_directory and os.path.isdir(path):
            raise CLIError(
                f"document {path} is a directory — directories execute "
                f"shard-by-shard (use --shards)"
            )
        return path

    def _load_document(self, path: str) -> HDT:
        if not os.path.exists(path):
            raise CLIError(f"document not found: {path}")
        if os.path.isdir(path):
            raise CLIError(f"document {path} is a directory, expected a file")
        if self.format == "xml":
            return xml_file_to_hdt(path)
        return json_file_to_hdt(path)

    def full_document(self) -> HDT:
        """The full dataset as a materialized tree (whole-tree mode)."""
        if self.get("document"):
            return self._load_document(self._document_path())
        if self.dataset_bundle is not None:
            return self.dataset_bundle.generate(self.get_int("scale", 5))
        raise CLIError('spec is missing required key "document"')

    def document_chunks(self, chunk_size: int):
        """The full dataset as a bounded-memory chunk stream."""
        if self.get("document"):
            path = self._document_path()
            if self.format == "xml":
                return iter_xml_chunks(path, chunk_size)
            return iter_json_chunks(path, chunk_size)
        if self.dataset_bundle is not None:
            return iter_tree_chunks(
                self.dataset_bundle.generate(self.get_int("scale", 5)), chunk_size
            )
        raise CLIError('spec is missing required key "document"')

    def sharded_source(self):
        """The full dataset as a :class:`~repro.runtime.sharded.ShardSource`.

        A document path may name a single XML/JSON file *or a directory* of
        documents (sharded execution is the one mode that accepts
        directories); demo-mode datasets shard their materialized tree.
        """
        if self.get("document"):
            path = self._document_path(allow_directory=True)
            try:
                fmt: Optional[str] = self.format
            except CLIError:
                fmt = None  # let shard_source infer from file extensions
            try:
                return make_shard_source(path, fmt)
            except ShardError as error:
                raise CLIError(str(error))
        if self.dataset_bundle is not None:
            return TreeSource(self.dataset_bundle.generate(self.get_int("scale", 5)))
        raise CLIError('spec is missing required key "document"')


# --------------------------------------------------------------------------- #
# Plan acquisition
# --------------------------------------------------------------------------- #


def _acquire_plan(args, spec: Spec, *, allow_learn: bool) -> Tuple[MigrationPlan, str]:
    """Load or learn the plan; returns (plan, provenance-description)."""
    if getattr(args, "plan", None):
        try:
            return MigrationPlan.load(args.plan), f"loaded from {args.plan}"
        except OSError as error:
            raise CLIError(f"cannot read plan file: {error}")
        except (json.JSONDecodeError, KeyError, TypeError, SerializationError, SchemaError) as error:
            raise CLIError(f"plan file {args.plan} is not a valid migration plan: {error}")
    if not allow_learn:
        raise CLIError("run requires --plan (use `migrate` to learn and run at once)")
    migration_spec = spec.migration_spec()
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = spec.get_int("jobs", 1)
    if jobs < 0:
        raise CLIError(f"--jobs must be >= 0 (got {jobs})")
    cache_dir = args.cache_dir or spec.get("cache_dir", DEFAULT_CACHE_DIR)
    if args.incremental or spec.get("incremental"):
        return _learn_incrementally(args, spec, migration_spec, jobs, cache_dir)
    if args.no_cache:
        plan = _learn_plan(args, migration_spec, jobs)
        plan.source_format = spec.format
        return plan, "synthesized (cache disabled)"
    cache = PlanCache(cache_dir)
    cached = cache.load(migration_spec)
    if cached is not None:
        return cached, f"cache hit ({cache.path_for(cached.metadata.get('spec_fingerprint', '?'))})"
    plan = _learn_plan(args, migration_spec, jobs)
    plan.source_format = spec.format
    path = cache.store(migration_spec, plan)
    return plan, f"synthesized and cached ({path})"


def _learn_plan(args, migration_spec, jobs: int) -> MigrationPlan:
    """Synthesize a fresh plan; ``--verbose`` prints per-table diagnostics.

    The diagnostics come from :class:`~repro.synthesis.synthesizer.SynthesisStats`
    — universe size per candidate ψ, per-phase wall-clock (universe /
    bitmatrix / cover) and candidate-cache hit rates — and are printed before
    the plan summary so slow tables are attributable to a phase.
    """
    if not getattr(args, "verbose", False):
        return MigrationPlan.learn(migration_spec, jobs=jobs)
    from ..migration.engine import MigrationEngine

    engine = MigrationEngine(jobs=jobs)
    programs, _ = engine.learn(migration_spec)
    for name in sorted(programs):
        stats = programs[name].synthesis.stats
        if stats is None:
            continue
        print(f"synthesis diagnostics for {name}:")
        for line in stats.describe().splitlines():
            print(f"  {line}")
    return MigrationPlan.from_programs(migration_spec.schema, programs)


def _learn_incrementally(
    args, spec: Spec, migration_spec, jobs: int, cache_dir: str
) -> Tuple[MigrationPlan, str]:
    """The ``--incremental`` path: diff against the context store and reuse.

    The context store replaces the all-or-nothing plan cache here — an exact
    re-learn reuses every table (zero synthesis), an edited spec reuses the
    unaffected ones.  The per-table reuse report is printed line by line so
    the cache hits are visible.
    """
    from .context_store import ContextStore
    from .incremental import learn_incremental

    directory = (
        getattr(args, "context_cache", None)
        or spec.get("context_cache")
        or os.path.join(cache_dir, "context")
    )
    store = ContextStore(directory)
    plan, report = learn_incremental(migration_spec, store, jobs=jobs)
    plan.source_format = spec.format
    print(report.describe())
    synthesized = len(report.tables_synthesized)
    if synthesized == 0:
        provenance = "incremental (everything reused)"
    else:
        provenance = (
            f"incremental ({synthesized}/{report.tables_total} tables synthesized)"
        )
    return plan, f"{provenance}, store: {directory}"


def _shards_value(value: str):
    """``--shards`` / spec ``"shards"``: a positive integer or ``"auto"``."""
    text = str(value).strip()
    if text.lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected an integer or "auto" (got {value!r})'
        ) from None


def _execution_mode(args, spec: Spec) -> Tuple[str, Any]:
    """Resolve (and validate) the execution mode: how the document is walked.

    Returns ``("whole-tree" | "streaming" | "sharded", shards)`` where
    ``shards`` is an integer or ``"auto"`` (sized from the record count,
    core count and chunk size at execution time).  The three modes are
    mutually exclusive; conflicting flag combinations are usage errors,
    never silently reinterpreted.  CLI flags override spec keys.
    """
    if args.streaming and args.no_stream:
        raise CLIError("--streaming conflicts with --no-stream: pick one")
    if args.shards is not None:
        if args.shards != "auto" and args.shards < 1:
            raise CLIError(f'--shards must be >= 1 or "auto" (got {args.shards})')
        if args.no_stream:
            raise CLIError(
                "--shards executes the document in chunks by construction; "
                "it conflicts with --no-stream"
            )
        if args.streaming:
            raise CLIError(
                "--streaming and --shards are different execution modes: pick one"
            )
        mode: Tuple[str, Any] = ("sharded", args.shards)
    elif args.streaming:
        mode = ("streaming", 0)
    elif args.no_stream:
        mode = ("whole-tree", 0)
    else:
        raw_spec_shards = spec.get("shards")
        spec_shards = (
            "auto"
            if isinstance(raw_spec_shards, str) and raw_spec_shards.strip().lower() == "auto"
            else spec.get_int("shards", 0)
        )
        spec_streaming = bool(spec.get("streaming"))
        if spec_shards and spec_streaming:
            raise CLIError(
                'spec keys "streaming" and "shards" conflict: keep one '
                "(or override with --streaming / --shards / --no-stream)"
            )
        if spec_shards != "auto" and spec_shards < 0:
            raise CLIError(f'spec key "shards" must be >= 1 (got {spec_shards})')
        if spec_shards:
            mode = ("sharded", spec_shards)
        elif spec_streaming:
            mode = ("streaming", 0)
        else:
            mode = ("whole-tree", 0)
    if mode[0] == "whole-tree" and (args.chunk_size is not None or args.workers is not None):
        raise CLIError("--chunk-size and --workers only apply with --streaming or --shards")
    if mode[0] != "sharded":
        for flag, value in (
            ("--shard-timeout", getattr(args, "shard_timeout", None)),
            ("--shard-retries", getattr(args, "shard_retries", None)),
            ("--inject-faults", getattr(args, "inject_faults", None)),
            ("--remote-workers", getattr(args, "remote_workers", None)),
            ("--workers", args.workers),
        ):
            if value is not None:
                raise CLIError(f"{flag} only applies to sharded execution (add --shards N)")
    if getattr(args, "remote_workers", None) is not None and args.workers is not None:
        raise CLIError(
            "--remote-workers replaces the local worker pool; "
            "it conflicts with --workers"
        )
    return mode


def _prepare_output(output: str, kind: str, force: bool) -> None:
    """Enforce the overwrite policy for a backend's output artifact.

    ``--force`` removes the previous artifact entirely (file or directory
    contents), so a rerun can never leave stale tables from an earlier run
    next to the new output.
    """
    if not os.path.exists(output):
        return
    if kind == "file":
        if os.path.isdir(output):
            raise CLIError(f"output {output} is a directory, expected a file path")
        if not force:
            raise CLIError(f"output {output} already exists (use --force to overwrite)")
        os.remove(output)
        return
    if not os.path.isdir(output):
        raise CLIError(f"output {output} exists and is not a directory")
    if os.listdir(output):
        if not force:
            raise CLIError(
                f"output directory {output} is not empty (use --force to overwrite)"
            )
        shutil.rmtree(output)


def _make_backend(args, spec: Spec) -> Tuple[ExecutionBackend, Optional[str], bool]:
    """Build the storage backend; returns ``(backend, output, owns_output)``.

    ``owns_output`` is true when the output artifact does not exist once the
    overwrite policy has run (we are about to create it, or ``--force`` just
    removed its predecessor) — the failure cleanup may delete the whole
    artifact only in that case, never a pre-existing user directory.

    ``--dry-run`` short-circuits everything: the plan executes into the
    counting :class:`NullBackend`, so spec ``backend``/``output`` keys are
    ignored and the conflicting *flags* are usage errors.
    """
    if getattr(args, "dry_run", False):
        conflicting = [
            flag
            for flag, value in (
                ("--backend", args.backend),
                ("--output", args.output),
                ("--sql-dump", args.sql_dump),
            )
            if value
        ]
        if conflicting:
            raise CLIError(
                f"--dry-run writes nothing — it conflicts with "
                f"{', '.join(conflicting)}"
            )
        return NullBackend(), None, False
    backend_name = args.backend or spec.get("backend", "memory")
    if backend_name not in BACKEND_NAMES:
        raise CLIError(
            f"unknown backend {backend_name!r} (available: {', '.join(BACKEND_NAMES)})"
        )
    file_format = getattr(args, "columnar_format", None) or spec.get("columnar_format")
    if file_format and backend_name != "columnar":
        raise CLIError(
            f"--columnar-format only applies to the columnar backend "
            f"(got --backend {backend_name})"
        )
    output = args.output or spec.get("output")
    output_kind = OUTPUT_KIND[backend_name]
    if output_kind is None and output is not None:
        raise CLIError(
            "the memory backend produces no output artifact — drop "
            '--output / spec "output", or pick --backend sqlite/columnar/duckdb'
        )
    if output_kind is not None and output is None:
        noun = "database path" if output_kind == "file" else "directory"
        raise CLIError(
            f'the {backend_name} backend needs an output {noun} '
            f'("--output" or spec "output")'
        )
    options = {"file_format": file_format} if file_format else {}
    owns_output = False
    if output is not None:
        output = spec.resolve(output)
        _prepare_output(output, output_kind, args.force)
        owns_output = not os.path.exists(output)
    try:
        return create_backend(backend_name, output, **options), output, owns_output
    except (ValueError, ColumnarBackendError, DuckDBBackendError) as error:
        raise CLIError(str(error))


def _execute(args, spec: Spec, plan: MigrationPlan) -> Tuple[ExecutionReport, Optional[str]]:
    if plan.source_format and not spec.get("format") and not spec.get("dataset"):
        spec.default_format = plan.source_format
    mode, shards = _execution_mode(args, spec)
    dry_run = bool(getattr(args, "dry_run", False))
    checkpoint_dir = getattr(args, "checkpoint_dir", None) or spec.get("checkpoint_dir")
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise CLIError(
            "--resume needs --checkpoint-dir (the directory the interrupted "
            "run checkpointed into)"
        )
    if checkpoint_dir and mode != "sharded":
        raise CLIError(
            "--checkpoint-dir/--resume only apply to sharded execution "
            "(add --shards N)"
        )
    if resume:
        # The interrupted run may have left a partial target; the reduce
        # always restarts from the checkpointed spills, so overwrite it.
        args.force = True
    backend, output, owns_output = _make_backend(args, spec)
    sql_dump = None if dry_run else (args.sql_dump or spec.get("sql_dump"))
    if sql_dump and isinstance(backend, (ColumnarBackend, DuckDBBackend)):
        raise CLIError(
            "--sql-dump only applies to the memory and sqlite backends "
            f"(got --backend {'columnar' if isinstance(backend, ColumnarBackend) else 'duckdb'})"
        )
    chunk_size = (
        args.chunk_size
        if args.chunk_size is not None
        else spec.get_int("chunk_size", DEFAULT_CHUNK_SIZE)
    )
    if mode != "whole-tree" and chunk_size <= 0:
        raise CLIError(f"--chunk-size must be positive (got {chunk_size})")
    try:
        if mode == "sharded":
            if args.workers is not None:
                workers: Optional[int] = args.workers
            elif spec.get("workers") is not None:
                workers = spec.get_int("workers", 0)
            else:
                workers = None  # default: one process per shard, up to CPU count
            checkpoint = (
                ShardCheckpoint(spec.resolve(str(checkpoint_dir)))
                if checkpoint_dir
                else None
            )
            shard_retries = getattr(args, "shard_retries", None)
            if shard_retries is None:
                shard_retries = spec.get("shard_retries")
            if shard_retries is not None:
                shard_retries = int(shard_retries)
                if shard_retries < 0:
                    raise CLIError(f"--shard-retries must be >= 0 (got {shard_retries})")
            shard_timeout = getattr(args, "shard_timeout", None)
            if shard_timeout is None:
                shard_timeout = spec.get("shard_timeout")
            if shard_timeout is not None:
                shard_timeout = float(shard_timeout)
                if shard_timeout <= 0:
                    raise CLIError(f"--shard-timeout must be positive (got {shard_timeout})")
            try:
                fault_plan = resolve_plan(getattr(args, "inject_faults", None))
            except FaultError as error:
                raise CLIError(f"--inject-faults: {error}")
            remote_workers = getattr(args, "remote_workers", None)
            if remote_workers is None:
                remote_workers = spec.get("remote_workers")
            transport = SocketTransport(remote_workers) if remote_workers else None
            try:
                report = shard_execute(
                    plan,
                    spec.sharded_source(),
                    backend,
                    shards=shards,
                    chunk_size=chunk_size,
                    workers=workers,
                    checkpoint=checkpoint,
                    resume=resume,
                    retry_policy=RetryPolicy.for_retries(shard_retries),
                    shard_timeout=shard_timeout,
                    faults=fault_plan,
                    transport=transport,
                )
            finally:
                if transport is not None:
                    transport.close()
        elif mode == "streaming":
            report = stream_execute(plan, spec.document_chunks(chunk_size), backend)
        else:
            report = execute_plan(plan, spec.full_document(), backend)
    except Exception:
        # Never leave a partial output behind: close the connection
        # (releasing -wal/-shm siblings) and remove the incomplete file, or
        # drop the half-filled columnar output so a retry is not blocked.
        # A directory we did not create is preserved — only the files this
        # run would have written inside it are removed.
        if isinstance(backend, (SQLiteBackend, DuckDBBackend)):
            backend.close()
            if output and os.path.exists(output):
                os.remove(output)
            if output and os.path.exists(output + ".wal"):
                os.remove(output + ".wal")  # duckdb write-ahead log sibling
        elif isinstance(backend, ColumnarBackend) and output:
            backend.close()  # abort: seal/remove this run's partial files
            if owns_output:
                shutil.rmtree(output, ignore_errors=True)
            elif os.path.isdir(output):
                for name in backend.output_filenames():
                    try:
                        os.remove(os.path.join(output, name))
                    except OSError:
                        pass
        raise
    report.dry_run = dry_run
    if isinstance(backend, SQLiteBackend):
        if sql_dump:
            with open(spec.resolve(sql_dump), "w", encoding="utf-8") as handle:
                handle.write(backend.dump())
        backend.close()
    elif isinstance(backend, DuckDBBackend):
        backend.close()
    elif isinstance(backend, MemoryBackend):
        if sql_dump and backend.database is not None:
            with open(spec.resolve(sql_dump), "w", encoding="utf-8") as handle:
                handle.write(generate_sql_dump(backend.database))
    return report, output


def _print_report(report: ExecutionReport, output: Optional[str]) -> None:
    for table, count in report.per_table_rows.items():
        print(f"  {table:28} {count:>10}")
    chunk_note = f" over {report.chunks} chunk(s)" if report.chunks > 1 else ""
    shard_note = f" in {report.shards} shard(s)" if report.shards > 1 else ""
    resume_note = (
        f" ({report.shards_resumed} resumed from checkpoint, "
        f"{report.shards_executed} executed)"
        if report.shards_resumed
        else ""
    )
    retry_note = (
        f" ({report.shards_retried} shard attempt(s) retried)"
        if report.shards_retried
        else ""
    )
    transport_note = (
        f" via {report.transport} transport" if report.transport != "local" else ""
    )
    verb = "would load" if report.dry_run else "loaded"
    print(
        f"{verb} {report.total_rows} rows in {report.execution_time:.2f}s"
        f"{chunk_note}{shard_note}{transport_note}{resume_note}{retry_note}"
    )
    if report.dry_run:
        print("dry run: no rows were written")
    elif output:
        print(f"database written to {output}")


def _write_report_json(path: str, spec: Spec, report: ExecutionReport, output: Optional[str]) -> None:
    """Write the machine-readable execution report (``--report-json``).

    The payload is exactly :meth:`ExecutionReport.to_json` — the same schema
    the service returns from ``GET /jobs/<id>/report`` — plus the resolved
    output path.
    """
    payload = report.to_json()
    payload["output"] = output
    resolved = spec.resolve(path)
    with open(resolved, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {resolved}")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _cmd_learn(args) -> int:
    spec = Spec.load(args.spec)
    start = time.perf_counter()
    plan, provenance = _acquire_plan(args, spec, allow_learn=True)
    elapsed = time.perf_counter() - start
    print(f"plan: {provenance} in {elapsed:.2f}s")
    for table_schema in plan.execution_order():
        table_plan = plan.table_plan(table_schema.name)
        print(f"  {table_schema.name}: {pretty_program(table_plan.program)}")
    if args.plan_out:
        plan.save(args.plan_out)
        print(f"plan saved to {args.plan_out}")
    return 0


def _handle_degraded(args, spec: Spec, error: ShardDegradedError) -> int:
    """Report a degraded sharded run (docs/robustness.md#degradation-contract).

    Exit code 1, but with the full story: which shards failed permanently
    and why, the partial report in ``--report-json`` (its ``shard_failures``
    list populated), and — when a checkpoint holds the completed shards —
    the exact resume hint.
    """
    print(f"error: {error}", file=sys.stderr)
    for failure in error.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    if args.report_json:
        _write_report_json(args.report_json, spec, error.report, None)
    if error.resumable:
        print(
            "completed shards are checkpointed; re-run with --resume to "
            "re-execute only the failed shard(s)",
            file=sys.stderr,
        )
    return 1


def _cmd_run(args) -> int:
    spec = Spec.load(args.spec)
    _execution_mode(args, spec)  # usage errors before any plan work
    plan, provenance = _acquire_plan(args, spec, allow_learn=False)
    print(f"plan: {provenance}")
    try:
        report, output = _execute(args, spec, plan)
    except ShardDegradedError as error:
        return _handle_degraded(args, spec, error)
    _print_report(report, output)
    if args.report_json:
        _write_report_json(args.report_json, spec, report, output)
    return 0


def _cmd_migrate(args) -> int:
    spec = Spec.load(args.spec)
    _execution_mode(args, spec)  # usage errors before paying for synthesis
    start = time.perf_counter()
    plan, provenance = _acquire_plan(args, spec, allow_learn=True)
    print(f"plan: {provenance} in {time.perf_counter() - start:.2f}s")
    try:
        report, output = _execute(args, spec, plan)
    except ShardDegradedError as error:
        return _handle_degraded(args, spec, error)
    _print_report(report, output)
    if args.report_json:
        _write_report_json(args.report_json, spec, report, output)
    return 0


def _cmd_verify(args) -> int:
    """``repro verify``: re-derive invariants against a finished target.

    Expected row counts come from ``--expect-report`` (a ``--report-json``
    file or the service's job report) when given, and are otherwise
    re-derived by executing the plan into the counting backend — the same
    pass ``--dry-run`` uses.  Exit code 0 = every table passed.
    """
    spec = Spec.load(args.spec)
    plan, provenance = _acquire_plan(args, spec, allow_learn=True)
    print(f"plan: {provenance}")
    backend_name = args.backend or spec.get("backend")
    if not backend_name:
        raise CLIError('verify needs --backend (or a spec "backend" key)')
    output = args.output or spec.get("output")
    if output is not None:
        output = spec.resolve(output)
    if args.expect_report:
        path = spec.resolve(args.expect_report)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise CLIError(f"cannot read expected report: {error}")
        except json.JSONDecodeError as error:
            raise CLIError(f"expected report is not valid JSON: {error}")
        counts = payload.get("per_table_rows") if isinstance(payload, dict) else None
        if not isinstance(counts, dict):
            raise CLIError(
                f'{path} is not an execution report (no "per_table_rows") — '
                f"pass a --report-json file or a service job report"
            )
        expected = {str(table): int(count) for table, count in counts.items()}
    else:
        counting = NullBackend()
        execute_plan(plan, spec.full_document(), counting)
        expected = dict(counting.counts)
    rows = read_target_rows(backend_name, output, plan.schema)
    # SQL targets also prove their secondary FK indexes exist; backends
    # without SQL indexes (columnar) return None and skip the check.
    index_names = read_target_indexes(backend_name, output)
    report = verify_rows(plan.schema, rows, expected, index_names=index_names)
    print(report.describe())
    if args.report_json:
        resolved = spec.resolve(args.report_json)
        payload = report.to_json()
        payload["backend"] = backend_name
        payload["output"] = output
        with open(resolved, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {resolved}")
    return 0 if report.passed else 1


def _cmd_worker(args) -> int:
    """``repro worker``: serve shard requests for remote drivers.

    Binds a TCP or Unix socket, prints ``worker listening on <address>``
    (the line drivers and process supervisors wait for), and executes
    shards until interrupted.  The wire protocol carries pickled plans and
    rows — listen only on loopback, a Unix socket, or a trusted network
    (docs/distributed.md#security-model).
    """
    from .worker import run_worker

    return run_worker(
        args.listen,
        expect_fingerprint=args.expect_fingerprint,
    )


def _cmd_serve(args) -> int:
    """``repro serve``: run the migration-service daemon until shutdown."""
    from .service.server import serve

    if args.max_workers < 1:
        raise CLIError(f"--max-workers must be >= 1 (got {args.max_workers})")
    if not 0 <= args.port <= 65535:
        raise CLIError(f"--port must be 0-65535 (got {args.port})")
    try:
        serve(
            args.state_dir,
            args.port,
            args.host,
            max_workers=args.max_workers,
            quiet=args.quiet,
        )
    except OSError as error:
        raise CLIError(f"cannot bind {args.host}:{args.port}: {error}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learn-once/run-many migration of hierarchical data to "
        "relational tables (Mitra, VLDB 2018). A JSON spec file names the "
        "target schema, an example document and per-table example rows; "
        "`learn` synthesizes a durable migration plan from them, `run` "
        "executes a plan against full datasets, `migrate` does both.",
        epilog="Spec-file format, incremental learning and recipes: docs/cli.md",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spec", required=True, help="path to the JSON spec file")
        sub.add_argument("--plan", help="path to an existing plan JSON (skips synthesis)")
        sub.add_argument("--no-cache", action="store_true", help="bypass the plan cache")
        sub.add_argument("--cache-dir", help="plan cache directory (default: .repro-cache)")
        sub.add_argument(
            "--jobs",
            type=int,
            help="parallel per-table synthesis processes (0 = CPU count, default 1)",
        )
        sub.add_argument(
            "--incremental",
            action="store_true",
            help="reuse persisted synthesis state across spec edits: diff the "
            "spec against the context store and re-synthesize only the "
            "affected tables",
        )
        sub.add_argument(
            "--context-cache",
            help="context store directory for --incremental "
            "(default: <cache-dir>/context)",
        )

    def add_execution(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend", choices=list(BACKEND_NAMES), help="storage backend"
        )
        sub.add_argument(
            "--output",
            help="output path: database file (sqlite) or directory (columnar)",
        )
        sub.add_argument("--force", action="store_true", help="overwrite an existing output")
        sub.add_argument(
            "--sql-dump", help="also write a SQL dump to this path (memory/sqlite)"
        )
        sub.add_argument(
            "--columnar-format",
            choices=list(FILE_FORMATS),
            help="columnar file format (default: arrow with pyarrow, else json)",
        )
        sub.add_argument(
            "--streaming", action="store_true", help="chunked bounded-memory execution"
        )
        sub.add_argument(
            "--no-stream",
            action="store_true",
            help="force whole-tree execution (overrides spec streaming/shards keys)",
        )
        sub.add_argument(
            "--shards",
            type=_shards_value,
            help="sharded execution: split the document into N contiguous "
            "record shards, execute them in worker processes and merge with "
            "cross-shard key reconciliation (docs/backends.md); 'auto' sizes "
            "the partition from records x cores x chunk size "
            "(docs/distributed.md)",
        )
        sub.add_argument(
            "--chunk-size", type=int, help="records per chunk (streaming/sharded)"
        )
        sub.add_argument(
            "--workers",
            type=int,
            help="sharded only: worker processes in the shard pool (default "
            "one per shard up to the CPU count)",
        )
        sub.add_argument(
            "--dry-run",
            action="store_true",
            help="execute the plan into a counting backend: print per-table "
            "row counts, write nothing",
        )
        sub.add_argument(
            "--checkpoint-dir",
            help="sharded only: persist per-shard spills and a resume "
            "manifest in this directory (docs/service.md)",
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted sharded run from --checkpoint-dir: "
            "shards whose spill file validates are not re-executed",
        )
        sub.add_argument(
            "--shard-retries",
            type=int,
            help="sharded only: retries per shard after its first attempt "
            "before the run degrades (default 2; docs/robustness.md)",
        )
        sub.add_argument(
            "--shard-timeout",
            type=float,
            help="sharded only: seconds before a running shard attempt is "
            "cancelled and re-dispatched (forces per-shard processes)",
        )
        sub.add_argument(
            "--inject-faults",
            metavar="SPEC",
            help="sharded only: deterministic fault injection for chaos "
            "testing, e.g. kill:shard=2:attempt=1,delay:shard=0:ms=500 "
            "(also via REPRO_FAULTS; docs/robustness.md)",
        )
        sub.add_argument(
            "--remote-workers",
            metavar="ADDRS",
            help="sharded only: run the map stage on remote `repro worker` "
            "processes instead of local ones — a comma-separated list of "
            "HOST:PORT or unix socket addresses (docs/distributed.md)",
        )
        sub.add_argument(
            "--report-json",
            help="write the execution report as JSON to this path (same "
            "schema as the service's job reports)",
        )

    learn = subparsers.add_parser(
        "learn",
        help="synthesize and save a migration plan "
        "(--incremental reuses state across spec edits)",
    )
    add_common(learn)
    learn.add_argument("--plan-out", help="write the learned plan to this file")
    learn.add_argument(
        "--verbose",
        action="store_true",
        help="print per-table synthesis diagnostics: universe size per "
        "candidate, phase timings and candidate-cache hit rates",
    )
    learn.set_defaults(handler=_cmd_learn)

    run = subparsers.add_parser("run", help="execute an existing plan (no synthesis)")
    add_common(run)
    add_execution(run)
    run.set_defaults(handler=_cmd_run)

    migrate = subparsers.add_parser("migrate", help="learn (or load cached) and run")
    add_common(migrate)
    add_execution(migrate)
    migrate.set_defaults(handler=_cmd_migrate)

    verify = subparsers.add_parser(
        "verify",
        help="re-check a finished target: row counts and PK/FK integrity "
        "(exit 0 = pass)",
    )
    add_common(verify)
    verify.add_argument(
        "--backend",
        choices=[name for name in BACKEND_NAMES if name != "memory"],
        help="backend that produced the target (memory leaves no artifact)",
    )
    verify.add_argument(
        "--output", help="the target to verify: database file or directory"
    )
    verify.add_argument(
        "--expect-report",
        help="expected row counts from a --report-json file (default: "
        "re-derive them with a dry-run counting pass)",
    )
    verify.add_argument(
        "--report-json", help="write the verification report as JSON to this path"
    )
    verify.set_defaults(handler=_cmd_verify)

    serve = subparsers.add_parser(
        "serve",
        help="run the migration service: an HTTP/JSON job daemon with "
        "resumable, dry-runnable, verifiable jobs",
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        help="durable daemon state: job records, plan cache, checkpoints, outputs",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: pick a free port and print it)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: loopback)"
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=2,
        help="concurrent jobs (each job may fan out into shard processes)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="run a remote shard worker: executes shards shipped over a "
        "socket transport and streams validated spill frames back "
        "(docs/distributed.md)",
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="address to serve on: HOST:PORT (port 0 picks a free port, "
        "printed on startup) or a unix socket path (default: 127.0.0.1:0)",
    )
    worker.add_argument(
        "--expect-fingerprint",
        metavar="FP",
        help="pin the worker to one plan content fingerprint: any other "
        "plan is rejected at handshake",
    )
    worker.set_defaults(handler=_cmd_worker)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        CLIError,
        MigrationError,
        IntegrityError,
        SQLiteBackendError,
        ColumnarBackendError,
        DuckDBBackendError,
        ShardError,
        FaultError,
        TransportError,
        SerializationError,
        SchemaError,
        VerificationError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
