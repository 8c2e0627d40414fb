"""The migration runtime: durable plans, storage backends, streaming, CLI.

The research pipeline (synthesize → execute in memory) pays the synthesis
cost on every invocation.  This package turns the synthesized artifact into a
durable, re-executable *plan* and provides the production execution paths the
ROADMAP's north star asks for:

* :mod:`repro.runtime.plan` — the :class:`MigrationPlan` artifact
  (JSON-serializable schema + per-table programs + key rules);
* :mod:`repro.runtime.context_store` — the learn cache: spec snapshots
  (schema, example rows, learned plan) on disk, keyed by the spec and
  configuration fingerprints, so synthesis runs once per distinct spec;
* :mod:`repro.runtime.spec_diff` — the diff layer deciding, per table of an
  edited spec, whether the cached program and key rules are still valid;
* :mod:`repro.runtime.incremental` — :func:`learn_incremental`, the one
  learn path: an exact hit, else re-synthesize only the tables a spec edit
  affected, byte-identical to a cold learn;
* :mod:`repro.runtime.executor` — the one execution kernel
  (:func:`~repro.runtime.executor.run_chunk`) and backend-pluggable
  whole-tree execution over it;
* :mod:`repro.runtime.backends` — the :class:`ExecutionBackend` protocol and
  the shipped memory / SQLite / columnar (Arrow IPC, Parquet, JSON-columns)
  backends, plus the name registry (see ``docs/backends.md``);
* :mod:`repro.runtime.streaming` — chunked, bounded-memory serial execution
  with cross-chunk key reconciliation;
* :mod:`repro.runtime.sharded` — multi-process map/reduce execution:
  contiguous record shards, per-shard dedup in workers, a streaming
  cross-shard reducer, validated spill files;
* :mod:`repro.runtime.supervisor` — fault-tolerant shard supervision:
  per-attempt process isolation, a :class:`RetryPolicy` with error
  classification and deterministic backoff, per-shard timeouts, and
  graceful degradation into structured :class:`ShardFailure` records
  (see ``docs/robustness.md``);
* :mod:`repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan`, ``--inject-faults`` / ``REPRO_FAULTS``) exercising
  every retry/timeout/degradation path with real induced failures;
* :mod:`repro.runtime.transport` — the :class:`ShardTransport` seam that
  decides *where* map-stage shards run: :class:`LocalTransport` (the
  in-process / subprocess pool) and :class:`SocketTransport` (length-prefixed
  CRC-checked frames over TCP or Unix sockets to remote workers, see
  ``docs/distributed.md``);
* :mod:`repro.runtime.worker` — the ``repro worker`` process: a standalone
  shard-map server that executes shards against its local copy of the
  source and streams validated spill frames back;
* :mod:`repro.runtime.verify` — post-run verification: row-count and
  PK/FK-integrity invariants re-derived against the produced target;
* :mod:`repro.runtime.spec` / :mod:`repro.runtime.run` — the one run API
  under both front-ends: a :class:`Spec` plus overrides becomes a plan
  (:func:`acquire_plan`), a validated run (:func:`resolve_run`), a driven,
  fail-closed execution (:func:`run_plan`) or a verdict
  (:func:`verify_target`);
* :mod:`repro.runtime.cli` — ``python -m repro learn|run|migrate|verify|
  serve|worker``: argparse and printing over that API;
* :mod:`repro.runtime.service` — the ``repro serve`` daemon: HTTP/JSON jobs
  over the same API, with a warm plan memo, per-job shard checkpoints and
  resume-after-crash semantics (see ``docs/service.md``).

The full architecture is documented in ``docs/runtime.md``.

Example — learn once, run many, then evolve the schema incrementally:

>>> import tempfile
>>> from repro.datasets import dblp
>>> from repro.runtime import ContextStore, execute_plan, learn_incremental
>>> bundle = dblp.dataset(scale=2)
>>> store = ContextStore(tempfile.mkdtemp())
>>> plan, report = learn_incremental(bundle.migration_spec(), store)
>>> report.tables_total
9
>>> execute_plan(plan, bundle.generate(2)).total_rows
30
"""

from .backends import (
    ColumnarBackend,
    ColumnarBackendError,
    DuckDBBackend,
    DuckDBBackendError,
    ExecutionBackend,
    MemoryBackend,
    SQLiteBackend,
    SQLiteBackendError,
    available_backends,
    create_backend,
    database_matches_sqlite,
    load_database,
)
from .executor import (
    ChunkMerger,
    ExecutionReport,
    canonical_database_rows,
    canonical_table_rows,
    execute_plan,
    stream_table_rows,
)
from .context_store import ContextStore, SpecSnapshot, spec_fingerprint
from .incremental import IncrementalReport, learn_incremental
from .plan import MigrationPlan, TablePlan
from .run import RunDefaults, acquire_plan, resolve_run, run_plan, verify_target
from .spec import Spec, UsageError
from .backends.null import NullBackend
from .faults import FaultError, FaultPlan, FaultRule
from .sharded import (
    ShardDegradedError,
    ShardError,
    ShardSpec,
    auto_shard_count,
    partition_records,
    resolve_shard_count,
    shard_execute,
    validate_spill,
)
from .supervisor import RetryPolicy, ShardFailure, ShardSupervisor
from .transport import (
    ConnectionLost,
    FrameError,
    HandshakeError,
    LocalTransport,
    ShardTransport,
    SocketTransport,
    TransportError,
    WorkerUnavailable,
    parse_address,
)
from .worker import ShardWorker, run_worker
from .verify import (
    TableCheck,
    VerificationError,
    VerificationReport,
    read_target_rows,
    verify_backend,
    verify_rows,
)
from .spec_diff import SpecDiff, TableChange, diff_specs, reusable_plans
from .streaming import (
    Chunk,
    clear_source_caches,
    clone_subtree,
    count_json_records,
    iter_json_chunks,
    iter_tree_chunks,
    iter_xml_chunks,
    shard_source,
    stream_execute,
)

__all__ = [
    "ExecutionBackend",
    "ExecutionReport",
    "MemoryBackend",
    "ColumnarBackend",
    "ColumnarBackendError",
    "DuckDBBackend",
    "DuckDBBackendError",
    "available_backends",
    "create_backend",
    "NullBackend",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "ShardFailure",
    "ShardSupervisor",
    "ShardDegradedError",
    "ShardError",
    "ShardSpec",
    "auto_shard_count",
    "clear_source_caches",
    "partition_records",
    "resolve_shard_count",
    "shard_execute",
    "shard_source",
    "validate_spill",
    "ShardTransport",
    "LocalTransport",
    "SocketTransport",
    "TransportError",
    "ConnectionLost",
    "FrameError",
    "HandshakeError",
    "WorkerUnavailable",
    "parse_address",
    "ShardWorker",
    "run_worker",
    "TableCheck",
    "VerificationError",
    "VerificationReport",
    "read_target_rows",
    "verify_backend",
    "verify_rows",
    "count_json_records",
    "canonical_database_rows",
    "canonical_table_rows",
    "execute_plan",
    "stream_table_rows",
    "MigrationPlan",
    "TablePlan",
    "spec_fingerprint",
    "Spec",
    "UsageError",
    "RunDefaults",
    "acquire_plan",
    "resolve_run",
    "run_plan",
    "verify_target",
    "ContextStore",
    "SpecSnapshot",
    "IncrementalReport",
    "learn_incremental",
    "SpecDiff",
    "TableChange",
    "diff_specs",
    "reusable_plans",
    "SQLiteBackend",
    "SQLiteBackendError",
    "database_matches_sqlite",
    "load_database",
    "Chunk",
    "ChunkMerger",
    "clone_subtree",
    "iter_json_chunks",
    "iter_tree_chunks",
    "iter_xml_chunks",
    "stream_execute",
]
