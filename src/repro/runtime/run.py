"""The run API both front-ends call: argparse and HTTP over one code path.

A request is a :class:`~repro.runtime.spec.Spec` plus *overrides* — CLI
flags or job params under the same keys.  This module alone decides how it
becomes a plan (:func:`acquire_plan`), a run validated before any plan or
target work (:func:`resolve_run` → :class:`RunRequest`), an opened target
with an overwrite policy (:func:`open_target` → :class:`Target`), a driven
execution that discards the target on any failure (:func:`run_plan`), and a
verdict on a finished target (:func:`verify_target`).  The CLI and the
service differ only in the data they pass (:class:`RunDefaults`, the spec
store's directory, a plan memo, a checkpoint).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, MutableMapping, Optional, Tuple

from ..codegen.sql_gen import generate_sql_dump
from ..dsl.serialize import SerializationError
from ..relational.schema import SchemaError
from ..synthesis.config import SynthesisConfig
from .backends import (
    BACKEND_NAMES,
    OUTPUT_KIND,
    ColumnarBackendError,
    DuckDBBackendError,
    ExecutionBackend,
    create_backend,
)
from .backends.null import NullBackend
from .context_store import ContextStore, spec_fingerprint
from .executor import ExecutionReport, execute_plan
from .faults import FaultError, FaultPlan
from .incremental import IncrementalReport, learn_incremental
from .plan import MigrationPlan
from .sharded import shard_execute
from .spec import Spec, UsageError
from .streaming import DEFAULT_CHUNK_SIZE, stream_execute
from .supervisor import RetryPolicy
from .transport import SocketTransport
from .verify import VerificationReport, read_target_indexes, read_target_rows, verify_rows

# --------------------------------------------------------------------------- #
# Plan acquisition
# --------------------------------------------------------------------------- #


def acquire_plan(
    spec: Spec,
    overrides: Dict[str, Any],
    *,
    store_dir: Optional[str],
    allow_learn: bool,
    memo: Optional[MutableMapping[str, MigrationPlan]] = None,
    say: Callable[[IncrementalReport], None] = lambda report: None,
) -> Tuple[MigrationPlan, str]:
    """The plan for a request, and where it came from.

    In order: the file ``overrides["plan"]``; ``memo`` (spec fingerprint →
    plan, kept warm by a resident caller); then the spec store in
    ``store_dir`` (``None``: no store, nothing read or written).  Without
    ``allow_learn`` only the store's exact hit is accepted; with it,
    :func:`~repro.runtime.incremental.learn_incremental` answers — exact
    hit, near hit or cold learn — and ``say`` gets its report.
    """
    if overrides.get("plan"):
        path = spec.resolve(str(overrides["plan"]))
        try:
            plan = MigrationPlan.load(path)
        except OSError as error:
            raise UsageError(f"cannot read plan file: {error}")
        except (json.JSONDecodeError, KeyError, TypeError, SerializationError, SchemaError) as error:
            raise UsageError(f"plan file {path} is not a valid migration plan: {error}")
        # A plan remembers the format it was learned on, so a spec that only
        # names a document to run it over need not repeat it.
        if plan.source_format and not spec.get("format") and not spec.get("dataset"):
            spec.default_format = plan.source_format
        return plan, f"loaded from {path}"
    migration_spec = spec.migration_spec()
    fingerprint = spec_fingerprint(migration_spec)
    if memo is not None and fingerprint in memo:
        return memo[fingerprint], "warm (daemon memory)"
    store = ContextStore(store_dir) if store_dir is not None else None
    config = SynthesisConfig.for_migration()
    total = migration_spec.schema.num_tables
    hit = f"cache hit: {total}/{total} tables reused"
    if not allow_learn:
        snapshot = store.load_snapshot(migration_spec, config) if store else None
        if snapshot is None:
            raise UsageError(
                "no plan for this spec: name a plan file (--plan / \"plan\") or "
                "learn the spec first (`repro learn`, a learn or migrate job)"
            )
        plan, provenance = snapshot.plan, f"{hit} ({snapshot.path})"
    else:
        jobs = overrides.get("jobs")
        jobs = spec.get_int("jobs", 1) if jobs is None else int(jobs)
        if jobs < 0:
            raise UsageError(f"--jobs must be >= 0 (got {jobs})")
        plan, report = learn_incremental(migration_spec, store, config=config, jobs=jobs)
        say(report)
        if report.exact:
            provenance = f"{hit} ({store.snapshot_path(migration_spec, config)})"
        else:
            provenance = (
                f"learned: {len(report.tables_synthesized)}/{total} tables synthesized, "
                f"{len(report.tables_reused)}/{total} reused"
            )
            provenance += f", stored in {store_dir}" if store else " (cache disabled)"
    plan.source_format = spec.format
    if memo is not None:
        memo[fingerprint] = plan
    return plan, provenance


# --------------------------------------------------------------------------- #
# Run options: one table, one resolution
# --------------------------------------------------------------------------- #


def parse_shards(value: Any) -> Any:
    """A shard count: an integer, or ``"auto"`` (sized at execution time from
    the record count, the core count and the chunk size)."""
    text = str(value).strip()
    return "auto" if text.lower() == "auto" else int(text)


#: Every option of a run: key → (also a spec key?, converter).  Overrides win
#: over spec keys, which win over the caller's :class:`RunDefaults`.
#: ``tools/check_docs.py`` holds docs/cli.md and docs/service.md to this table.
RUN_OPTIONS: Dict[str, Tuple[bool, Optional[Callable[[Any], Any]]]] = {
    "streaming": (True, bool),
    "whole_tree": (False, bool),
    "shards": (True, parse_shards),
    "chunk_size": (True, int),
    "workers": (True, int),
    "shard_retries": (True, int),
    "shard_timeout": (True, float),
    "inject_faults": (False, None),
    "remote_workers": (True, None),
    "backend": (True, str),
    "output": (True, str),
    "columnar_format": (True, str),
    "dry_run": (False, bool),
    "force": (False, bool),
}

_KINDS = {int: "an integer", float: "a number", parse_shards: 'an integer or "auto"'}


@dataclass(frozen=True)
class RunDefaults:
    """What a front-end runs when neither the request nor the spec says."""

    shards: Any = 0  # 0: whole-tree; a count or "auto": sharded
    backend: str = "memory"
    output: Optional[str] = None
    """Target path without extension (database files get ``.db``); ``None``
    makes ``output`` mandatory for backends that write one."""


@dataclass(frozen=True)
class RunRequest:
    """A validated run: how the document is walked and where the rows land."""

    mode: str  # "whole-tree" | "streaming" | "sharded"
    shards: Any = 0  # sharded only: a count >= 1 or "auto"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    workers: Optional[int] = None
    shard_retries: Optional[int] = None
    shard_timeout: Optional[float] = None
    faults: Optional[FaultPlan] = None
    remote_workers: Any = None
    backend: Optional[str] = None  # registry name; None under dry_run
    output: Optional[str] = None
    columnar_format: Optional[str] = None
    dry_run: bool = False
    force: bool = False


def _convert(key: str, value: Any, where: str) -> Any:
    convert = RUN_OPTIONS[key][1]
    if value is None or convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise UsageError(f'{where} "{key}" must be {_KINDS[convert]} (got {value!r})') from None


def _resolve_mode(spec: Spec, overrides: Dict[str, Any], defaults: RunDefaults) -> Tuple[str, Any]:
    """The three modes are mutually exclusive; a request for two is an error,
    never silently reinterpreted.  A mode named by an override replaces
    whatever the spec says."""
    shards = _convert("shards", overrides.get("shards"), "option")
    asked = [
        flag
        for flag, on in (
            ("--streaming", overrides.get("streaming")),
            ("--shards", shards is not None),
            ("--no-stream", overrides.get("whole_tree")),
        )
        if on
    ]
    if len(asked) > 1:
        raise UsageError(
            f"{asked[0]} conflicts with {' and '.join(asked[1:])}: "
            f"they are different execution modes, pick one"
        )
    if not asked:
        shards = _convert("shards", spec.get("shards") or None, "spec key")
        if shards is not None and spec.get("streaming"):
            raise UsageError(
                'spec keys "streaming" and "shards" conflict: keep one '
                "(or override with --streaming / --shards / --no-stream)"
            )
        if shards is None and not spec.get("streaming"):
            return ("sharded" if defaults.shards else "whole-tree"), defaults.shards
    if shards is None:
        return ("whole-tree" if asked == ["--no-stream"] else "streaming"), 0
    if shards != "auto" and shards < 1:
        name = "--shards" if asked else 'spec key "shards"'
        raise UsageError(f'{name} must be >= 1 or "auto" (got {shards})')
    return "sharded", shards


def resolve_run(
    spec: Spec, overrides: Dict[str, Any], defaults: RunDefaults = RunDefaults()
) -> RunRequest:
    """Validate a request once, before any plan or target work.

    ``overrides`` maps :data:`RUN_OPTIONS` keys to values (``None`` = not
    given).  Sharded-only options are read, and checked, only when the run
    is sharded; the other modes ignore them.
    """

    def option(key: str) -> Any:
        value = _convert(key, overrides.get(key), "option")
        if value is None and RUN_OPTIONS[key][0]:
            value = _convert(key, spec.get(key), "spec key")
        return value

    mode, shards = _resolve_mode(spec, overrides, defaults)
    chunk_size = option("chunk_size")
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    if mode != "whole-tree" and chunk_size <= 0:
        raise UsageError(f"--chunk-size must be positive (got {chunk_size})")
    sharded: Dict[str, Any] = {}
    if mode == "sharded":
        sharded = {
            key: option(key)
            for key in ("workers", "shard_retries", "shard_timeout", "remote_workers")
        }
        retries, timeout = sharded["shard_retries"], sharded["shard_timeout"]
        if retries is not None and retries < 0:
            raise UsageError(f"--shard-retries must be >= 0 (got {retries})")
        if timeout is not None and timeout <= 0:
            raise UsageError(f"--shard-timeout must be positive (got {timeout})")
        if overrides.get("inject_faults") is not None:
            try:
                sharded["faults"] = FaultPlan.parse(str(overrides["inject_faults"]))
            except FaultError as error:
                raise UsageError(f"--inject-faults: {error}")
    if overrides.get("dry_run"):
        # Rows are only counted: backend and output keys are not even read.
        return RunRequest(mode, shards, chunk_size, dry_run=True, **sharded)
    backend = option("backend") or defaults.backend
    if backend not in BACKEND_NAMES:
        raise UsageError(f"unknown backend {backend!r} (available: {', '.join(BACKEND_NAMES)})")
    columnar_format = option("columnar_format") or None
    if columnar_format and backend != "columnar":
        raise UsageError(
            f"--columnar-format only applies to the columnar backend (got --backend {backend})"
        )
    output, kind = option("output"), OUTPUT_KIND[backend]
    if kind is None and output is not None:
        raise UsageError(
            "the memory backend produces no output artifact — drop "
            '--output / spec "output", or pick --backend sqlite/columnar/duckdb'
        )
    if kind is not None and output is None:
        if defaults.output is None:
            noun = "database path" if kind == "file" else "directory"
            raise UsageError(
                f'the {backend} backend needs an output {noun} ("--output" or spec "output")'
            )
        output = defaults.output + (".db" if kind == "file" else "")
    return RunRequest(
        mode,
        shards,
        chunk_size,
        backend=backend,
        output=output and spec.resolve(output),
        columnar_format=columnar_format,
        force=bool(overrides.get("force")),
        **sharded,
    )


# --------------------------------------------------------------------------- #
# The target: overwrite policy in, exactly this run's files out
# --------------------------------------------------------------------------- #


@dataclass
class Target:
    """The opened output of one run: the backend the rows land in, plus what
    the run may delete if it fails."""

    backend: ExecutionBackend
    name: Optional[str] = None  # registry name; None for the dry-run counter
    output: Optional[str] = None
    created: bool = False  # output did not exist once the overwrite policy had run

    def write_sql_dump(self, path: str) -> None:
        """A SQL dump of the finished target (memory and sqlite only)."""
        if self.name == "sqlite":
            text = self.backend.dump()
        else:
            text = generate_sql_dump(self.backend.database)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    def discard(self) -> None:
        """Never leave a partial target behind a failed run.

        Closing first aborts the backend (connections release ``-wal`` /
        ``-shm`` siblings, a columnar run removes its partial files).  A
        database file goes with its DuckDB ``.wal`` sibling; a directory goes
        entirely only if this run created it — in one that was already there,
        only the files this run would have written go.
        """
        with contextlib.suppress(Exception):  # cleanup must not mask the cause
            self.backend.close()
        if self.output is None:
            return
        if OUTPUT_KIND[self.name] == "file":
            doomed = [self.output, self.output + ".wal"]
        elif self.created:
            shutil.rmtree(self.output, ignore_errors=True)
            return
        else:
            doomed = [os.path.join(self.output, name) for name in self.backend.output_filenames()]
        for path in doomed:
            with contextlib.suppress(OSError):
                os.remove(path)


def open_target(request: RunRequest, *, overwrite: bool = False) -> Target:
    """Apply the overwrite policy and construct the request's backend.

    An existing database file or non-empty directory is refused without
    ``overwrite``, and removed entirely with it — a rerun never leaves stale
    tables next to the new output.  An existing empty directory is accepted.
    """
    if request.dry_run:
        return Target(NullBackend())
    output = request.output
    if output is not None and os.path.exists(output):
        kind = OUTPUT_KIND[request.backend]
        is_directory = os.path.isdir(output)
        if is_directory != (kind == "directory"):
            raise UsageError(f"output {output} exists and is not a {kind}")
        if not is_directory or os.listdir(output):
            if not overwrite:
                raise UsageError(
                    f'output {output} already exists (--force / "force": true overwrites it)'
                )
            if is_directory:
                shutil.rmtree(output)
            else:
                os.remove(output)
    created = output is not None and not os.path.exists(output)
    options = {"file_format": request.columnar_format} if request.columnar_format else {}
    try:
        backend = create_backend(request.backend, output, **options)
    except (ValueError, ColumnarBackendError, DuckDBBackendError) as error:
        raise UsageError(str(error))
    return Target(backend, request.backend, output, created)


# --------------------------------------------------------------------------- #
# Driving a run, verifying a target
# --------------------------------------------------------------------------- #


def run_plan(
    plan: MigrationPlan,
    spec: Spec,
    request: RunRequest,
    *,
    checkpoint=None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    sql_dump: Optional[str] = None,
) -> ExecutionReport:
    """Execute ``plan`` over the spec's document as ``request`` says.

    ``checkpoint`` (a :class:`~repro.runtime.service.checkpoint.
    ShardCheckpoint`) and ``progress`` only take part in sharded runs.
    ``resume`` implies overwriting the target: the reduce always restarts
    from the checkpointed spills.  ``sql_dump`` also writes the finished
    target as SQL text.  Any failure discards the target before propagating.
    """
    sharded = request.mode == "sharded"
    transport = (
        SocketTransport(request.remote_workers) if sharded and request.remote_workers else None
    )
    target = open_target(request, overwrite=request.force or resume)
    try:
        if sharded:
            with contextlib.closing(transport) if transport else contextlib.nullcontext():
                report = shard_execute(
                    plan,
                    spec.sharded_source(),
                    target.backend,
                    shards=request.shards,
                    chunk_size=request.chunk_size,
                    workers=request.workers,
                    checkpoint=checkpoint,
                    resume=resume,
                    progress=progress,
                    retry_policy=RetryPolicy.for_retries(request.shard_retries),
                    shard_timeout=request.shard_timeout,
                    faults=request.faults,
                    transport=transport,
                )
        elif request.mode == "streaming":
            report = stream_execute(plan, spec.document_chunks(request.chunk_size), target.backend)
        else:
            report = execute_plan(plan, spec.full_document(), target.backend)
        report.dry_run = request.dry_run
        if sql_dump:
            target.write_sql_dump(sql_dump)
    except BaseException:
        target.discard()
        raise
    target.backend.close()
    return report


def verify_target(
    plan: MigrationPlan,
    spec: Spec,
    overrides: Dict[str, Any],
    expected: Optional[Dict[str, int]] = None,
) -> Tuple[VerificationReport, Dict[str, object]]:
    """Check a finished target — ``"backend"`` / ``"output"``, override or
    spec key — and return the report plus its JSON payload.  Without
    ``expected`` per-table counts they are re-derived by executing the plan
    into the counting backend, the pass a dry run uses."""
    backend = overrides.get("backend") or spec.get("backend")
    if not backend:
        raise UsageError('verify needs --backend / a "backend" param (or a spec "backend" key)')
    output = overrides.get("output") or spec.get("output")
    if output is not None:
        output = spec.resolve(str(output))
    if expected is None:
        counting = NullBackend()
        execute_plan(plan, spec.full_document(), counting)
        expected = dict(counting.counts)
    rows = read_target_rows(str(backend), output, plan.schema)
    # SQL targets also prove their secondary FK indexes exist; backends
    # without SQL indexes (columnar) return None and skip the check.
    index_names = read_target_indexes(str(backend), output)
    report = verify_rows(plan.schema, rows, expected, index_names=index_names)
    return report, dict(report.to_json(), backend=backend, output=output)
