"""Sharded multi-process plan execution: partition → map → streaming reduce.

:func:`~repro.runtime.streaming.stream_execute` bounds memory but executes
chunks one at a time, in one process.  This module scales the run path
across processes with a map/reduce shape:

1. **Partition** — the document's records (the root's direct children, the
   same unit the streaming layer chunks on) are split into ``shards``
   *contiguous* ranges (:func:`partition_records`).  Contiguity is what
   keeps output deterministic: shard-major order equals document order.
2. **Map** — each shard executes in its own worker process: the shard's
   records stream chunk by chunk through the same kernel the serial paths
   run (:func:`~repro.runtime.executor.run_chunk`) into a *shard-local*
   :class:`~repro.runtime.executor.ChunkMerger`, so intra-shard duplicates
   are dropped and intra-shard surrogate keys reconciled before anything
   leaves the worker.  Deduplicated rows spill to a per-shard file in
   bounded batches; only a small manifest returns through the pool.
3. **Reduce** — the parent replays the spill files *in shard order* through
   a cross-shard ``ChunkMerger`` straight into the backend.  Because each
   spilled batch is bounded and rows stream from disk into
   ``backend.insert_rows``, no shard's full row set is ever materialized in
   the parent; the parent's merge work is proportional to the already
   deduplicated shard output, not to the raw document.

The result is identical (canonical form — surrogate keys are process-local,
see :func:`~repro.runtime.executor.canonical_table_rows`) to whole-tree and
serial streamed execution, for the same record-local program class the
streaming layer documents.

Every spill file carries a begin header and an end manifest (shard index,
plan fingerprint, per-table row counts).  A worker crash, a truncated file,
or a spill produced by a different plan surfaces as :class:`ShardError` at
reduce time — never as silently missing rows.

What a record is, and how a window of records is read, is defined once, in
:mod:`repro.runtime.streaming`: :func:`~repro.runtime.streaming.shard_source`
wraps an in-memory :class:`~repro.hdt.tree.HDT`, an XML or JSON document on
disk, or a directory of documents as a :class:`~repro.runtime.streaming.
ShardSource`.  This module only partitions, maps and reduces.

The map stage is *supervised* (:class:`~repro.runtime.supervisor.
ShardSupervisor`): each shard runs as isolated per-attempt processes with
retries, per-shard timeouts, and — when a shard exhausts its attempts —
graceful degradation into :class:`ShardDegradedError` instead of a mid-run
abort.  Failures can be induced deterministically with a
:class:`~repro.runtime.faults.FaultPlan` (``faults=`` / ``REPRO_FAULTS``).
See docs/robustness.md.

*Where* the map stage runs is pluggable (:class:`~repro.runtime.transport.
ShardTransport`, docs/distributed.md): the default
:class:`~repro.runtime.transport.LocalTransport` keeps the single-machine
process pool above, while a :class:`~repro.runtime.transport.
SocketTransport` ships shards to remote ``repro worker`` processes and
streams their validated spill frames back — the reduce stage cannot tell
the difference.  ``shards="auto"`` sizes the partition from the record
count, core count, and chunk size (:func:`auto_shard_count`), and XML
sources index record byte offsets during the counting pass
(:func:`~repro.hdt.xml_plugin.build_xml_record_index`) so every shard —
local or remote — seeks straight to its range instead of re-parsing the
whole document.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..hdt.tree import HDT
from .backends.base import ExecutionBackend, Row
from .backends.memory import MemoryBackend
from .executor import ChunkMerger, ExecutionReport, compile_plan_executions, run_chunk
from .faults import FaultContext, FaultPlan, activation as fault_activation, resolve_plan
from .plan import MigrationPlan
from .streaming import DEFAULT_CHUNK_SIZE, ShardError, ShardSource, shard_source
from .supervisor import RetryPolicy, ShardFailure, ShardSupervisor
from .transport import LocalTransport, ShardMapJob, ShardTransport

#: Rows per spilled batch — bounds both worker buffering and parent replay.
SPILL_BATCH_ROWS = 4096

_SPILL_MAGIC = "repro-shard-spill/1"


class ShardDegradedError(ShardError):
    """Some shards failed permanently; the rest completed (and, with a
    checkpoint, are preserved for ``resume``).  The degradation contract
    (docs/robustness.md#degradation-contract): the backend is never touched
    — no partial target is ever written — and ``failures`` /``report`` carry
    the structured :class:`~repro.runtime.supervisor.ShardFailure` list and
    the partial :class:`~repro.runtime.executor.ExecutionReport`."""

    def __init__(
        self,
        failures: List[ShardFailure],
        report: ExecutionReport,
        *,
        resumable: bool = False,
    ) -> None:
        self.failures = failures
        self.report = report
        self.resumable = resumable
        summary = "; ".join(failure.describe() for failure in failures)
        message = (
            f"{len(failures)} of {report.shards} shard(s) failed permanently "
            f"({summary})"
        )
        if resumable:
            message += "; completed shards are checkpointed — fix the cause and resume"
        super().__init__(message)


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardSpec:
    """One shard's contiguous record window ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def records(self) -> int:
        return self.stop - self.start


def partition_records(total: int, shards: int) -> List[ShardSpec]:
    """Split ``total`` records into ``shards`` contiguous, balanced ranges.

    Always returns exactly ``shards`` specs; when there are fewer records
    than shards the trailing specs are empty (a worker with an empty range
    produces an empty — but still validated — spill).

    >>> [(s.start, s.stop) for s in partition_records(10, 3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1 (got {shards})")
    if total < 0:
        raise ShardError(f"record count must be >= 0 (got {total})")
    base, remainder = divmod(total, shards)
    specs: List[ShardSpec] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        specs.append(ShardSpec(index=index, start=start, stop=start + size))
        start += size
    return specs


#: Records a shard must amortize before fan-out pays for itself: below
#: roughly this many records per shard, process/transport overhead dominates
#: (fan-out only pays past 1 core *and* a non-trivial range).
MIN_AUTO_SHARD_RECORDS = 512


def auto_shard_count(
    records: int,
    cores: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Pick a shard count from the workload: records × cores × chunk size.

    The heuristic (docs/distributed.md#shard-count-auto-tuning): one shard
    per core, but never so many that a shard holds fewer than two chunks'
    worth of records (or :data:`MIN_AUTO_SHARD_RECORDS`, whichever is
    larger) — a shard that cannot fill two chunks spends its time on
    process/transport overhead, not parsing.  Single-core machines and
    empty documents get one shard: fan-out cannot pay there at all.
    """
    if cores is None:
        cores = os.cpu_count() or 1
    if cores <= 1 or records <= 0:
        return 1
    per_shard = max(2 * chunk_size, MIN_AUTO_SHARD_RECORDS)
    return max(1, min(cores, records // per_shard))


def resolve_shard_count(
    shards: Union[int, str],
    records: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cores: Optional[int] = None,
) -> int:
    """Resolve a ``shards`` argument: an integer, or ``"auto"`` for
    :func:`auto_shard_count` (the ``--shards auto`` CLI path)."""
    if isinstance(shards, str):
        if shards.strip().lower() != "auto":
            raise ShardError(f'shards must be an integer or "auto" (got {shards!r})')
        return auto_shard_count(records, cores=cores, chunk_size=chunk_size)
    return int(shards)


# --------------------------------------------------------------------------- #
# The spill protocol (worker → reducer)
# --------------------------------------------------------------------------- #


def _spill_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"shard-{index:05d}.spill")


class SpillWriter:
    """Append a shard's deduplicated row batches to its spill file.

    Wire format: a pickle stream of messages — ``("begin", header)`` once,
    any number of ``("rows", table, rows)`` batches (each at most
    ``batch_rows`` rows, in worker processing order), and ``("end",
    manifest)`` exactly once.  The end manifest repeats the per-table row
    counts, which is what lets the reducer distinguish "shard finished with
    few rows" from "worker died mid-write".
    """

    def __init__(
        self,
        path: str,
        shard_index: int,
        plan_fingerprint: str,
        *,
        batch_rows: int = SPILL_BATCH_ROWS,
        faults: Optional[FaultContext] = None,
    ) -> None:
        self.path = path
        self.shard_index = shard_index
        self.plan_fingerprint = plan_fingerprint
        self.batch_rows = max(1, batch_rows)
        self.per_table_rows: Dict[str, int] = {}
        self.batches = 0
        self._faults = faults
        self._handle = open(path, "wb")
        self._dump(
            (
                "begin",
                {
                    "magic": _SPILL_MAGIC,
                    "shard": shard_index,
                    "plan_fingerprint": plan_fingerprint,
                },
            )
        )

    def _dump(self, message) -> None:
        pickle.dump(message, self._handle, protocol=pickle.HIGHEST_PROTOCOL)

    def _spill_batch(self, table: str, batch: List[Row]) -> None:
        if self._faults is not None:
            self._faults.spill_write(self._handle)
        self._dump(("rows", table, batch))
        self.batches += 1

    def write_rows(self, table: str, rows) -> int:
        """Spill a row stream in bounded batches; returns the rows written."""
        written = 0
        batch: List[Row] = []
        for row in rows:
            batch.append(row)
            if len(batch) >= self.batch_rows:
                self._spill_batch(table, batch)
                written += len(batch)
                batch = []
        if batch:
            self._spill_batch(table, batch)
            written += len(batch)
        self.per_table_rows[table] = self.per_table_rows.get(table, 0) + written
        return written

    def finish(self, *, chunks: int, records: int) -> Dict[str, object]:
        manifest: Dict[str, object] = {
            "shard": self.shard_index,
            "chunks": chunks,
            "records": records,
            "batches": self.batches,
            "per_table_rows": dict(self.per_table_rows),
        }
        self._dump(("end", manifest))
        self._handle.flush()
        self._handle.close()
        return manifest


def iter_spill(
    path: str,
    *,
    plan_fingerprint: str,
    shard_index: int,
    manifest_out: Optional[Dict[str, object]] = None,
) -> Iterator[Tuple[str, List[Row]]]:
    """Replay a spill file's row batches, validating the framing as it goes.

    Raises :class:`ShardError` — naming the shard and what is wrong — on a
    missing file, a foreign or mismatched header, a truncated stream (no end
    manifest), or per-table row counts that do not match the manifest.
    Validation is interleaved with replay, so a truncation is detected even
    though batches stream to the caller before the end marker is read.

    Pass a dict as ``manifest_out`` to receive the validated end manifest
    (shard index, chunk/record/row counts) once the stream completes.
    """
    where = f"shard {shard_index} spill {path}"
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise ShardError(f"{where} is missing: {error}") from error
    counts: Dict[str, int] = {}
    batches = 0
    with handle:
        try:
            kind, header = pickle.load(handle)
        except (EOFError, pickle.UnpicklingError, ValueError, TypeError) as error:
            raise ShardError(f"{where} has no readable header: {error}") from error
        if kind != "begin" or header.get("magic") != _SPILL_MAGIC:
            raise ShardError(f"{where} is not a shard spill file")
        if header.get("shard") != shard_index:
            raise ShardError(
                f"{where} belongs to shard {header.get('shard')}, expected {shard_index}"
            )
        if header.get("plan_fingerprint") != plan_fingerprint:
            raise ShardError(
                f"{where} was produced by a different plan "
                f"({header.get('plan_fingerprint')} != {plan_fingerprint})"
            )
        while True:
            try:
                message = pickle.load(handle)
            except EOFError as error:
                raise ShardError(
                    f"{where} is truncated: stream ended before the end-of-shard "
                    f"manifest (worker died mid-write?)"
                ) from error
            except pickle.UnpicklingError as error:
                raise ShardError(f"{where} is corrupt: {error}") from error
            if message[0] == "rows":
                _, table, rows = message
                counts[table] = counts.get(table, 0) + len(rows)
                batches += 1
                yield table, rows
                continue
            if message[0] == "end":
                manifest = message[1]
                declared = {
                    table: count
                    for table, count in (manifest.get("per_table_rows") or {}).items()
                    if count
                }
                if declared != counts or manifest.get("batches") != batches:
                    raise ShardError(
                        f"{where} row counts do not match its manifest "
                        f"(replayed {counts}, manifest {manifest.get('per_table_rows')})"
                    )
                if manifest_out is not None:
                    manifest_out.update(manifest)
                return
            raise ShardError(f"{where} contains unknown message {message[0]!r}")


def validate_spill(
    path: str, *, plan_fingerprint: str, shard_index: int
) -> Dict[str, object]:
    """Fully replay a spill file for validation only; returns its end manifest.

    This is the checkpoint/resume primitive: a spill that replays cleanly end
    to end (header, every batch, counts matching the end manifest) proves its
    shard completed, whoever wrote it and however the writing process died
    afterwards.  Raises :class:`ShardError` exactly as :func:`iter_spill`
    would.
    """
    manifest: Dict[str, object] = {}
    for _table, _rows in iter_spill(
        path,
        plan_fingerprint=plan_fingerprint,
        shard_index=shard_index,
        manifest_out=manifest,
    ):
        pass
    return manifest


# --------------------------------------------------------------------------- #
# The map stage (runs in workers)
# --------------------------------------------------------------------------- #


def _surrogate_key_columns(schema) -> Dict[str, List[int]]:
    """Per table: the column indices that carry *generated* surrogate keys.

    That is the table's own primary key (unless natural-keyed) plus every
    foreign-key column whose target table is surrogate-keyed — the same
    column set :class:`ChunkMerger` rewrites through its alias table.
    """
    tables = {t.name: t for t in schema.tables}
    columns: Dict[str, List[int]] = {}
    for table in schema.tables:
        names = table.column_names
        indices = set()
        if not table.natural_keys and table.primary_key is not None:
            indices.add(names.index(table.primary_key))
        for fk in table.foreign_keys:
            if not tables[fk.target_table].natural_keys:
                indices.add(names.index(fk.column))
        if indices:
            columns[table.name] = sorted(indices)
    return columns


def _namespace_keys(rows, prefix: str, indices: List[int]):
    """Prefix a shard's generated keys so they are globally unique.

    Surrogate keys concatenate node uids (``key_of``), and uids come from a
    process-wide counter — forked workers start from the same counter value,
    so two shards can mint the *same* key for *different* rows.  Keys are
    opaque and process-arbitrary by design (parity is canonical, see
    ``canonical_table_rows``), and at spill time every foreign-key reference
    still points within its own shard, so prefixing the shard index onto
    each generated key (and each reference to one) restores uniqueness
    without touching the reconciliation mechanics.
    """
    for row in rows:
        values = list(row)
        for index in indices:
            value = values[index]
            if value is not None:
                values[index] = prefix + value
        yield tuple(values)


def execute_shard(
    plan: MigrationPlan,
    source: ShardSource,
    spec: ShardSpec,
    *,
    chunk_size: int,
    spill_path: str,
    plan_fingerprint: Optional[str] = None,
    executions=None,
    faults: Optional[FaultPlan] = None,
    attempt: int = 1,
    in_process: bool = False,
) -> Dict[str, object]:
    """Execute one shard's record window and spill its deduplicated rows.

    The shard runs exactly like serial :func:`~repro.runtime.streaming.
    stream_execute` over its chunks — the same :func:`~repro.runtime.executor.
    run_chunk` kernel through a shard-local :class:`ChunkMerger` — except
    rows land, keys namespaced, in the spill file instead of a backend.
    Returns the end manifest.

    ``faults``/``attempt``/``in_process`` wire the fault-injection harness
    into this attempt (worker-start and spill-write sites); a ``None`` plan
    costs a single ``is None`` check per site.
    """
    if executions is None:
        executions = compile_plan_executions(plan)
    if plan_fingerprint is None:
        plan_fingerprint = plan.content_fingerprint()
    context = (
        FaultContext(faults, shard=spec.index, attempt=attempt, in_process=in_process)
        if faults
        else None
    )
    if context is not None:
        context.worker_start()
    merger = ChunkMerger(plan.schema)
    key_columns = _surrogate_key_columns(plan.schema)
    key_prefix = f"s{spec.index}:"
    writer = SpillWriter(spill_path, spec.index, plan_fingerprint, faults=context)

    def emit(table_name: str, rows) -> None:
        indices = key_columns.get(table_name)
        if indices:
            rows = _namespace_keys(rows, key_prefix, indices)
        writer.write_rows(table_name, rows)

    chunks = 0
    records = 0
    for chunk in source.iter_chunks(spec.start, spec.stop, chunk_size):
        run_chunk(plan, executions, chunk.tree, merger, emit)
        chunks += 1
        records += chunk.records
    return writer.finish(chunks=chunks, records=records)


def _attempt_shard(payload: Dict[str, object], attempt: int) -> Dict[str, object]:
    """One supervised shard attempt (the :class:`ShardSupervisor` worker).

    Module-level and payload-driven so a child process
    (:class:`~repro.runtime.supervisor.ChildProcesses`) can pickle it under
    any start method.  Compiled executions ride along only on the in-process
    path (compiled programs hold closures, which do not pickle); a worker
    process compiles the plan itself, once per attempt.  ``execute_shard``
    is resolved late through the module so tests can monkeypatch it.
    """
    return execute_shard(
        payload["plan"],
        payload["source"],
        payload["spec"],
        chunk_size=payload["chunk_size"],
        spill_path=payload["spill_path"],
        plan_fingerprint=payload["fingerprint"],
        executions=payload.get("executions"),
        faults=payload.get("faults"),
        attempt=attempt,
        in_process=bool(payload.get("in_process")),
    )


# --------------------------------------------------------------------------- #
# The reduce stage + driver
# --------------------------------------------------------------------------- #


def shard_execute(
    plan: MigrationPlan,
    source: Union[ShardSource, HDT, str],
    backend: Optional[ExecutionBackend] = None,
    *,
    shards: Union[int, str] = 2,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
    checkpoint=None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    faults: Union[FaultPlan, str, None] = None,
    transport: Optional[ShardTransport] = None,
) -> ExecutionReport:
    """Execute a plan over record shards in parallel processes.

    ``shards`` is an integer or ``"auto"``, which sizes the partition from
    the record count, the core count, and ``chunk_size``
    (:func:`auto_shard_count`).  ``workers`` caps concurrent shard processes
    (default: one per shard, bounded by the CPU count; ``0``/``1`` executes
    the shards in-process, still through the full spill/reduce protocol —
    useful for tests and for machines where fork is expensive).
    ``spill_dir`` keeps the per-shard spill files in a caller-managed
    directory; by default a temporary directory is used and removed when
    execution finishes.

    ``transport`` chooses *where* the map stage runs
    (docs/distributed.md): the default
    :class:`~repro.runtime.transport.LocalTransport` is the process pool
    described above; a :class:`~repro.runtime.transport.SocketTransport`
    ships shards to remote ``repro worker`` processes and streams their
    validated spill frames back.  Every transport satisfies the same
    contract — a spill file per shard that replays cleanly under this
    plan's fingerprint — so the reduce stage (and the output) is identical.
    A caller-provided transport is *not* closed here.

    The map stage is supervised (docs/robustness.md): a shard attempt that
    dies, times out (``shard_timeout`` seconds — forces process isolation),
    or raises a transient error is re-dispatched under ``retry_policy``
    (default :class:`~repro.runtime.supervisor.RetryPolicy`: 3 attempts,
    exponential backoff with deterministic jitter).  A shard that exhausts
    its attempts degrades the run: every other shard still completes (and
    checkpoints), no backend write happens, and :class:`ShardDegradedError`
    carries the structured failure list plus the partial report.  ``faults``
    (a :class:`~repro.runtime.faults.FaultPlan`, a spec string, or the
    ``REPRO_FAULTS`` environment variable) injects deterministic failures
    for testing; unset, the hooks cost nothing.

    ``checkpoint`` makes the run *resumable*: pass a
    :class:`~repro.runtime.service.checkpoint.ShardCheckpoint` (or anything
    with its ``directory`` / ``begin`` / ``mark_complete`` / ``finish``
    surface) and spill files persist in the checkpoint directory, with a
    manifest updated as each shard completes.  With ``resume=True``, shards
    whose checkpointed spill replays cleanly end to end are *not*
    re-executed — the reducer consumes the existing spill.  A fingerprint,
    shard-count or chunk-size mismatch against the stored manifest raises
    :class:`ShardError` under ``resume`` (and starts fresh otherwise).  On
    success the checkpoint is cleared.  ``resume`` without a checkpoint is
    an error; ``checkpoint`` and ``spill_dir`` are mutually exclusive.

    ``progress`` is called as ``progress(completed_shards, total_shards)``
    once after checkpoint recovery and again as each shard's map completes;
    an exception raised from the callback aborts the run (checkpointed
    spills survive for a later resume) — this is the cancellation hook the
    migration service uses.

    Examples
    --------
    >>> from repro.datasets import dblp
    >>> from repro.runtime import MigrationPlan, shard_execute
    >>> bundle = dblp.dataset(scale=2)
    >>> plan = MigrationPlan.learn(bundle.migration_spec())
    >>> report = shard_execute(plan, bundle.generate(2), shards=2, workers=1)
    >>> report.total_rows, report.shards
    (30, 2)
    """
    resolved = shard_source(source)
    if chunk_size <= 0:
        raise ShardError(f"chunk_size must be positive (got {chunk_size})")
    if resume and checkpoint is None:
        raise ShardError("resume=True needs a checkpoint")
    if checkpoint is not None and spill_dir is not None:
        raise ShardError("checkpoint and spill_dir are mutually exclusive")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ShardError(f"shard_timeout must be positive (got {shard_timeout})")
    fault_plan = resolve_plan(faults)
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    backend = backend if backend is not None else MemoryBackend()
    start = time.perf_counter()
    total_records = resolved.count_records()
    shard_count = resolve_shard_count(shards, total_records, chunk_size=chunk_size)
    specs = partition_records(total_records, shard_count)
    fingerprint = plan.content_fingerprint()
    completed: Dict[int, Dict[str, object]] = {}
    if checkpoint is not None:
        own_spill_dir = False
        directory = checkpoint.directory
        completed = checkpoint.begin(
            plan_fingerprint=fingerprint,
            shards=len(specs),
            chunk_size=chunk_size,
            records=total_records,
            resume=resume,
        )
    else:
        own_spill_dir = spill_dir is None
        directory = spill_dir if spill_dir is not None else tempfile.mkdtemp(prefix="repro-shards-")
    os.makedirs(directory, exist_ok=True)
    pending = [spec for spec in specs if spec.index not in completed]
    if workers is None:
        workers = min(len(specs), os.cpu_count() or 1)
    report = ExecutionReport(backend=backend, chunks=0, shards=len(specs))
    report.shards_resumed = len(completed)
    report.shards_executed = len(pending)
    report.per_table_rows = {t.name: 0 for t in plan.schema.tables}
    manifests: Dict[int, Dict[str, object]] = dict(completed)

    def _shard_done(index: int, manifest: Dict[str, object]) -> None:
        manifests[index] = manifest
        if checkpoint is not None:
            checkpoint.mark_complete(index, manifest)
        if progress is not None:
            progress(len(manifests), len(specs))

    map_transport = transport if transport is not None else LocalTransport()
    report.transport = map_transport.name
    job = ShardMapJob(
        plan=plan,
        fingerprint=fingerprint,
        source=resolved,
        specs=pending,
        chunk_size=chunk_size,
        spill_paths={spec.index: _spill_path(directory, spec.index) for spec in specs},
        scratch_dir=directory,
        policy=policy,
        workers=workers,
        shard_timeout=shard_timeout,
        faults=fault_plan,
        on_complete=_shard_done,
    )
    try:
        if progress is not None:
            progress(len(manifests), len(specs))
        # Map: fill the spill files under transport-specific supervision.
        # ``_shard_done`` runs in this process the moment each shard
        # finishes, so the checkpoint manifest — and the caller's progress —
        # never wait on stragglers.  The ambient fault activation covers the
        # reduce stage's backend-insert hook (the map stage carries the plan
        # explicitly).
        with fault_activation(fault_plan):
            outcome = map_transport.run_map(job)
            report.shards_retried = outcome.retries
            report.chunks = sum(int(m["chunks"]) for m in manifests.values())
            if outcome.failures:
                # Degrade, never partially write: completed shards are already
                # checkpointed, the backend was never opened.
                report.shards_failed = len(outcome.failures)
                report.shard_failures = [f.to_json() for f in outcome.failures]
                raise ShardDegradedError(
                    sorted(outcome.failures, key=lambda f: f.shard),
                    report,
                    resumable=checkpoint is not None,
                )
            # Reduce: replay spills in shard order through the cross-shard
            # merger, streaming batch by batch into the backend.
            backend.begin(plan.schema)
            try:
                merger = ChunkMerger(plan.schema)
                for spec in specs:
                    replay = iter_spill(
                        _spill_path(directory, spec.index),
                        plan_fingerprint=fingerprint,
                        shard_index=spec.index,
                    )
                    for table, rows in replay:
                        report.per_table_rows[table] += backend.insert_rows(
                            table, merger.iter_merge(table, rows)
                        )
                backend.finalize()
            except BaseException:
                # A reduce-stage failure aborts the backend: close() before
                # finalize() lets it release resources and scrub partial
                # output (the streaming columnar backend removes its
                # half-written batch files and never leaves a manifest
                # pointing at unreadable data).  close() is idempotent, so
                # callers that also clean up are unaffected.
                try:
                    backend.close()
                except Exception:
                    pass
                raise
    finally:
        if own_spill_dir:
            shutil.rmtree(directory, ignore_errors=True)
    if checkpoint is not None:
        checkpoint.finish()
    report.execution_time = time.perf_counter() - start
    return report
