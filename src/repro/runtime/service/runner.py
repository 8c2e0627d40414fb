"""The job runner: executes service jobs on a bounded worker pool.

One :class:`JobRunner` lives inside the daemon process and owns everything a
single CLI invocation would have had to rebuild from scratch:

* a warm :class:`~repro.runtime.plan_cache.PlanCache` *and* an in-memory plan
  memo — the second ``migrate`` job for the same spec costs a dictionary
  lookup, not a disk read, and never a synthesis;
* a warm :class:`~repro.runtime.context_store.ContextStore` for
  ``"incremental": true`` jobs, so edited specs re-synthesize only the
  affected tables;
* a :class:`~concurrent.futures.ThreadPoolExecutor` capping concurrent jobs
  (the *shard* parallelism inside one job still uses processes via
  :func:`~repro.runtime.sharded.shard_execute`);
* one checkpoint directory per job (``<state-dir>/checkpoints/<job-id>``),
  which is what makes an interrupted job resumable after a daemon restart.

Cancellation is cooperative: the HTTP handler sets the job's
:class:`threading.Event`, and the progress callback the runner threads into
``shard_execute`` raises :class:`JobCancelled` at the next shard boundary —
exactly the granularity the checkpoint records, so a cancelled job resumes
as cleanly as an interrupted one.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..backends import OUTPUT_KIND, create_backend
from ..backends.base import ExecutionBackend
from ..backends.null import NullBackend
from ..executor import ExecutionReport, execute_plan
from ..plan import MigrationPlan
from ..plan_cache import PlanCache, spec_fingerprint
from ..sharded import ShardDegradedError, shard_execute
from ..streaming import DEFAULT_CHUNK_SIZE, stream_execute
from ..supervisor import RetryPolicy
from ..transport import SocketTransport
from ..verify import read_target_indexes, read_target_rows, verify_rows
from .checkpoint import ShardCheckpoint
from .jobs import TERMINAL_STATES, Job, JobError, JobStore

#: Job states :meth:`JobRunner.resume` accepts.
RESUMABLE_STATES = frozenset({"interrupted", "failed", "cancelled"})


class JobCancelled(Exception):
    """Raised inside a worker thread when the job's cancel event is set."""


class JobRunner:
    """Execute service jobs against one state directory.

    Parameters
    ----------
    state_dir:
        Root of the daemon's durable state: ``jobs/`` (records),
        ``plan-cache/``, ``context/``, ``checkpoints/<job-id>/`` and
        ``outputs/``.
    max_workers:
        Concurrent jobs (default 2).  Each job may itself fan out into
        shard worker processes.
    """

    def __init__(self, state_dir: str, *, max_workers: int = 2) -> None:
        self.state_dir = os.path.abspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.store = JobStore(os.path.join(self.state_dir, "jobs"))
        self.plan_cache = PlanCache(os.path.join(self.state_dir, "plan-cache"))
        self.context_dir = os.path.join(self.state_dir, "context")
        self._plans: Dict[str, MigrationPlan] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, max_workers), thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------- lifecycle
    def start(self) -> List[Job]:
        """Recover persisted state and re-enqueue submitted-but-unstarted jobs.

        Jobs that were ``running`` when the previous daemon died become
        ``interrupted`` (an explicit resume re-enqueues them with their
        checkpoint); jobs that were still ``queued`` lost nothing and go
        straight back on the pool.  Returns the interrupted jobs.
        """
        interrupted = self.store.recover()
        for job in self.store.list():
            if job.state == "queued":
                self._enqueue(job)
        return interrupted

    def close(self, wait: bool = True) -> None:
        with self._lock:
            for event in self._cancel_events.values():
                event.set()
        self._executor.shutdown(wait=wait)

    # ------------------------------------------------------------ job intake
    def submit(self, kind: str, params: Dict[str, object]) -> Job:
        job = self.store.create(kind, params)
        self._enqueue(job)
        return job

    def cancel(self, job_id: str) -> Job:
        job = self.store.get(job_id)
        if job.state in TERMINAL_STATES:
            raise JobError(f"job {job_id} is already {job.state}; nothing to cancel")
        with self._lock:
            event = self._cancel_events.get(job_id)
        if event is not None:
            event.set()
        return self.store.get(job_id)

    def resume(self, job_id: str) -> Job:
        """Re-enqueue an interrupted/failed/cancelled job.

        The job keeps its checkpoint directory, so the sharded map stage
        skips every shard whose spill file validates.
        """
        job = self.store.get(job_id)
        if job.state not in RESUMABLE_STATES:
            raise JobError(
                f"job {job_id} is {job.state}; only "
                f"{', '.join(sorted(RESUMABLE_STATES))} jobs can be resumed"
            )
        job.state = "queued"
        job.error = None
        job.error_detail = None
        job.report = None
        job.finished_at = None
        job.resumes += 1
        self.store.save(job)
        self._enqueue(job)
        return job

    def _enqueue(self, job: Job) -> None:
        event = threading.Event()
        with self._lock:
            self._cancel_events[job.id] = event
        self._executor.submit(self._run_job, job.id, event)

    # ---------------------------------------------------------- job dispatch
    def _run_job(self, job_id: str, cancel_event: threading.Event) -> None:
        job = self.store.get(job_id)
        if job.state != "queued":  # raced with a cancel or a duplicate enqueue
            return
        if cancel_event.is_set():
            job.state = "cancelled"
            job.error = "cancelled before starting"
            job.finished_at = time.time()
            self.store.save(job)
            return
        job.state = "running"
        job.started_at = time.time()
        self.store.save(job)
        try:
            if job.kind == "learn":
                report = self._run_learn(job)
            elif job.kind in ("run", "migrate"):
                report = self._run_migration(job, cancel_event)
            elif job.kind == "verify":
                report = self._run_verify(job)
            else:
                raise JobError(f"unknown job kind {job.kind!r}")
        except JobCancelled:
            job.state = "cancelled"
            job.error = "cancelled"
        except ShardDegradedError as error:
            # A degraded sharded run is a failure, but a *structured* one:
            # the partial report (with its shard_failures list) is kept so
            # GET /jobs/<id>/report shows exactly which shards died and why,
            # and the checkpoint still holds every completed shard.
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            job.error_detail = "\n".join(
                failure.traceback or failure.describe() for failure in error.failures
            ) or traceback.format_exc()
            job.report = error.report.to_json()
        except Exception as error:  # noqa: BLE001 — any failure ends the job
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            job.error_detail = traceback.format_exc()
        else:
            job.state = "succeeded"
            job.report = report
        job.finished_at = time.time()
        self.store.save(job)
        with self._lock:
            self._cancel_events.pop(job_id, None)

    # ----------------------------------------------------------------- specs
    def _build_spec(self, job: Job):
        # Imported lazily: repro.runtime.cli imports this package for the
        # `serve` subcommand, so a module-level import would be circular.
        from ..cli import Spec

        params = job.params
        if params.get("spec_path"):
            return Spec.load(str(params["spec_path"]))
        payload = params.get("spec")
        if not isinstance(payload, dict):
            raise JobError(
                'job params need an inline "spec" object or a "spec_path"'
            )
        base_dir = str(params.get("base_dir") or self.state_dir)
        return Spec(dict(payload), base_dir)

    def _acquire_plan(
        self, job: Job, spec, *, allow_learn: bool
    ) -> Tuple[MigrationPlan, str]:
        """Plan for a job: explicit file > warm memo > disk cache > synthesis."""
        plan_path = job.params.get("plan")
        if plan_path:
            path = spec.resolve(str(plan_path))
            return MigrationPlan.load(path), f"loaded from {path}"
        migration_spec = spec.migration_spec()
        fingerprint = spec_fingerprint(migration_spec)
        with self._lock:
            memoized = self._plans.get(fingerprint)
        if memoized is not None:
            return memoized, "warm (daemon memory)"
        cached = self.plan_cache.load(migration_spec)
        if cached is not None:
            with self._lock:
                self._plans[fingerprint] = cached
            return cached, "cache hit (daemon plan cache)"
        if not allow_learn:
            raise JobError(
                'run jobs need a "plan" param or a previously learned spec '
                "(submit a learn or migrate job first)"
            )
        jobs = int(job.params.get("jobs") or 1)
        if job.params.get("incremental"):
            from ..context_store import ContextStore
            from ..incremental import learn_incremental

            store = ContextStore(self.context_dir)
            plan, report = learn_incremental(migration_spec, store, jobs=jobs)
            synthesized = len(report.tables_synthesized)
            provenance = (
                f"incremental ({synthesized}/{report.tables_total} tables "
                f"synthesized)"
            )
        else:
            plan = MigrationPlan.learn(migration_spec, jobs=jobs)
            provenance = "synthesized"
        plan.source_format = spec.format
        self.plan_cache.store(migration_spec, plan)
        with self._lock:
            self._plans[fingerprint] = plan
        return plan, provenance

    # ---------------------------------------------------------------- learn
    def _run_learn(self, job: Job) -> Dict[str, object]:
        spec = self._build_spec(job)
        plan, provenance = self._acquire_plan(job, spec, allow_learn=True)
        job.provenance = provenance
        plans_dir = os.path.join(self.state_dir, "plans")
        os.makedirs(plans_dir, exist_ok=True)
        plan_path = os.path.join(plans_dir, f"{job.id}.plan.json")
        plan.save(plan_path)
        return {
            "kind": "repro_learn_report",
            "plan_fingerprint": plan.content_fingerprint(),
            "tables": [t.name for t in plan.execution_order()],
            "plan_path": plan_path,
            "provenance": provenance,
        }

    # -------------------------------------------------------------- run/migrate
    def _run_migration(
        self, job: Job, cancel_event: threading.Event
    ) -> Dict[str, object]:
        spec = self._build_spec(job)
        plan, provenance = self._acquire_plan(
            job, spec, allow_learn=(job.kind == "migrate")
        )
        job.provenance = provenance
        self.store.save(job)
        if plan.source_format and not spec.get("format") and not spec.get("dataset"):
            spec.default_format = plan.source_format
        params = job.params
        dry_run = bool(params.get("dry_run"))
        backend, output = self._make_backend(job, spec, dry_run=dry_run)
        delay = float(params.get("shard_delay") or 0.0)

        def progress(done: int, total: int) -> None:
            if cancel_event.is_set():
                raise JobCancelled()
            job.progress = {"shards_done": done, "shards_total": total}
            self.store.save(job)
            if delay:
                time.sleep(delay)

        try:
            report = self._execute(job, spec, plan, backend, progress)
        except Exception:
            self._discard_output(backend, output)
            raise
        report.dry_run = dry_run
        if hasattr(backend, "close"):
            backend.close()
        payload = report.to_json()
        payload["output"] = output
        payload["provenance"] = provenance
        return payload

    def _execute(
        self, job: Job, spec, plan: MigrationPlan, backend: ExecutionBackend, progress
    ) -> ExecutionReport:
        params = job.params
        chunk_size = int(params.get("chunk_size") or spec.get_int("chunk_size", DEFAULT_CHUNK_SIZE))
        if params.get("streaming"):
            return stream_execute(plan, spec.document_chunks(chunk_size), backend)
        if params.get("whole_tree"):
            return execute_plan(plan, spec.full_document(), backend)
        workers = params.get("workers", spec.get("workers"))
        workers = None if workers is None else int(workers)
        raw_shards = params.get("shards") or spec.get("shards") or 4
        if isinstance(raw_shards, str) and raw_shards.strip().lower() == "auto":
            shards: object = "auto"
        else:
            shards = int(raw_shards)
        checkpoint = ShardCheckpoint(
            os.path.join(self.state_dir, "checkpoints", job.id)
        )
        shard_timeout = params.get("shard_timeout")
        remote_workers = params.get("remote_workers") or spec.get("remote_workers")
        transport = SocketTransport(remote_workers) if remote_workers else None
        try:
            return shard_execute(
                plan,
                spec.sharded_source(),
                backend,
                shards=shards,
                chunk_size=chunk_size,
                workers=workers,
                checkpoint=checkpoint,
                resume=job.resumes > 0,
                progress=progress,
                retry_policy=RetryPolicy.for_retries(params.get("shard_retries")),
                shard_timeout=None if shard_timeout is None else float(shard_timeout),
                faults=params.get("inject_faults"),
                transport=transport,
            )
        finally:
            if transport is not None:
                transport.close()

    def _make_backend(
        self, job: Job, spec, *, dry_run: bool
    ) -> Tuple[ExecutionBackend, Optional[str]]:
        if dry_run:
            return NullBackend(), None
        from ..backends import BACKEND_NAMES

        backend_name = str(job.params.get("backend") or spec.get("backend") or "sqlite")
        if backend_name not in BACKEND_NAMES:
            raise JobError(
                f"unknown backend {backend_name!r} "
                f"(available: {', '.join(BACKEND_NAMES)})"
            )
        kind = OUTPUT_KIND[backend_name]
        explicit = job.params.get("output") or spec.get("output")
        if kind is None:
            output = None
        elif explicit:
            output = spec.resolve(str(explicit))
            if os.path.exists(output) and not job.params.get("force") and job.resumes == 0:
                raise JobError(
                    f"output {output} already exists (pass \"force\": true)"
                )
        else:
            outputs = os.path.join(self.state_dir, "outputs")
            os.makedirs(outputs, exist_ok=True)
            output = os.path.join(outputs, job.id + (".db" if kind == "file" else ""))
        if output is not None and os.path.exists(output):
            # A resumed job's earlier reduce may have left a partial target;
            # the reduce always restarts from the spills, so clear it.
            self._remove_output(output)
        options = {}
        if job.params.get("columnar_format"):
            options["file_format"] = job.params["columnar_format"]
        return create_backend(backend_name, output, **options), output

    @staticmethod
    def _remove_output(output: str) -> None:
        if os.path.isdir(output):
            shutil.rmtree(output, ignore_errors=True)
        elif os.path.exists(output):
            os.remove(output)

    def _discard_output(self, backend: ExecutionBackend, output: Optional[str]) -> None:
        """Never leave a partial target behind a failed or cancelled job."""
        try:
            if hasattr(backend, "close"):
                backend.close()
        except Exception:  # noqa: BLE001 — cleanup must not mask the cause
            pass
        if output is not None:
            self._remove_output(output)

    # --------------------------------------------------------------- verify
    def _run_verify(self, job: Job) -> Dict[str, object]:
        params = dict(job.params)
        expected: Optional[Dict[str, int]] = None
        if params.get("job"):
            source = self.store.get(str(params["job"]))
            if source.state != "succeeded" or source.report is None:
                raise JobError(
                    f"job {source.id} is {source.state}; verify needs a "
                    f"succeeded run/migrate job"
                )
            params.setdefault("backend", source.report.get("backend"))
            params.setdefault("output", source.report.get("output"))
            for key in ("spec", "spec_path", "base_dir", "plan"):
                if key in source.params:
                    params.setdefault(key, source.params[key])
            counts = source.report.get("per_table_rows")
            if isinstance(counts, dict):
                expected = {str(t): int(n) for t, n in counts.items()}
        if isinstance(params.get("expect"), dict):
            expected = {str(t): int(n) for t, n in params["expect"].items()}
        verify_job = Job(id=job.id, kind="verify", params=params)
        spec = self._build_spec(verify_job)
        plan, provenance = self._acquire_plan(verify_job, spec, allow_learn=True)
        job.provenance = provenance
        if expected is None:
            # Re-derive the expected counts with the dry-run counting pass.
            counting = NullBackend()
            execute_plan(plan, spec.full_document(), counting)
            expected = dict(counting.counts)
        backend_name = str(params.get("backend") or spec.get("backend") or "")
        output = params.get("output") or spec.get("output")
        if output is not None:
            output = spec.resolve(str(output))
        if not backend_name:
            raise JobError('verify needs a "backend" (and its "output" target)')
        rows = read_target_rows(backend_name, output, plan.schema)
        # SQL targets also prove their secondary FK indexes exist; backends
        # without SQL indexes return None and skip the check.
        index_names = read_target_indexes(backend_name, output)
        report = verify_rows(plan.schema, rows, expected, index_names=index_names)
        if not report.passed:
            # A failed verification is a *finding*, not a crashed job — the
            # job succeeds and the report carries the verdict — but surface
            # the verdict in the job record's error field for listings.
            job.error = "verification failed"
        payload = report.to_json()
        payload["backend"] = backend_name
        payload["output"] = output
        return payload


__all__ = ["JobCancelled", "JobRunner", "RESUMABLE_STATES"]
