"""The job runner: executes service jobs on a bounded worker pool.

A job is a request to :mod:`repro.runtime.run` — the ``acquire_plan`` →
``resolve_run`` → ``run_plan`` / ``verify_target`` path the CLI takes, with
job params where the CLI has flags.  What lives here is job bookkeeping.

One :class:`JobRunner` lives inside the daemon process and owns everything a
single CLI invocation would have had to rebuild from scratch:

* an in-memory plan memo in front of the spec store
  (:class:`~repro.runtime.context_store.ContextStore`, ``<state-dir>/learn-cache``)
  — the second ``migrate`` job for the same spec costs a dictionary lookup,
  not a disk read, and never a synthesis; a job for an edited spec
  re-synthesizes only the affected tables;
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

import functools
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..plan import MigrationPlan
from ..run import RunDefaults, acquire_plan, resolve_run, run_plan, verify_target
from ..sharded import ShardDegradedError
from ..spec import Spec
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
        ``learn-cache/`` (the spec store), ``checkpoints/<job-id>/`` and
        ``outputs/``.
    max_workers:
        Concurrent jobs (default 2).  Each job may itself fan out into
        shard worker processes.
    """

    def __init__(self, state_dir: str, *, max_workers: int = 2) -> None:
        self.state_dir = os.path.abspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.store = JobStore(os.path.join(self.state_dir, "jobs"))
        self.outputs_dir = os.path.join(self.state_dir, "outputs")
        os.makedirs(self.outputs_dir, exist_ok=True)
        self._plans: Dict[str, MigrationPlan] = {}
        #: acquire_plan with the daemon's warm state: explicit file > plan
        #: memo > the spec store in ``learn-cache/`` (exact hit, near hit or
        #: cold learn).
        self._acquire_plan = functools.partial(
            acquire_plan,
            store_dir=os.path.join(self.state_dir, "learn-cache"),
            memo=self._plans,
        )
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
    def _build_spec(self, params: Dict[str, object]) -> Spec:
        if params.get("spec_path"):
            return Spec.load(str(params["spec_path"]))
        payload = params.get("spec")
        if not isinstance(payload, dict):
            raise JobError(
                'job params need an inline "spec" object or a "spec_path"'
            )
        return Spec(dict(payload), str(params.get("base_dir") or self.state_dir))

    # ---------------------------------------------------------------- learn
    def _run_learn(self, job: Job) -> Dict[str, object]:
        spec = self._build_spec(job.params)
        plan, provenance = self._acquire_plan(spec, job.params, allow_learn=True)
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
        params = job.params
        spec = self._build_spec(params)
        # Refused before synthesis is paid for and before any target exists.
        request = resolve_run(
            spec,
            params,
            RunDefaults(
                shards=4, backend="sqlite", output=os.path.join(self.outputs_dir, job.id)
            ),
        )
        plan, provenance = self._acquire_plan(
            spec, params, allow_learn=(job.kind == "migrate")
        )
        job.provenance = provenance
        self.store.save(job)
        delay = float(params.get("shard_delay") or 0.0)

        def progress(done: int, total: int) -> None:
            if cancel_event.is_set():
                raise JobCancelled()
            job.progress = {"shards_done": done, "shards_total": total}
            self.store.save(job)
            if delay:
                time.sleep(delay)

        report = run_plan(
            plan,
            spec,
            request,
            checkpoint=ShardCheckpoint(
                os.path.join(self.state_dir, "checkpoints", job.id)
            ),
            resume=job.resumes > 0,
            progress=progress,
        )
        payload = report.to_json()
        payload["output"] = request.output
        payload["provenance"] = provenance
        return payload

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
        spec = self._build_spec(params)
        plan, job.provenance = self._acquire_plan(spec, params, allow_learn=True)
        report, payload = verify_target(plan, spec, params, expected)
        if not report.passed:
            # A failed verification is a *finding*, not a crashed job — the
            # job succeeds and the report carries the verdict — but surface
            # the verdict in the job record's error field for listings.
            job.error = "verification failed"
        return payload


__all__ = ["JobCancelled", "JobRunner", "RESUMABLE_STATES"]
