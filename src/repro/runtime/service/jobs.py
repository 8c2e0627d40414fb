"""Durable job records: the state the daemon can lose and still recover.

Every job the service accepts is persisted as one JSON file under
``<state-dir>/jobs/<id>.json`` — parameters, state, timestamps, progress,
error, and (once finished) the full report.  Writes are atomic
(write-then-rename), so a killed daemon never leaves a truncated record.

The state machine::

    queued ──► running ──► succeeded
                  │  │
                  │  └────► failed
                  ▼
            interrupted            (daemon died while the job ran)

    queued/running ──► cancelled   (explicit cancel)
    interrupted/failed/cancelled ──► queued   (explicit resume)

``interrupted`` is assigned at *recovery*: when a restarted daemon loads a
job that was ``running`` when the previous process died, the job cannot
still be running — its checkpoint directory, however, survives, so a
resume re-enqueues it and the sharded executor skips every shard whose
spill file validates (:mod:`repro.runtime.service.checkpoint`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..durable import write_durably

JOB_STATES = (
    "queued",
    "running",
    "succeeded",
    "failed",
    "cancelled",
    "interrupted",
)

#: States a job can never leave except through an explicit resume.
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled", "interrupted"})

#: Job kinds the runner knows how to execute.
JOB_KINDS = ("learn", "run", "migrate", "verify")


class JobError(Exception):
    """A user-facing job-store error (unknown job, invalid transition, ...)."""


@dataclass
class Job:
    """One unit of service work: parameters in, state + report out."""

    id: str
    kind: str
    params: Dict[str, object]
    state: str = "queued"
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    error_detail: Optional[str] = None
    """Full daemon-side traceback of a failure (``error`` is the one-liner);
    persisted and returned by ``GET /jobs/<id>`` for debuggability."""

    report: Optional[Dict[str, object]] = None
    progress: Dict[str, object] = field(default_factory=dict)
    provenance: Optional[str] = None
    """Where the plan came from (warm memo, cache hit, synthesized, ...)."""

    resumes: int = 0
    """How many times this job has been re-enqueued after an interruption."""

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": "repro_service_job",
            "id": self.id,
            "job_kind": self.kind,
            "params": self.params,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "error_detail": self.error_detail,
            "report": self.report,
            "progress": self.progress,
            "provenance": self.provenance,
            "resumes": self.resumes,
        }

    @staticmethod
    def from_json(payload: Dict[str, object]) -> "Job":
        if payload.get("kind") != "repro_service_job":
            raise JobError("payload is not a serialized service job")
        return Job(
            id=str(payload["id"]),
            kind=str(payload["job_kind"]),
            params=dict(payload.get("params") or {}),  # type: ignore[arg-type]
            state=str(payload.get("state", "queued")),
            created_at=float(payload.get("created_at") or 0.0),  # type: ignore[arg-type]
            started_at=payload.get("started_at"),  # type: ignore[arg-type]
            finished_at=payload.get("finished_at"),  # type: ignore[arg-type]
            error=payload.get("error"),  # type: ignore[arg-type]
            error_detail=payload.get("error_detail"),  # type: ignore[arg-type]
            report=payload.get("report"),  # type: ignore[arg-type]
            progress=dict(payload.get("progress") or {}),  # type: ignore[arg-type]
            provenance=payload.get("provenance"),  # type: ignore[arg-type]
            resumes=int(payload.get("resumes") or 0),  # type: ignore[arg-type]
        )

    def summary(self) -> Dict[str, object]:
        """The compact listing entry (``GET /jobs``)."""
        return {
            "id": self.id,
            "job_kind": self.kind,
            "state": self.state,
            "created_at": self.created_at,
            "progress": self.progress,
            "error": self.error,
        }


class JobStore:
    """The ``jobs/`` directory of a service state dir, with atomic writes.

    Thread-safe: the runner's worker threads and the HTTP handler threads
    share one store.  Each job is its own file, so two jobs never contend on
    a write, and a crashed daemon recovers by listing the directory.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._load_all()

    # ------------------------------------------------------------- creation
    def create(self, kind: str, params: Dict[str, object]) -> Job:
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r} (available: {', '.join(JOB_KINDS)})"
            )
        with self._lock:
            number = 1 + max(
                (int(job_id.split("-")[-1]) for job_id in self._jobs), default=0
            )
            job = Job(
                id=f"job-{number:06d}",
                kind=kind,
                params=params,
                created_at=time.time(),
            )
            self._jobs[job.id] = job
            self._write(job)
        return job

    # -------------------------------------------------------------- queries
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id!r}")
        return job

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    # -------------------------------------------------------------- updates
    def save(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.id] = job
            self._write(job)

    def recover(self) -> List[Job]:
        """Mark jobs that were ``running`` when the daemon died as interrupted.

        Called once at daemon startup, *before* the runner accepts work: a
        loaded job in state ``running`` cannot actually be running (this is
        a fresh process), so its true state is "interrupted with a surviving
        checkpoint".  Returns the jobs transitioned.
        """
        interrupted: List[Job] = []
        with self._lock:
            for job in self._jobs.values():
                if job.state == "running":
                    job.state = "interrupted"
                    job.error = "daemon exited while the job was running"
                    self._write(job)
                    interrupted.append(job)
        return interrupted

    # ------------------------------------------------------------ internals
    def _path(self, job_id: str) -> str:
        return os.path.join(self.directory, f"{job_id}.json")

    def _write(self, job: Job) -> None:
        text = json.dumps(job.to_json(), indent=2, sort_keys=True) + "\n"
        write_durably(self._path(job.id), lambda handle: handle.write(text))

    def _load_all(self) -> None:
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json") or ".tmp." in name:
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    job = Job.from_json(json.load(handle))
            except (OSError, json.JSONDecodeError, JobError, KeyError, ValueError):
                # A truncated or foreign file must not wedge the daemon.
                continue
            self._jobs[job.id] = job
