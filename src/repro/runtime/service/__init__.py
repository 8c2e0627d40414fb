"""The migration service: a resident daemon with operations-grade jobs.

``repro serve --port N --state-dir D`` runs a long-lived process that keeps
one in-memory plan memo and one spec store
(:class:`~repro.runtime.context_store.ContextStore`) across jobs and executes
learn/run/migrate/verify jobs concurrently on a bounded worker pool, over a
local HTTP/JSON API (stdlib ``http.server`` — no new dependencies).

The package splits along the job lifecycle:

* :mod:`~repro.runtime.service.checkpoint` — :class:`ShardCheckpoint`, a
  per-job directory of shard spill files beside a manifest of the run
  parameters.  A spill that replays cleanly (CRC-checked frames, a
  fingerprint-stamped header, counts matching its end manifest)
  proves its shard finished, however the writer died — so a killed job or a
  killed daemon resumes at the first unfinished shard;
* :mod:`~repro.runtime.service.jobs` — :class:`Job` / :class:`JobStore`:
  durable job records under ``<state-dir>/jobs/``, recovered at daemon
  restart (jobs that were ``running`` when the process died surface as
  ``interrupted`` and can be resumed);
* :mod:`~repro.runtime.service.runner` — :class:`JobRunner`: the bounded
  thread pool that executes jobs by calling :mod:`repro.runtime.run` — the
  run API the CLI calls, so a job param and the flag of the same name get
  the same verdict — with cooperative cancellation between shards;
* :mod:`~repro.runtime.service.server` — :class:`MigrationService` +
  :func:`serve`: the HTTP surface (submit, poll, report, cancel, resume,
  health, shutdown).

The API surface, job lifecycle, checkpoint format and verify semantics are
documented in ``docs/service.md``.
"""

from .checkpoint import CHECKPOINT_MANIFEST_NAME, ShardCheckpoint
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobStore
from .runner import JobCancelled, JobRunner
from .server import MigrationService, serve

__all__ = [
    "CHECKPOINT_MANIFEST_NAME",
    "ShardCheckpoint",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "JobCancelled",
    "JobRunner",
    "MigrationService",
    "serve",
]
