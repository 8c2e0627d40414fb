"""Fault-tolerant shard supervision: retries, timeouts, graceful degradation.

The sharded map stage used to hand every shard to one ``multiprocessing``
pool and die with it: a crashed worker poisoned the pool, one hung shard
stalled the run forever, and a transient I/O error was as fatal as a plan
bug.  :class:`ShardSupervisor` replaces that with per-shard *attempts*:

* every shard runs as its own attempt, retried under a :class:`RetryPolicy`
  (bounded attempts, exponential backoff with deterministic jitter, and a
  retryable/permanent error classification — see
  docs/robustness.md#error-classification);
* in subprocess mode each attempt is an isolated ``multiprocessing.Process``
  whose death (``os._exit``, OOM-kill, segfault) costs only that attempt —
  there is no shared pool to break;
* a wall-clock ``timeout`` per attempt lets the supervisor terminate a hung
  shard and re-dispatch it;
* a shard that exhausts its attempts becomes a structured
  :class:`ShardFailure` instead of an exception — remaining shards keep
  running, and the caller decides how to degrade
  (docs/robustness.md#degradation-contract).

Results cross the process boundary as small JSON sidecar files (one per
attempt) rather than pipes: a worker that dies mid-write leaves either no
file or a torn temp file, both of which the parent reads as "crashed" —
there is no half-delivered result state.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sqlite3
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .durable import write_durably

__all__ = [
    "RetryPolicy",
    "ShardFailure",
    "ShardTimeout",
    "WorkerCrash",
    "SupervisionOutcome",
    "ShardSupervisor",
]


class ShardTimeout(Exception):
    """An attempt exceeded the supervisor's per-shard timeout and was killed."""


class WorkerCrash(Exception):
    """A worker process died without reporting a result (exit, signal, OOM)."""


#: Error type *names* that always mean "the worker died, not the work".
#: Matched by name so classification works on exceptions reconstructed from
#: a child process report, where only the type name survives the boundary.
_CRASH_TYPE_NAMES = frozenset(
    {
        "WorkerCrash",
        "WorkerKilled",
        "ShardTimeout",
        "BrokenProcessPool",
        "BrokenExecutor",
    }
)

#: Transport error type names that mean "the wire failed, not the work":
#: a reset/ timed-out connection or a frame that failed its checksum.  The
#: shard is intact somewhere — re-dispatching it (to a surviving worker,
#: for socket transports) is always sound.  Handshake rejections and
#: worker exhaustion (``HandshakeError``, ``WorkerUnavailable``) are
#: deliberately *not* here: retrying them cannot help
#: (docs/distributed.md#retry-and-redispatch).
_TRANSPORT_RETRYABLE_NAMES = frozenset(
    {
        "TransportError",
        "ConnectionLost",
        "FrameError",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a shard, how long to wait, and what counts
    as retryable.  Frozen and picklable: the policy ships to worker
    processes so a child can classify its own failure before reporting it.

    ``delay_for`` is deterministic — jitter comes from a ``random.Random``
    seeded with ``(seed, shard, attempt)`` — so two runs of the same plan
    retry on an identical schedule (a property the fault-injection tests
    rely on).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 5.0
    backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    @classmethod
    def for_retries(cls, retries: Optional[int]) -> "RetryPolicy":
        """The policy for "``retries`` re-dispatches after the first attempt"
        (the ``--shard-retries`` / job ``shard_retries`` value); ``None`` is
        the default policy."""
        if retries is None:
            return cls()
        return cls(max_attempts=max(1, int(retries) + 1))

    def is_retryable(self, error: BaseException) -> bool:
        """Classify ``error``: transient (worth re-dispatching) or permanent.

        Retryable: worker death in any form (:class:`WorkerCrash`,
        ``WorkerKilled``, :class:`ShardTimeout`, ``BrokenProcessPool``),
        ``sqlite3.OperationalError`` for locked/busy databases, and
        ``OSError`` (spill I/O).  Everything else — ``ShardError``
        fingerprint/parameter mismatches, plan bugs, injected permanent
        faults — is permanent.  The ``__cause__`` chain is walked so a
        wrapped transient error (e.g. a backend error *from* a locked
        database) stays retryable.
        """
        seen = 0
        current: Optional[BaseException] = error
        while current is not None and seen < 8:
            if self._is_retryable_single(current):
                return True
            current = current.__cause__
            seen += 1
        return False

    @staticmethod
    def _is_retryable_single(error: BaseException) -> bool:
        # An error that crossed a transport carries the *worker's own*
        # classification (made with this same shipped policy); honour it
        # verbatim so both sides of the wire agree.
        hint = getattr(error, "retryable_hint", None)
        if hint is not None:
            return bool(hint)
        name = type(error).__name__
        if name in _CRASH_TYPE_NAMES or name in _TRANSPORT_RETRYABLE_NAMES:
            return True
        if isinstance(error, sqlite3.OperationalError):
            message = str(error).lower()
            return "locked" in message or "busy" in message
        if isinstance(error, OSError):
            return True
        return False

    def delay_for(self, shard: int, attempt: int) -> float:
        """Backoff before re-dispatching ``shard`` after failed ``attempt``."""
        raw = min(self.max_delay, self.base_delay * (self.backoff ** max(0, attempt - 1)))
        rng = random.Random((self.seed + 1) * 1_000_003 + shard * 10_007 + attempt)
        return raw * (1.0 + self.jitter * rng.random())


@dataclass
class ShardFailure:
    """One shard's permanent failure, after its attempts were exhausted
    (or its error was classified permanent on the spot)."""

    shard: int
    attempts: int
    error_type: str
    error: str
    retryable: bool
    traceback: str = ""

    def describe(self) -> str:
        return (
            f"shard {self.shard}: {self.error_type} after "
            f"{self.attempts} attempt(s): {self.error}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error": self.error,
            "retryable": self.retryable,
            "traceback": self.traceback,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ShardFailure":
        return cls(
            shard=int(payload["shard"]),
            attempts=int(payload["attempts"]),
            error_type=str(payload["error_type"]),
            error=str(payload["error"]),
            retryable=bool(payload["retryable"]),
            traceback=str(payload.get("traceback", "")),
        )


def _failure_type(error: BaseException) -> str:
    """The type name recorded in a :class:`ShardFailure`.  An error that
    crossed a transport keeps its *original* type name (``remote_type``)
    so a failure report reads the same whether the shard failed here or
    on a remote worker."""
    return str(getattr(error, "remote_type", type(error).__name__))


@dataclass
class SupervisionOutcome:
    """What a supervised map stage produced: per-shard results, permanent
    failures, and how many attempts were retried along the way."""

    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[ShardFailure] = field(default_factory=list)
    retries: int = 0


def _write_result(path: str, payload: Dict[str, Any]) -> None:
    write_durably(path, lambda handle: json.dump(payload, handle))


def _child_entry(
    worker: Callable[[Any, int], Any],
    payload: Any,
    attempt: int,
    result_path: str,
    policy: RetryPolicy,
) -> None:
    """Attempt entry point inside the worker process: run, then report
    through the result sidecar.  An injected ``kill`` fault calls
    ``os._exit`` inside ``worker`` — no file is written and the parent
    classifies the attempt as a crash."""
    try:
        result = worker(payload, attempt)
    except BaseException as error:  # noqa: BLE001 - everything must be reported
        _write_result(
            result_path,
            {
                "ok": False,
                "type": type(error).__name__,
                "error": str(error),
                "traceback": traceback.format_exc(),
                "retryable": policy.is_retryable(error),
            },
        )
        return
    _write_result(result_path, {"ok": True, "result": result})


@dataclass
class _Attempt:
    shard: int
    payload: Any
    attempt: int
    process: "multiprocessing.process.BaseProcess"
    result_path: str
    deadline: Optional[float]


class ShardSupervisor:
    """Run ``worker(payload, attempt)`` for every ``(shard, payload)`` task,
    retrying per :class:`RetryPolicy` and collecting permanent failures.

    Two execution modes share one retry/classification contract:

    * ``in_process=False`` — each attempt is its own daemonic
      ``multiprocessing.Process`` writing a JSON result sidecar into
      ``scratch_dir``; the parent multiplexes process sentinels with
      ``multiprocessing.connection.wait``, enforces ``timeout`` per
      attempt, and schedules backoff without blocking other shards.
      ``worker`` and payloads must be picklable.
    * ``in_process=True`` — attempts run serially in the calling process
      (the ``workers <= 1`` path, where process isolation buys nothing and
      ``timeout`` cannot be enforced).
    * ``use_threads=True`` — attempts run on a thread pool.  For workers
      that *wait* rather than compute: a socket transport's attempt is a
      wire conversation blocked on a remote process, so threads give real
      concurrency without pickling anything.  ``timeout`` is rejected here
      (threads cannot be killed; socket transports bound their reads with
      socket timeouts instead).

    ``on_complete(shard, result)`` fires in the *calling* process as each
    shard finishes — the checkpoint/progress hook.  If it raises, the
    supervisor terminates outstanding attempts and propagates (preserving
    the abort semantics callers rely on)."""

    def __init__(
        self,
        worker: Callable[[Any, int], Any],
        *,
        policy: Optional[RetryPolicy] = None,
        concurrency: int = 1,
        timeout: Optional[float] = None,
        scratch_dir: Optional[str] = None,
        on_complete: Optional[Callable[[int, Any], None]] = None,
        in_process: bool = False,
        use_threads: bool = False,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if in_process and use_threads:
            raise ValueError("in_process and use_threads are mutually exclusive")
        if (in_process or use_threads) and timeout is not None:
            raise ValueError("timeout requires process isolation (in_process=False)")
        if not in_process and not use_threads and scratch_dir is None:
            raise ValueError("subprocess mode needs a scratch_dir for result files")
        self.worker = worker
        self.policy = policy if policy is not None else RetryPolicy()
        self.concurrency = max(1, concurrency)
        self.timeout = timeout
        self.scratch_dir = scratch_dir
        self.on_complete = on_complete
        self.in_process = in_process
        self.use_threads = use_threads

    def run(self, tasks: Sequence[Tuple[int, Any]]) -> SupervisionOutcome:
        if self.in_process:
            return self._run_in_process(tasks)
        if self.use_threads:
            return self._run_threads(tasks)
        return self._run_processes(tasks)

    # ------------------------------------------------------------------ #
    # One failed attempt, settled the same way in every mode
    # ------------------------------------------------------------------ #

    def _retry_or_fail(
        self,
        outcome: SupervisionOutcome,
        runnable: List[Tuple[float, int, Any, int]],
        payload: Any,
        failure: ShardFailure,
    ) -> None:
        """Re-queue the shard behind its backoff delay while the policy allows
        another attempt; otherwise ``failure`` is permanent and recorded."""
        shard, attempt = failure.shard, failure.attempts
        if failure.retryable and attempt < self.policy.max_attempts:
            outcome.retries += 1
            eligible = time.monotonic() + self.policy.delay_for(shard, attempt)
            runnable.append((eligible, shard, payload, attempt + 1))
        else:
            outcome.failures.append(failure)

    def _raised(self, shard: int, attempt: int, error: BaseException) -> ShardFailure:
        """Classify an exception an attempt raised in this process."""
        return ShardFailure(
            shard=shard,
            attempts=attempt,
            error_type=_failure_type(error),
            error=str(error),
            retryable=self.policy.is_retryable(error),
            traceback="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        )

    # ------------------------------------------------------------------ #
    # In-process mode
    # ------------------------------------------------------------------ #

    def _run_in_process(self, tasks: Sequence[Tuple[int, Any]]) -> SupervisionOutcome:
        outcome = SupervisionOutcome()
        for shard, payload in tasks:
            # A shard's retries run before the next shard starts.
            runnable: List[Tuple[float, int, Any, int]] = [(0.0, shard, payload, 1)]
            while runnable:
                eligible, _, _, attempt = runnable.pop()
                if eligible:
                    time.sleep(max(0.0, eligible - time.monotonic()))
                try:
                    result = self.worker(payload, attempt)
                except Exception as error:  # noqa: BLE001 - classified by the policy
                    failure = self._raised(shard, attempt, error)
                    self._retry_or_fail(outcome, runnable, payload, failure)
                    continue
                outcome.results[shard] = result
                if self.on_complete is not None:
                    self.on_complete(shard, result)
        return outcome

    # ------------------------------------------------------------------ #
    # Thread mode (transport conversations)
    # ------------------------------------------------------------------ #

    def _run_threads(self, tasks: Sequence[Tuple[int, Any]]) -> SupervisionOutcome:
        from concurrent import futures as cf

        outcome = SupervisionOutcome()
        # Same (eligible time, shard, payload, attempt) queue discipline as
        # subprocess mode: backoff delays eligibility, never the whole stage.
        runnable: List[Tuple[float, int, Any, int]] = [
            (0.0, shard, payload, 1) for shard, payload in tasks
        ]
        active: Dict[Any, Tuple[int, Any, int]] = {}
        executor = cf.ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-shard"
        )
        try:
            while runnable or active:
                now = time.monotonic()
                runnable.sort(key=lambda entry: entry[0])
                while runnable and len(active) < self.concurrency and runnable[0][0] <= now:
                    _, shard, payload, attempt = runnable.pop(0)
                    future = executor.submit(self.worker, payload, attempt)
                    active[future] = (shard, payload, attempt)
                if not active:
                    time.sleep(max(0.0, runnable[0][0] - time.monotonic()))
                    continue
                wait_for: Optional[float] = None
                if runnable:
                    wait_for = max(0.0, runnable[0][0] - time.monotonic())
                done, _pending = cf.wait(
                    list(active), timeout=wait_for, return_when=cf.FIRST_COMPLETED
                )
                for future in done:
                    shard, payload, attempt = active.pop(future)
                    error = future.exception()
                    if error is None:
                        result = future.result()
                        outcome.results[shard] = result
                        if self.on_complete is not None:
                            self.on_complete(shard, result)
                        continue
                    failure = self._raised(shard, attempt, error)
                    self._retry_or_fail(outcome, runnable, payload, failure)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return outcome

    # ------------------------------------------------------------------ #
    # Subprocess mode
    # ------------------------------------------------------------------ #

    def _result_path(self, shard: int, attempt: int) -> str:
        assert self.scratch_dir is not None
        return os.path.join(self.scratch_dir, f"attempt-{shard:05d}-{attempt}.json")

    def _launch(self, shard: int, payload: Any, attempt: int) -> _Attempt:
        result_path = self._result_path(shard, attempt)
        if os.path.exists(result_path):
            os.remove(result_path)
        process = multiprocessing.get_context().Process(
            target=_child_entry,
            args=(self.worker, payload, attempt, result_path, self.policy),
            daemon=True,
            name=f"repro-shard-{shard}-a{attempt}",
        )
        process.start()
        deadline = time.monotonic() + self.timeout if self.timeout is not None else None
        return _Attempt(shard, payload, attempt, process, result_path, deadline)

    @staticmethod
    def _kill(attempt: _Attempt) -> None:
        if attempt.process.is_alive():
            attempt.process.terminate()
            attempt.process.join(1.0)
            if attempt.process.is_alive():
                attempt.process.kill()
                attempt.process.join()

    def _run_processes(self, tasks: Sequence[Tuple[int, Any]]) -> SupervisionOutcome:
        outcome = SupervisionOutcome()
        # (eligible time, shard, payload, attempt) — retries re-enter with a
        # backoff-delayed eligibility instead of blocking the whole stage.
        runnable: List[Tuple[float, int, Any, int]] = [
            (0.0, shard, payload, 1) for shard, payload in tasks
        ]
        active: Dict[object, _Attempt] = {}
        try:
            while runnable or active:
                now = time.monotonic()
                runnable.sort(key=lambda entry: entry[0])
                while runnable and len(active) < self.concurrency and runnable[0][0] <= now:
                    _, shard, payload, attempt = runnable.pop(0)
                    state = self._launch(shard, payload, attempt)
                    active[state.process.sentinel] = state

                wakeups = [state.deadline for state in active.values() if state.deadline is not None]
                if runnable and len(active) < self.concurrency:
                    wakeups.append(runnable[0][0])
                wait_for: Optional[float] = None
                if wakeups:
                    wait_for = max(0.0, min(wakeups) - time.monotonic())

                if active:
                    ready = mp_connection.wait(list(active.keys()), timeout=wait_for)
                elif wait_for is not None:
                    time.sleep(wait_for)
                    continue
                else:
                    ready = []

                now = time.monotonic()
                finished = [active.pop(sentinel) for sentinel in ready]
                for sentinel, state in list(active.items()):
                    if state.deadline is not None and now >= state.deadline:
                        self._kill(state)
                        del active[sentinel]
                        self._settle(state, outcome, runnable, timed_out=True)
                for state in finished:
                    self._settle(state, outcome, runnable, timed_out=False)
        finally:
            for state in active.values():
                self._kill(state)
                if os.path.exists(state.result_path):
                    os.remove(state.result_path)
        return outcome

    def _settle(
        self,
        state: _Attempt,
        outcome: SupervisionOutcome,
        runnable: List[Tuple[float, int, Any, int]],
        *,
        timed_out: bool,
    ) -> None:
        state.process.join()
        report: Optional[Dict[str, Any]] = None
        if not timed_out and os.path.exists(state.result_path):
            try:
                with open(state.result_path, "r", encoding="utf-8") as handle:
                    report = json.load(handle)
            except (OSError, ValueError):
                report = None
        if os.path.exists(state.result_path):
            os.remove(state.result_path)

        if report is not None and report.get("ok"):
            outcome.results[state.shard] = report["result"]
            if self.on_complete is not None:
                self.on_complete(state.shard, report["result"])
            return

        shard, attempt = state.shard, state.attempt
        if timed_out:
            failure = ShardFailure(
                shard, attempt, ShardTimeout.__name__,
                f"shard {shard} attempt {attempt} exceeded {self.timeout}s and was cancelled",
                retryable=True,
            )
        elif report is not None:
            failure = ShardFailure(
                shard, attempt,
                str(report.get("type", "Exception")),
                str(report.get("error", "")),
                bool(report.get("retryable", False)),
                str(report.get("traceback", "")),
            )
        else:
            failure = ShardFailure(
                shard, attempt, WorkerCrash.__name__,
                f"worker for shard {shard} exited (code {state.process.exitcode}) "
                f"before reporting a result",
                retryable=True,
            )
        self._retry_or_fail(outcome, runnable, state.payload, failure)
