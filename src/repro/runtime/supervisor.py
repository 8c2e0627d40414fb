"""Fault-tolerant shard supervision: retries, timeouts, graceful degradation.

:class:`ShardSupervisor` runs every shard of a map stage as a sequence of
*attempts*, scheduled by one loop:

* the loop keeps one queue of ``(eligible time, shard, payload, attempt)``
  entries; a failed attempt re-enters it behind its :class:`RetryPolicy`
  backoff (bounded attempts, exponential backoff with deterministic jitter,
  and a retryable/permanent error classification — see
  docs/robustness.md#error-classification) while other shards proceed;
* *how* an attempt runs is the caller's *launcher*: a plain call
  (:func:`plain_calls`), or an isolated child process
  (:class:`ChildProcesses`) whose death (``os._exit``, OOM-kill, segfault)
  costs only that attempt, and which is killed and re-dispatched when it
  outlives its wall-clock timeout;
* a shard that exhausts its attempts becomes a structured
  :class:`ShardFailure` instead of an exception — remaining shards keep
  running, and the caller decides how to degrade
  (docs/robustness.md#degradation-contract).

Child processes report through small JSON sidecar files (one per attempt)
rather than pipes: a worker that dies mid-write leaves either no file or a
torn temp file, both of which read as "crashed" — there is no
half-delivered result state.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import random
import sqlite3
import time
import traceback
from concurrent import futures as cf
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .durable import write_durably

__all__ = [
    "RetryPolicy",
    "ShardFailure",
    "ShardTimeout",
    "WorkerCrash",
    "RemoteShardError",
    "SupervisionOutcome",
    "ShardSupervisor",
    "ChildProcesses",
    "plain_calls",
]

#: ``launch(payload, attempt)`` starts one attempt and returns the callable
#: that finishes it: the attempt's result, or a raised error.
Launcher = Callable[[Any, int], Callable[[], Any]]


class ShardTimeout(Exception):
    """An attempt outlived its wall-clock timeout and was killed."""


class WorkerCrash(Exception):
    """A worker process died without reporting a result (exit, signal, OOM)."""


class RemoteShardError(Exception):
    """A shard attempt failed in another process — a :class:`ChildProcesses`
    child or a remote worker — and the error crossed over as a structured
    report.  ``remote_type`` keeps the original exception type name, so a
    failure reads the same wherever it happened; ``retryable_hint`` the
    other side's own classification (made with the same shipped
    :class:`RetryPolicy`), which the supervisor honours verbatim; and
    ``remote_traceback`` the traceback where the error was raised."""

    def __init__(
        self,
        message: str,
        *,
        remote_type: str,
        retryable: bool,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.retryable_hint = retryable
        self.remote_traceback = remote_traceback


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


@dataclass
class SupervisionOutcome:
    """What a supervised map stage produced: per-shard results, permanent
    failures, and how many attempts were retried along the way."""

    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[ShardFailure] = field(default_factory=list)
    retries: int = 0


def plain_calls(worker: Callable[[Any, int], Any]) -> Launcher:
    """The launcher for attempts that need no isolation: finishing an
    attempt is the call ``worker(payload, attempt)``."""
    return lambda payload, attempt: functools.partial(worker, payload, attempt)


def _finished(finish: Callable[[], Any]) -> "cf.Future[Any]":
    """Run ``finish`` inline; its result or error waits in a done future."""
    future: "cf.Future[Any]" = cf.Future()
    try:
        future.set_result(finish())
    except Exception as error:  # noqa: BLE001 - classified by the policy
        future.set_exception(error)
    return future


class ShardSupervisor:
    """Run every ``(shard, payload)`` task to a result or a
    :class:`ShardFailure`, retrying per :class:`RetryPolicy`.

    ``launch(payload, attempt)`` starts one attempt on the supervisor's own
    thread and returns the callable that finishes it.  That callable runs
    inline when ``concurrency == 1`` and on a pool of ``concurrency``
    threads otherwise — real concurrency for attempts that *wait* on a
    child process or a remote worker.  It returns the attempt's result or
    raises, and every raise is settled the same way: re-queued behind its
    backoff while the policy allows another attempt, recorded as a
    failure otherwise.

    ``on_complete(shard, result)`` fires on the supervisor's thread as each
    shard finishes — the checkpoint/progress hook.  If it raises, no
    further attempt is launched and the error propagates; attempts still
    running are the launcher's to stop (:meth:`ChildProcesses.close`)."""

    def __init__(
        self,
        launch: Launcher,
        *,
        policy: Optional[RetryPolicy] = None,
        concurrency: int = 1,
        on_complete: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        self.launch = launch
        self.policy = policy if policy is not None else RetryPolicy()
        self.concurrency = max(1, concurrency)
        self.on_complete = on_complete

    def run(self, tasks: Sequence[Tuple[int, Any]]) -> SupervisionOutcome:
        outcome = SupervisionOutcome()
        runnable: List[Tuple[float, int, Any, int]] = [
            (0.0, shard, payload, 1) for shard, payload in tasks
        ]
        active: Dict["cf.Future[Any]", Tuple[int, Any, int]] = {}
        pool = None
        if self.concurrency > 1:
            pool = cf.ThreadPoolExecutor(self.concurrency, thread_name_prefix="repro-shard")
        try:
            while runnable or active:
                runnable.sort(key=lambda entry: entry[0])
                while (
                    runnable
                    and len(active) < self.concurrency
                    and runnable[0][0] <= time.monotonic()
                ):
                    _, shard, payload, attempt = runnable.pop(0)
                    finish = self.launch(payload, attempt)
                    future = pool.submit(finish) if pool is not None else _finished(finish)
                    active[future] = (shard, payload, attempt)
                if not active:
                    time.sleep(max(0.0, runnable[0][0] - time.monotonic()))
                    continue
                wait_for: Optional[float] = None
                if runnable and len(active) < self.concurrency:
                    wait_for = max(0.0, runnable[0][0] - time.monotonic())
                done, _pending = cf.wait(
                    list(active), timeout=wait_for, return_when=cf.FIRST_COMPLETED
                )
                for future in done:
                    shard, payload, attempt = active.pop(future)
                    error = future.exception()
                    if error is None:
                        outcome.results[shard] = result = future.result()
                        if self.on_complete is not None:
                            self.on_complete(shard, result)
                        continue
                    failure = self._raised(shard, attempt, error)
                    if failure.retryable and attempt < self.policy.max_attempts:
                        outcome.retries += 1
                        eligible = time.monotonic() + self.policy.delay_for(shard, attempt)
                        runnable.append((eligible, shard, payload, attempt + 1))
                    else:
                        outcome.failures.append(failure)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return outcome

    def _raised(self, shard: int, attempt: int, error: BaseException) -> ShardFailure:
        """Classify the error an attempt raised.  An error from another
        process keeps its original type name and traceback."""
        return ShardFailure(
            shard=shard,
            attempts=attempt,
            error_type=str(getattr(error, "remote_type", type(error).__name__)),
            error=str(error),
            retryable=self.policy.is_retryable(error),
            traceback=getattr(error, "remote_traceback", "")
            or "".join(traceback.format_exception(type(error), error, error.__traceback__)),
        )


# --------------------------------------------------------------------------- #
# Process isolation
# --------------------------------------------------------------------------- #


def _child_entry(
    worker: Callable[[Any, int], Any],
    payload: Any,
    attempt: int,
    result_path: str,
    policy: RetryPolicy,
) -> None:
    """Attempt entry point inside the child process: run, then report
    through the result sidecar.  An injected ``kill`` fault calls
    ``os._exit`` inside ``worker`` — no file is written and the parent
    classifies the attempt as a crash."""
    try:
        report = {"ok": True, "result": worker(payload, attempt)}
    except BaseException as error:  # noqa: BLE001 - everything must be reported
        report = {
            "ok": False,
            "type": type(error).__name__,
            "error": str(error),
            "traceback": traceback.format_exc(),
            "retryable": policy.is_retryable(error),
        }
    write_durably(result_path, lambda handle: json.dump(report, handle))


def _read_result(path: str, exitcode: Optional[int]) -> Any:
    """The result a child reported, or its reported error raised as
    :class:`RemoteShardError`; no readable report means it crashed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        raise WorkerCrash(
            f"worker process exited (code {exitcode}) before reporting a result"
        ) from None
    if report.get("ok"):
        return report["result"]
    raise RemoteShardError(
        str(report.get("error", "")),
        remote_type=str(report.get("type", "Exception")),
        retryable=bool(report.get("retryable", False)),
        remote_traceback=str(report.get("traceback", "")),
    )


def _discard(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _kill(process: "multiprocessing.process.BaseProcess") -> None:
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join()


class ChildProcesses:
    """Process isolation as a launcher: each attempt runs
    ``worker(payload, attempt)`` in its own daemonic
    ``multiprocessing.Process`` and reports through a JSON sidecar in
    ``scratch_dir``.  ``worker`` and payloads must be picklable.

    :meth:`launch` forks on the supervisor's thread — never on a pool
    thread — and starts the attempt's ``timeout`` clock.  The callable it
    returns waits for the child until that deadline, then kills it and
    raises :class:`ShardTimeout`; otherwise it returns the reported
    result, raises :class:`RemoteShardError` for a reported error, or
    :class:`WorkerCrash` when the child left no readable report.
    :meth:`close` kills any child still alive."""

    def __init__(
        self,
        worker: Callable[[Any, int], Any],
        *,
        policy: RetryPolicy,
        scratch_dir: str,
        timeout: Optional[float] = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.worker = worker
        self.policy = policy
        self.scratch_dir = scratch_dir
        self.timeout = timeout
        self._serial = itertools.count()
        self._children: List["multiprocessing.process.BaseProcess"] = []

    def launch(self, payload: Any, attempt: int) -> Callable[[], Any]:
        result_path = os.path.join(
            self.scratch_dir, f"attempt-{next(self._serial):05d}-{attempt}.json"
        )
        _discard(result_path)
        process = multiprocessing.get_context().Process(
            target=_child_entry,
            args=(self.worker, payload, attempt, result_path, self.policy),
            daemon=True,
            name=f"repro-shard-a{attempt}",
        )
        process.start()
        self._children.append(process)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout

        def finish() -> Any:
            try:
                process.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    _kill(process)
                    raise ShardTimeout(
                        f"attempt {attempt} exceeded {self.timeout}s and was cancelled"
                    )
                return _read_result(result_path, process.exitcode)
            finally:
                _discard(result_path)

        return finish

    def close(self) -> None:
        for process in self._children:
            _kill(process)
        self._children.clear()
