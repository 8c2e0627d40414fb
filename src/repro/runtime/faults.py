"""Deterministic fault injection for the sharded runtime.

A :class:`FaultPlan` is a small, declarative list of failures to induce at
well-known sites inside a sharded run.  It exists so every retry, timeout,
and degradation path in the shard supervisor (``supervisor.py``) is
exercised by *real* induced failures — in unit tests, through the CLI
(``--inject-faults``), and against a live daemon (the ``chaos-smoke`` CI
job) — instead of by mocks that drift from the code they imitate.

Spec grammar (see docs/robustness.md#fault-injection-spec-grammar)::

    spec    := rule ("," rule)*
    rule    := action (":" selector)*
    action  := "kill" | "delay" | "fail" | "truncate_spill" | "lock_db"
             | "drop_conn" | "corrupt_frame" | "stall"
    selector:= "shard=" int | "attempt=" int | "ms=" int

A selector that is omitted matches every value, so ``kill:shard=2`` kills
shard 2 on *every* attempt (retries are exhausted), while
``kill:shard=2:attempt=1`` kills only the first attempt (the retry
succeeds).  Injection sites:

``worker start``
    ``delay`` sleeps ``ms`` milliseconds before the shard does any work;
    ``fail`` raises :class:`FaultInjected` (classified non-retryable).
``spill write``
    ``kill`` terminates the worker process with ``os._exit`` mid-spill
    (in-process runs raise :class:`WorkerKilled` instead, which the retry
    policy classifies the same way); ``truncate_spill`` truncates the spill
    file and raises a retryable :class:`OSError`.
``backend insert``
    ``lock_db`` raises ``sqlite3.OperationalError("database is locked")``
    before a batch insert, exercising the backend's retry loop.
``wire frame`` (remote workers only, docs/distributed.md#fault-injection)
    fired by a ``repro worker`` as it sends a finished shard's spill frames
    back over a :class:`~repro.runtime.transport.SocketTransport`:
    ``stall`` sleeps ``ms`` milliseconds before the first frame,
    ``corrupt_frame`` flips a payload byte after the CRC is computed (the
    client detects the mismatch and re-dispatches), and ``drop_conn``
    sends half of the first frame and severs the connection — the
    "cable cut mid-result" case that must retry to a byte-identical
    result, never a silently truncated one.

Plans are carried explicitly through the map stage (they are pickled into
worker payloads), and *ambiently* — via a context variable or the
``REPRO_FAULTS`` environment variable — for the reduce-stage backend hook,
which has no shard identity.  When no plan is set every hook is a single
``None`` check: zero overhead on the production path.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "FAULT_ACTIONS",
    "FaultError",
    "FaultInjected",
    "WorkerKilled",
    "FaultRule",
    "FaultPlan",
    "FaultContext",
    "resolve_plan",
    "active_plan",
    "activation",
    "fire_backend_insert",
]

#: Environment variable consulted when no explicit plan is given.
ENV_VAR = "REPRO_FAULTS"

#: Exit code a ``kill``-faulted worker process dies with (distinctive on
#: purpose, so a supervisor log line is attributable to the harness).
KILL_EXIT_CODE = 70

FAULT_ACTIONS = (
    "kill",
    "delay",
    "fail",
    "truncate_spill",
    "lock_db",
    "drop_conn",
    "corrupt_frame",
    "stall",
)

#: Actions that take (and require, for the sleeping ones) an ``ms=`` selector.
_TIMED_ACTIONS = ("delay", "stall")


class FaultError(Exception):
    """An unparseable fault spec — user error, raised before any run work."""


class FaultInjected(Exception):
    """The failure a ``fail`` rule induces (classified non-retryable)."""


class WorkerKilled(Exception):
    """In-process stand-in for a ``kill`` rule (a real worker process dies
    with ``os._exit`` and never raises; classified retryable either way)."""


@dataclass(frozen=True)
class FaultRule:
    """One induced failure: an action plus optional shard/attempt selectors."""

    action: str
    shard: Optional[int] = None
    attempt: Optional[int] = None
    ms: int = 0

    def matches(self, *, shard: Optional[int], attempt: Optional[int]) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True

    def to_spec(self) -> str:
        parts = [self.action]
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.attempt is not None:
            parts.append(f"attempt={self.attempt}")
        if self.ms:
            parts.append(f"ms={self.ms}")
        return ":".join(parts)


def _parse_rule(text: str) -> FaultRule:
    pieces = [piece.strip() for piece in text.strip().split(":")]
    action = pieces[0]
    if action not in FAULT_ACTIONS:
        raise FaultError(
            f"unknown fault action {action!r} in {text!r} "
            f"(expected one of: {', '.join(FAULT_ACTIONS)})"
        )
    shard: Optional[int] = None
    attempt: Optional[int] = None
    ms = 0
    for piece in pieces[1:]:
        key, equals, value = piece.partition("=")
        if not equals:
            raise FaultError(f"bad fault selector {piece!r} in {text!r} (expected key=value)")
        if key not in ("shard", "attempt", "ms"):
            raise FaultError(f"unknown fault selector {key!r} in {text!r} (expected shard/attempt/ms)")
        try:
            number = int(value)
        except ValueError:
            raise FaultError(f"fault selector {key}={value!r} in {text!r} is not an integer") from None
        if number < 0:
            raise FaultError(f"fault selector {key}={number} in {text!r} must be >= 0")
        if key == "shard":
            shard = number
        elif key == "attempt":
            if number < 1:
                raise FaultError(f"attempt={number} in {text!r} must be >= 1 (attempts are 1-based)")
            attempt = number
        elif key == "ms":
            ms = number
    if action in _TIMED_ACTIONS and ms <= 0:
        raise FaultError(f"{action} rule {text!r} needs ms=<milliseconds>")
    if action not in _TIMED_ACTIONS and ms:
        raise FaultError(f"ms= only applies to delay/stall rules (got {text!r})")
    return FaultRule(action, shard=shard, attempt=attempt, ms=ms)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable (and picklable) set of :class:`FaultRule`\\ s."""

    rules: Tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        text = (spec or "").strip()
        if not text:
            raise FaultError("empty fault spec")
        return cls(tuple(_parse_rule(rule) for rule in text.split(",") if rule.strip()))

    def to_spec(self) -> str:
        return ",".join(rule.to_spec() for rule in self.rules)

    def match(
        self, action: str, *, shard: Optional[int] = None, attempt: Optional[int] = None
    ) -> Optional[FaultRule]:
        """First rule for ``action`` whose selectors match, or ``None``."""
        for rule in self.rules:
            if rule.action == action and rule.matches(shard=shard, attempt=attempt):
                return rule
        return None

    def __bool__(self) -> bool:
        return bool(self.rules)


def resolve_plan(faults: object) -> Optional[FaultPlan]:
    """Normalise a ``faults`` argument: a plan, a spec string, or ``None``
    (which falls back to the ``REPRO_FAULTS`` environment variable)."""
    if faults is None:
        return _plan_from_env()
    if isinstance(faults, FaultPlan):
        return faults
    return FaultPlan.parse(str(faults))


# --------------------------------------------------------------------------- #
# Ambient activation (reduce-stage hooks have no shard context to thread
# a plan through, so they read the active plan from here).
# --------------------------------------------------------------------------- #

_ACTIVE: "contextvars.ContextVar[Optional[FaultPlan]]" = contextvars.ContextVar(
    "repro_fault_plan", default=None
)

#: (spec string, parsed plan) — parse the env var at most once per value.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def _plan_from_env() -> Optional[FaultPlan]:
    global _ENV_CACHE
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    if _ENV_CACHE[0] != spec:
        _ENV_CACHE = (spec, FaultPlan.parse(spec))
    return _ENV_CACHE[1]


def active_plan() -> Optional[FaultPlan]:
    plan = _ACTIVE.get()
    return plan if plan is not None else _plan_from_env()


@contextlib.contextmanager
def activation(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Make ``plan`` the ambient fault plan for the duration of the block."""
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


def fire_backend_insert(attempt: int) -> None:
    """Backend-insert hook: raise an injected "database is locked" error if
    a ``lock_db`` rule matches ``attempt``.  A no-op without an active plan."""
    plan = active_plan()
    if plan is None:
        return
    rule = plan.match("lock_db", attempt=attempt)
    if rule is not None:
        raise sqlite3.OperationalError(f"database is locked [injected: {rule.to_spec()}]")


# --------------------------------------------------------------------------- #
# Per-attempt context carried through the map stage.
# --------------------------------------------------------------------------- #


class FaultContext:
    """The fault hooks one shard attempt carries through its map stage.

    ``in_process`` softens ``kill`` from ``os._exit`` to :class:`WorkerKilled`
    so serial runs (and tests) exercise the same retry path without dying.
    """

    __slots__ = ("plan", "shard", "attempt", "in_process")

    def __init__(
        self,
        plan: FaultPlan,
        *,
        shard: int,
        attempt: int,
        in_process: bool = False,
    ) -> None:
        self.plan = plan
        self.shard = shard
        self.attempt = attempt
        self.in_process = in_process

    def _match(self, action: str) -> Optional[FaultRule]:
        return self.plan.match(action, shard=self.shard, attempt=self.attempt)

    def worker_start(self) -> None:
        rule = self._match("delay")
        if rule is not None:
            time.sleep(rule.ms / 1000.0)
        rule = self._match("fail")
        if rule is not None:
            raise FaultInjected(
                f"injected failure [{rule.to_spec()}] "
                f"(shard {self.shard}, attempt {self.attempt})"
            )

    def spill_write(self, handle: IO[bytes]) -> None:
        rule = self._match("kill")
        if rule is not None:
            if self.in_process:
                raise WorkerKilled(
                    f"injected worker kill [{rule.to_spec()}] "
                    f"(shard {self.shard}, attempt {self.attempt})"
                )
            handle.flush()
            os._exit(KILL_EXIT_CODE)
        rule = self._match("truncate_spill")
        if rule is not None:
            handle.flush()
            size = handle.tell()
            handle.truncate(max(0, size // 2))
            raise OSError(
                f"injected spill truncation [{rule.to_spec()}] "
                f"(shard {self.shard}, attempt {self.attempt})"
            )

    def wire_frame(self, frame_index: int) -> Optional[str]:
        """Wire-path hook, fired by a remote worker per outgoing spill frame.

        Deterministically targets the *first* data frame of the matching
        shard attempt so every injected wire fault lands at the same byte
        position run after run.  ``stall`` sleeps here and returns ``None``;
        ``corrupt_frame``/``drop_conn`` return ``"corrupt"``/``"drop"`` for
        the worker's framing loop to act on.
        """
        if frame_index != 0:
            return None
        rule = self._match("stall")
        if rule is not None:
            time.sleep(rule.ms / 1000.0)
        rule = self._match("corrupt_frame")
        if rule is not None:
            return "corrupt"
        rule = self._match("drop_conn")
        if rule is not None:
            return "drop"
        return None
