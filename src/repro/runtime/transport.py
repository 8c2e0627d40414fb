"""The shard transport seam: how map work reaches workers, local or remote.

The sharded runtime (``sharded.py``) was designed transport-pluggable from
the start: a shard attempt is fully described by ``(plan content-fingerprint,
shard spec, source locator)`` and fully *accounted for* by its validated
spill file — a framed, fingerprint-stamped stream the reducer replays with
interleaved validation (:func:`~repro.runtime.sharded.iter_spill`).  This
module cashes that seam in.  A :class:`ShardTransport` runs the supervised
map stage for a :class:`ShardMapJob`; the reduce stage never changes,
because every transport's contract is the same: *materialize each shard's
validated spill file at the agreed path, or fail loudly*.

Two implementations ship:

* :class:`LocalTransport` — the existing single-machine path (per-attempt
  worker processes or the in-process serial mode), refactored behind the
  seam.  This is the default and is byte-for-byte the behaviour
  ``shard_execute`` always had.
* :class:`SocketTransport` — remote workers.  Shard requests travel to
  ``repro worker`` processes (:mod:`repro.runtime.worker`) as
  length-prefixed, CRC-checked frames over TCP or Unix-domain sockets
  (stdlib only), and the worker streams the finished shard's spill frames
  back.  The client re-materializes them as a local spill file and replays
  it through :func:`~repro.runtime.sharded.validate_spill` before the shard
  counts as done — a half-delivered or corrupted result is *never* trusted
  (docs/distributed.md#wire-protocol).

Transport failures are first-class error classes so the
:class:`~repro.runtime.supervisor.RetryPolicy` can tell a dead connection
from a poisoned worker (docs/distributed.md#retry-and-redispatch):

* :class:`ConnectionLost` / :class:`FrameError` — retryable; the shard is
  re-dispatched (to a surviving worker, for :class:`SocketTransport`).
* :class:`HandshakeError` — the worker rejected the plan (fingerprint or
  protocol mismatch); that *endpoint* is condemned permanently, and the
  shard moves on to a surviving worker.
* :class:`WorkerUnavailable` — no live workers remain; permanent, so the
  run degrades immediately instead of burning retries.

Security model: frames carry pickled objects (plans, shard sources, row
batches), exactly like the local multiprocessing path — so a worker must
only ever listen on a loopback interface, a Unix socket, or a network you
trust end to end (docs/distributed.md#security-model).
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .faults import FaultPlan
from .plan import MigrationPlan
from .supervisor import (
    ChildProcesses,
    RemoteShardError,
    RetryPolicy,
    ShardSupervisor,
    SupervisionOutcome,
    plain_calls,
)

__all__ = [
    "WIRE_MAGIC",
    "TransportError",
    "ConnectionLost",
    "FrameError",
    "HandshakeError",
    "WorkerUnavailable",
    "RemoteShardError",
    "ShardMapJob",
    "ShardTransport",
    "LocalTransport",
    "SocketTransport",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "parse_address",
    "format_address",
    "connect_address",
]

#: Protocol identifier exchanged in the handshake; bump on incompatible change.
WIRE_MAGIC = "repro-shard-wire/1"

#: ``(payload length, payload crc32)`` — the prefix of every frame.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a single frame's payload; a larger declared length means a
#: corrupt or foreign stream, not a legitimate message.
MAX_FRAME_BYTES = 512 * 1024 * 1024

#: Bytes of spill data per ``("data", ...)`` frame when streaming a finished
#: shard back from a remote worker.
SPILL_FRAME_BYTES = 256 * 1024


class TransportError(Exception):
    """A shard-transport failure.  The base class (and its connection/frame
    subclasses) is classified *retryable* by :class:`RetryPolicy`; the
    handshake/availability subclasses below are permanent."""


class ConnectionLost(TransportError):
    """The peer closed, reset, or timed out mid-conversation (retryable)."""


class FrameError(TransportError):
    """A frame failed its checksum, length, or decode (retryable — the
    re-dispatched attempt re-streams the shard from scratch)."""


class HandshakeError(TransportError):
    """The worker rejected the handshake — wrong protocol magic or a plan
    whose content fingerprint does not match what the driver announced.
    Permanent for that *endpoint*: it is condemned and never used again."""


class WorkerUnavailable(TransportError):
    """No live worker endpoint remains to run a shard (permanent: retrying
    cannot help, so the run degrades immediately)."""


# --------------------------------------------------------------------------- #
# Framing: length-prefixed, CRC-checked pickle messages
# --------------------------------------------------------------------------- #


def encode_frame(message: Any) -> bytes:
    """One wire frame: ``>II`` (length, crc32) header + pickled payload."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return FRAME_HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


def send_frame(sock: socket.socket, message: Any) -> None:
    try:
        sock.sendall(encode_frame(message))
    except OSError as error:
        raise ConnectionLost(f"connection lost while sending: {error}") from error


def _recv_exact(sock: socket.socket, size: int, what: str) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        try:
            piece = sock.recv(min(remaining, 1 << 20))
        except OSError as error:
            raise ConnectionLost(
                f"connection lost while reading {what}: {error}"
            ) from error
        if not piece:
            raise ConnectionLost(
                f"connection closed mid-{what} "
                f"({size - remaining} of {size} bytes arrived)"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, *, what: str = "frame") -> Any:
    """Read one frame, enforcing the length bound and the CRC *before* the
    payload is unpickled — a corrupted frame raises :class:`FrameError`, a
    cut connection :class:`ConnectionLost`; neither is ever silently
    truncated into a short result."""
    header = _recv_exact(sock, FRAME_HEADER.size, f"{what} header")
    length, crc = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"{what} declares {length} bytes (limit {MAX_FRAME_BYTES}); "
            f"corrupt or foreign stream"
        )
    data = _recv_exact(sock, length, f"{what} payload")
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        raise FrameError(f"{what} failed its CRC check (corrupt frame)")
    try:
        return pickle.loads(data)
    except Exception as error:  # noqa: BLE001 - any decode failure is a frame error
        raise FrameError(f"{what} payload does not decode: {error}") from error


def _recv_reply(sock: socket.socket, what: str) -> Tuple[str, Any]:
    """One worker reply: a ``(kind, body)`` pair whose body is a dict — or
    bytes, for a ``data`` frame.  Anything else is a :class:`FrameError`,
    so a malformed reply never reaches the code that reads it."""
    message = recv_frame(sock, what=what)
    if isinstance(message, tuple) and len(message) == 2 and isinstance(message[0], str):
        kind, body = message
        if isinstance(body, bytes if kind == "data" else dict):
            return kind, body
    raise FrameError(f"{what} is not a (kind, body) pair: {message!r:.120}")


# --------------------------------------------------------------------------- #
# Addresses: "host:port" (TCP) or a path / "unix:path" (Unix-domain)
# --------------------------------------------------------------------------- #


def parse_address(text: str) -> Tuple[str, Any]:
    """``("tcp", (host, port))`` or ``("unix", path)``.

    Anything with a path separator (or the explicit ``unix:`` prefix) is a
    Unix-domain socket; otherwise ``host:port``.
    """
    text = text.strip()
    if not text:
        raise TransportError("empty worker address")
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):])
    if os.sep in text or text.startswith("."):
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise TransportError(
            f"worker address {text!r} is neither HOST:PORT nor a unix socket path"
        )
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise TransportError(f"worker address {text!r} has a non-numeric port") from None


def format_address(family: str, target: Any) -> str:
    if family == "unix":
        return f"unix:{target}"
    host, port = target
    return f"{host}:{port}"


def connect_address(address: str, timeout: Optional[float]) -> socket.socket:
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


# --------------------------------------------------------------------------- #
# The map job a transport runs
# --------------------------------------------------------------------------- #


@dataclass
class ShardMapJob:
    """Everything a transport needs to run one supervised map stage.

    ``specs`` are the *pending* shards (resumed shards never reach the
    transport), ``spill_paths`` the agreed local destination per shard
    index — whatever the transport does, a validated spill file must exist
    there for every successful shard, because the reducer replays exactly
    those paths.
    """

    plan: MigrationPlan
    fingerprint: str
    source: Any
    specs: Sequence[Any]
    chunk_size: int
    spill_paths: Dict[int, str]
    scratch_dir: str
    policy: RetryPolicy
    workers: int
    shard_timeout: Optional[float] = None
    faults: Optional[FaultPlan] = None
    on_complete: Optional[Callable[[int, Any], None]] = None


class ShardTransport:
    """How shard attempts reach execution.  ``run_map`` must return a
    :class:`~repro.runtime.supervisor.SupervisionOutcome` whose successful
    shards each left a spill file at ``job.spill_paths[shard]`` that
    replays cleanly under the job's plan fingerprint."""

    name = "abstract"

    def run_map(self, job: ShardMapJob) -> SupervisionOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (connections).  Idempotent."""

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalTransport(ShardTransport):
    """Single-machine execution: the supervisor path ``shard_execute``
    always had, now behind the transport seam.

    ``workers > 1`` (or a ``shard_timeout``, which needs killable attempts)
    runs each attempt as an isolated child process
    (:class:`~repro.runtime.supervisor.ChildProcesses`); otherwise shards
    run serially in-process, sharing one compiled-execution set.
    """

    name = "local"

    def run_map(self, job: ShardMapJob) -> SupervisionOutcome:
        # Imported late: sharded.py imports this module for the seam types.
        from .executor import compile_plan_executions
        from .sharded import _attempt_shard

        if not job.specs:
            return SupervisionOutcome()
        # Process isolation is what makes timeouts enforceable and worker
        # death survivable; the serial path keeps 1-worker runs cheap.
        isolated = job.workers > 1 or job.shard_timeout is not None
        shared: Dict[str, Any] = {"in_process": not isolated}
        if not isolated:
            shared["executions"] = compile_plan_executions(job.plan)
        tasks = [
            (
                spec.index,
                {
                    "plan": job.plan,
                    "source": job.source,
                    "spec": spec,
                    "chunk_size": job.chunk_size,
                    "spill_path": job.spill_paths[spec.index],
                    "fingerprint": job.fingerprint,
                    "faults": job.faults,
                    **shared,
                },
            )
            for spec in job.specs
        ]
        children = ChildProcesses(
            _attempt_shard,
            policy=job.policy,
            scratch_dir=job.scratch_dir,
            timeout=job.shard_timeout,
        )
        supervisor = ShardSupervisor(
            children.launch if isolated else plain_calls(_attempt_shard),
            policy=job.policy,
            concurrency=min(job.workers, len(tasks)),
            on_complete=job.on_complete,
        )
        try:
            return supervisor.run(tasks)
        finally:
            children.close()


# --------------------------------------------------------------------------- #
# Remote workers over sockets
# --------------------------------------------------------------------------- #


@dataclass
class _Endpoint:
    """One remote worker: its address, an optional live connection (one
    in-flight shard at a time), and whether it has been condemned."""

    address: str
    sock: Optional[socket.socket] = None
    fingerprint: Optional[str] = None
    busy: bool = False
    dead: bool = False
    dead_reason: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)

    def drop_connection(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self.sock = None
            self.fingerprint = None


class SocketTransport(ShardTransport):
    """Ship shards to ``repro worker`` processes over TCP/Unix sockets.

    Each endpoint runs one shard at a time over a persistent connection.
    An attempt is a plain call that blocks on the socket conversation while
    the worker process does the CPU work — on one of the supervisor's pool
    threads (one per endpoint) when there are several endpoints.  A connection
    or frame failure re-dispatches the shard under the retry policy — to a
    *surviving* worker when the failed endpoint cannot be reconnected.  A
    handshake rejection (plan fingerprint mismatch) condemns the endpoint
    permanently on the spot (docs/distributed.md#handshake-and-fingerprint-rules).

    ``addresses`` is a sequence of worker addresses or the comma-separated
    string form the CLI and job specs carry.  ``timeout`` bounds every
    socket read/write (defaults to the job's ``shard_timeout`` when unset);
    ``connect_timeout`` bounds dialing.
    """

    name = "socket"

    def __init__(
        self,
        addresses: Union[str, Sequence[str]],
        *,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        if isinstance(addresses, str):
            addresses = [piece.strip() for piece in addresses.split(",") if piece.strip()]
        else:
            addresses = [str(address) for address in addresses]
        if not addresses:
            raise TransportError("SocketTransport needs at least one worker address")
        for address in addresses:
            parse_address(address)  # fail fast on malformed addresses
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._endpoints = [_Endpoint(address=address) for address in addresses]
        self._cond = threading.Condition()
        self._rotation = 0

    # ------------------------------------------------------------ endpoints

    @property
    def endpoints(self) -> List[_Endpoint]:
        return list(self._endpoints)

    def live_endpoints(self) -> List[str]:
        with self._cond:
            return [e.address for e in self._endpoints if not e.dead]

    def _acquire(self) -> Optional[_Endpoint]:
        with self._cond:
            while True:
                live = [e for e in self._endpoints if not e.dead]
                if not live:
                    return None
                idle = [e for e in live if not e.busy]
                if idle:
                    # Rotate so shards spread across workers instead of
                    # piling onto the first idle endpoint.
                    self._rotation += 1
                    chosen = idle[self._rotation % len(idle)]
                    chosen.busy = True
                    return chosen
                self._cond.wait(timeout=0.05)

    def _release(self, endpoint: _Endpoint) -> None:
        with self._cond:
            endpoint.busy = False
            self._cond.notify_all()

    def _condemn(self, endpoint: _Endpoint, reason: str) -> None:
        with self._cond:
            endpoint.dead = True
            endpoint.dead_reason = reason
            endpoint.busy = False
            endpoint.drop_connection()
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            for endpoint in self._endpoints:
                endpoint.drop_connection()
            self._cond.notify_all()

    # ------------------------------------------------------------ map stage

    def run_map(self, job: ShardMapJob) -> SupervisionOutcome:
        if not job.specs:
            return SupervisionOutcome()
        effective_timeout = self.timeout if self.timeout is not None else job.shard_timeout
        supervisor = ShardSupervisor(
            plain_calls(
                lambda spec, attempt: self._run_shard(job, spec, attempt, effective_timeout)
            ),
            policy=job.policy,
            concurrency=min(len(self._endpoints), len(job.specs)),
            on_complete=job.on_complete,
        )
        return supervisor.run([(spec.index, spec) for spec in job.specs])

    def _run_shard(
        self,
        job: ShardMapJob,
        spec: Any,
        attempt: int,
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        last_error: Optional[BaseException] = None
        while True:
            endpoint = self._acquire()
            if endpoint is None:
                condemned = "; ".join(
                    f"{e.address}: {e.dead_reason}" for e in self._endpoints if e.dead
                )
                detail = f" ({condemned})" if condemned else ""
                if last_error is not None:
                    detail = f"{detail} [last error: {last_error}]"
                raise WorkerUnavailable(
                    f"no live remote workers left for shard {spec.index}{detail}"
                )
            try:
                self._ensure_ready(endpoint, job, timeout)
            except BaseException as error:
                # Connect/handshake failures poison the *endpoint*, not the
                # shard: condemn it and move straight to a surviving worker.
                self._condemn(
                    endpoint, f"connect/handshake failed: {type(error).__name__}: {error}"
                )
                if not isinstance(error, (TransportError, OSError)):
                    raise
                last_error = error
                continue
            try:
                return self._converse(endpoint, job, spec, attempt)
            except BaseException:
                # The conversation may have stopped mid-stream: drop the
                # connection but keep the endpoint — reconnecting decides
                # whether the worker is gone (refused -> condemned).
                with self._cond:
                    endpoint.drop_connection()
                raise
            finally:
                self._release(endpoint)

    def _ensure_ready(
        self, endpoint: _Endpoint, job: ShardMapJob, timeout: Optional[float]
    ) -> None:
        """Connect and handshake; ship the plan if the worker lacks it."""
        if endpoint.sock is not None and endpoint.fingerprint == job.fingerprint:
            return
        endpoint.drop_connection()
        sock = connect_address(endpoint.address, self.connect_timeout)
        sock.settimeout(timeout)
        try:
            send_frame(sock, ("hello", {"magic": WIRE_MAGIC, "fingerprint": job.fingerprint}))
            kind, info = _recv_reply(sock, "handshake")
            if kind == "reject":
                raise HandshakeError(
                    f"worker {endpoint.address} rejected plan "
                    f"{job.fingerprint[:12]}…: {info.get('reason')}"
                )
            if kind != "ready" or info.get("magic") != WIRE_MAGIC:
                raise HandshakeError(
                    f"worker {endpoint.address} spoke an unexpected protocol "
                    f"(got {kind!r}/{info!r}, want ready/{WIRE_MAGIC})"
                )
            if not info.get("have_plan"):
                send_frame(sock, ("plan", job.plan))
                kind, info = _recv_reply(sock, "plan ack")
                if kind == "reject":
                    raise HandshakeError(
                        f"worker {endpoint.address} rejected plan "
                        f"{job.fingerprint[:12]}…: {info.get('reason')}"
                    )
                if kind != "ready":
                    raise HandshakeError(
                        f"worker {endpoint.address} answered the plan with {kind!r}"
                    )
        except BaseException:
            sock.close()
            raise
        endpoint.sock = sock
        endpoint.fingerprint = job.fingerprint

    def _converse(
        self, endpoint: _Endpoint, job: ShardMapJob, spec: Any, attempt: int
    ) -> Dict[str, Any]:
        """One shard round-trip: request out, spill frames back, validate."""
        from .sharded import validate_spill

        sock = endpoint.sock
        assert sock is not None
        send_frame(
            sock,
            (
                "shard",
                {
                    "spec": (spec.index, spec.start, spec.stop),
                    "source": job.source,
                    "chunk_size": job.chunk_size,
                    "faults": job.faults.to_spec() if job.faults else None,
                    "attempt": attempt,
                    "policy": job.policy,
                },
            ),
        )
        kind, info = _recv_reply(sock, "spill announcement")
        if kind == "error":
            raise RemoteShardError(
                f"shard {spec.index} failed on worker {endpoint.address}: "
                f"{info.get('error')}",
                remote_type=str(info.get("type", "Exception")),
                retryable=bool(info.get("retryable", False)),
                remote_traceback=str(info.get("traceback", "")),
            )
        if kind != "spill":
            raise FrameError(
                f"worker {endpoint.address} answered shard {spec.index} "
                f"with {kind!r}, expected a spill announcement"
            )
        expected_size, expected_crc = info.get("size"), info.get("crc32")
        if not (isinstance(expected_size, int) and isinstance(expected_crc, int)):
            raise FrameError(
                f"worker {endpoint.address} announced shard {spec.index}'s spill "
                f"without an integer size and crc32 ({info!r:.120})"
            )
        spill_path = job.spill_paths[spec.index]
        temp_path = f"{spill_path}.rx-{attempt}"
        received = 0
        crc = 0
        try:
            with open(temp_path, "wb") as handle:
                while True:
                    kind, body = _recv_reply(sock, "spill frame")
                    if kind == "data":
                        handle.write(body)
                        crc = zlib.crc32(body, crc)
                        received += len(body)
                        continue
                    if kind == "done":
                        break
                    if kind == "error":
                        raise RemoteShardError(
                            f"shard {spec.index} failed mid-stream on worker "
                            f"{endpoint.address}: {body.get('error')}",
                            remote_type=str(body.get("type", "Exception")),
                            retryable=bool(body.get("retryable", False)),
                            remote_traceback=str(body.get("traceback", "")),
                        )
                    raise FrameError(
                        f"unexpected {kind!r} frame inside shard "
                        f"{spec.index}'s spill stream"
                    )
            if received != expected_size or (crc & 0xFFFFFFFF) != expected_crc:
                raise FrameError(
                    f"shard {spec.index} spill stream from {endpoint.address} "
                    f"does not match its announcement "
                    f"({received}/{expected_size} bytes, crc mismatch: "
                    f"{(crc & 0xFFFFFFFF) != expected_crc})"
                )
            os.replace(temp_path, spill_path)
        finally:
            if os.path.exists(temp_path):
                os.remove(temp_path)
        # The transport-level CRCs guard the wire; this full replay holds the
        # *content* to the same ShardError contract as a locally-written spill.
        return validate_spill(
            spill_path, plan_fingerprint=job.fingerprint, shard_index=spec.index
        )
