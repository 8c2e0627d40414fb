"""The shard transport seam: how map work reaches workers, local or remote.

The sharded runtime (``sharded.py``) was designed transport-pluggable from
the start: a shard attempt is fully described by ``(plan content-fingerprint,
shard spec, source locator)`` and fully *accounted for* by its validated
spill — a stream of CRC-checked frames (:func:`encode_frame`) that is the
same bytes on disk and on the wire, checked by one validator
(:func:`~repro.runtime.sharded.check_spill`).  This module holds the frame
codec — the one place a message is pickled or unpickled — and cashes that
seam in.  A :class:`ShardTransport` runs the supervised
map stage for a :class:`ShardMapJob`; the reduce stage never changes,
because every transport's contract is the same: *materialize each shard's
validated spill file at the agreed path, or fail loudly*.

Two implementations ship:

* :class:`LocalTransport` — the existing single-machine path (per-attempt
  worker processes or the in-process serial mode), refactored behind the
  seam.  This is the default and is byte-for-byte the behaviour
  ``shard_execute`` always had.
* :class:`SocketTransport` — remote workers.  Shard requests travel to
  ``repro worker`` processes (:mod:`repro.runtime.worker`) as frames over
  TCP or Unix-domain sockets (stdlib only), and the worker sends its
  finished spill's frames back as they are.  The driver checks each frame's
  CRC and the message stream as it arrives, writing the frames to a local
  spill file that is renamed into place only once the end manifest has
  validated — a half-delivered or corrupted result is *never* trusted
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
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .faults import FaultPlan
from .plan import MigrationPlan
from .streaming import ShardError
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
    "read_frame",
    "decode_frame",
    "recv_frame",
    "recv_pair",
    "message_kind",
    "parse_address",
    "format_address",
    "connect_address",
]

#: Protocol identifier exchanged in the handshake; bump on incompatible change.
WIRE_MAGIC = "repro-shard-wire/2"

#: ``(payload length, payload crc32)`` — the prefix of every frame.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a single frame's payload; a larger declared length means a
#: corrupt or foreign stream, not a legitimate message.
MAX_FRAME_BYTES = 512 * 1024 * 1024


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
# Framing: length-prefixed, CRC-checked pickle messages, on a socket or a file
# --------------------------------------------------------------------------- #


def encode_frame(message: Any) -> bytes:
    """One frame: ``>II`` (length, crc32) header + pickled payload.  The
    only place a message is pickled — wire requests, replies and every
    spill message alike."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return FRAME_HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


def send_frame(sock: socket.socket, message: Any) -> None:
    try:
        sock.sendall(encode_frame(message))
    except OSError as error:
        raise ConnectionLost(f"connection lost while sending: {error}") from error


def _read_exact(read: Callable[[int], bytes], size: int, what: str) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        try:
            piece = read(min(remaining, 1 << 20))
        except OSError as error:
            raise ConnectionLost(f"stream lost while reading {what}: {error}") from error
        if not piece:
            raise ConnectionLost(
                f"stream ended mid-{what} ({size - remaining} of {size} bytes arrived)"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def read_frame(stream: Union[socket.socket, BinaryIO], *, what: str = "frame") -> bytes:
    """One whole frame, header included, from a socket or a binary file.

    The length bound and the CRC are enforced before the bytes are returned:
    a bad length or checksum raises :class:`FrameError`, a stream that ends
    mid-frame (a cut connection, a truncated file) :class:`ConnectionLost`.
    """
    read = stream.recv if isinstance(stream, socket.socket) else stream.read
    header = _read_exact(read, FRAME_HEADER.size, f"{what} header")
    length, crc = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"{what} declares {length} bytes (limit {MAX_FRAME_BYTES}); "
            f"corrupt or foreign stream"
        )
    data = _read_exact(read, length, f"{what} payload")
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        raise FrameError(f"{what} failed its CRC check (corrupt frame)")
    return header + data


def decode_frame(frame: bytes, *, what: str = "frame") -> Any:
    """The message of a frame :func:`read_frame` returned."""
    try:
        return pickle.loads(memoryview(frame)[FRAME_HEADER.size:])
    except Exception as error:  # noqa: BLE001 - any decode failure is a frame error
        raise FrameError(f"{what} payload does not decode: {error}") from error


def recv_frame(stream: Union[socket.socket, BinaryIO], *, what: str = "frame") -> Any:
    """Read and decode one frame (:func:`read_frame`, then unpickle)."""
    return decode_frame(read_frame(stream, what=what), what=what)


def message_kind(message: Any, *types: type) -> Optional[str]:
    """The kind of a ``(kind, *parts)`` message whose parts are instances of
    ``types``; ``None`` for anything else.  Every decoded request, reply and
    spill message is held to its shape with this before it is read."""
    if (
        isinstance(message, tuple)
        and len(message) == 1 + len(types)
        and isinstance(message[0], str)
        and all(map(isinstance, message[1:], types))
    ):
        return message[0]
    return None


def recv_pair(sock: socket.socket, what: str, body_type: type = dict) -> Tuple[str, Any]:
    """One request or reply: a ``(kind, body)`` pair whose body is a
    ``body_type``, or a :class:`FrameError` — on either side of the wire."""
    message = recv_frame(sock, what=what)
    if message_kind(message, body_type) is None:
        raise FrameError(f"{what} is not a (kind, {body_type.__name__}) pair: {message!r:.120}")
    return message


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
            kind, info = recv_pair(sock, "handshake")
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
                kind, info = recv_pair(sock, "plan ack")
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
        """One shard round-trip: the request out, the spill stream back.

        Each frame is CRC-checked on arrival, checked by the spill
        validator and written to ``<spill>.rx-<attempt>``; the file is
        renamed into place once the end manifest has validated.  Returns
        that manifest.
        """
        from .sharded import check_spill

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

        def received(handle: BinaryIO):
            while True:
                frame = read_frame(sock, what="spill frame")
                message = decode_frame(frame, what="spill frame")
                if message_kind(message, dict) == "error":
                    info = message[1]
                    raise RemoteShardError(
                        f"shard {spec.index} failed on worker {endpoint.address}: "
                        f"{info.get('error')}",
                        remote_type=str(info.get("type", "Exception")),
                        retryable=bool(info.get("retryable", False)),
                        remote_traceback=str(info.get("traceback", "")),
                    )
                handle.write(frame)
                yield message

        spill_path = job.spill_paths[spec.index]
        temp_path = f"{spill_path}.rx-{attempt}"
        manifest: Dict[str, Any] = {}
        try:
            with open(temp_path, "wb") as handle:
                batches = check_spill(
                    received(handle),
                    plan_fingerprint=job.fingerprint,
                    shard_index=spec.index,
                    where=f"shard {spec.index}'s stream from {endpoint.address}",
                    manifest_out=manifest,
                )
                for _batch in batches:
                    pass
            os.replace(temp_path, spill_path)
        except ShardError as error:
            raise FrameError(str(error)) from error
        finally:
            if os.path.exists(temp_path):
                os.remove(temp_path)
        return manifest
