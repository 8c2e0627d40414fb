"""The ``repro worker`` daemon: a remote shard executor.

A :class:`ShardWorker` listens on a TCP or Unix-domain socket and serves
shard requests from a :class:`~repro.runtime.transport.SocketTransport`
driver.  The conversation per connection (docs/distributed.md#wire-protocol):

1. ``("hello", {magic, fingerprint})`` — the driver announces the protocol
   version and the *content fingerprint* of the plan it is about to run.
   The worker answers ``("ready", {magic, have_plan})``; if it has never
   seen that fingerprint the driver ships the plan in a ``("plan", plan)``
   frame, and the worker **recomputes the fingerprint from the received
   plan** — a mismatch (stale, tampered, or version-skewed plan) is
   answered with ``("reject", {reason})`` and the connection closed, which
   the driver treats as permanently condemning this worker
   (docs/distributed.md#handshake-and-fingerprint-rules).
2. ``("shard", {spec, source, chunk_size, faults, attempt, policy})`` —
   the worker runs :func:`~repro.runtime.sharded.execute_shard` over the
   shard's record window into a *local temporary spill file* (full fused
   map-stage reuse: per-shard dedup, namespaced surrogate keys), then sends
   that file's frames — ``("begin", header)``, ``("rows", table, rows)`` ×
   N, ``("end", manifest)`` — exactly as they are on disk.  A failure
   travels back instead as ``("error", {type, error, retryable,
   traceback})``, classified with the driver's own shipped
   :class:`~repro.runtime.supervisor.RetryPolicy` so both sides agree on
   what is worth retrying.

Every request is held to its shape before it is read; a malformed frame
closes its connection with :class:`~repro.runtime.transport.FrameError`
and never the handler thread.  The worker holds no reducer state and writes
nothing outside its scratch directory: every completed shard is fully
accounted for by the spill frames it sends, which the driver validates as
they arrive.  Plans and their compiled executions are cached per
fingerprint, so a fleet of shards under one plan compiles once per worker.

Wire-path fault injection (``stall`` / ``corrupt_frame`` / ``drop_conn``
rules, docs/distributed.md#fault-injection) fires on the first spill frame
via :meth:`FaultContext.wire_frame`; a ``kill`` rule in a remote worker
terminates the whole daemon with ``os._exit`` — remote workers *are* the
worker process.

Security model: frames carry pickles, so bind only to loopback, a Unix
socket, or a fully trusted network (docs/distributed.md#security-model).
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading
import traceback
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .faults import FaultContext, FaultPlan
from .plan import MigrationPlan
from .supervisor import RetryPolicy
from .transport import (
    WIRE_MAGIC,
    ConnectionLost,
    FrameError,
    TransportError,
    format_address,
    parse_address,
    read_frame,
    recv_pair,
    send_frame,
)

__all__ = ["ShardWorker", "run_worker"]

#: Plans (and their compiled executions) cached per worker, LRU-evicted.
MAX_CACHED_PLANS = 8


class ShardWorker:
    """A socket server executing shards for remote drivers.

    ``address`` is ``host:port`` (``port`` 0 picks a free port) or a Unix
    socket path / ``unix:path``.  ``expect_fingerprint`` pins the worker to
    one plan: any other fingerprint is rejected at handshake — useful for
    fleets that must never run an unvetted plan.
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        *,
        expect_fingerprint: Optional[str] = None,
    ) -> None:
        self._family, self._target = parse_address(address)
        self.expect_fingerprint = expect_fingerprint
        self._server: Optional[socket.socket] = None
        self._scratch: Optional[str] = None
        self._threads: list = []
        self._lock = threading.Lock()
        self._plans: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
        self._stopping = threading.Event()
        self.address: Optional[str] = None
        self.shards_served = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> str:
        """Bind, start the accept loop in a daemon thread, return the bound
        address (with the kernel-assigned port resolved)."""
        if self._server is not None:
            raise RuntimeError("worker already started")
        if self._family == "unix":
            server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            server.bind(self._target)
            self.address = format_address("unix", self._target)
        else:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind(self._target)
            host, port = server.getsockname()[:2]
            self.address = format_address("tcp", (host, port))
        server.listen(16)
        self._server = server
        self._scratch = tempfile.mkdtemp(prefix="repro-worker-")
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._server = None
        if self._family == "unix" and os.path.exists(self._target):
            try:
                os.remove(self._target)
            except OSError:  # pragma: no cover
                pass
        if self._scratch and os.path.isdir(self._scratch):
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    def __enter__(self) -> "ShardWorker":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------ serving

    def _accept_loop(self) -> None:
        server = self._server
        while server is not None and not self._stopping.is_set():
            try:
                conn, _peer = server.accept()
            except OSError:
                return  # listener closed: shutting down
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            handler.start()
            self._threads.append(handler)

    def _serve_connection(self, conn: socket.socket) -> None:
        fingerprint: Optional[str] = None
        try:
            while not self._stopping.is_set():
                kind, body = recv_pair(conn, "request")
                if kind == "hello":
                    fingerprint = self._handshake(conn, body)
                    if fingerprint is None:
                        return  # rejected; connection is done
                elif kind == "shard":
                    if fingerprint is None:
                        send_frame(
                            conn,
                            ("error", {
                                "type": "HandshakeError",
                                "error": "shard request before handshake",
                                "retryable": False,
                            }),
                        )
                        return
                    self._serve_shard(conn, fingerprint, body)
                else:
                    raise FrameError(f"unexpected {kind!r} request frame")
        except (TransportError, OSError):
            # The driver left between shards, the connection broke, or a frame
            # was malformed: drop the connection; the driver re-dispatches.
            return
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handshake(self, conn: socket.socket, body: Dict[str, Any]) -> Optional[str]:
        """Returns the agreed fingerprint, or ``None`` after a reject."""
        if body.get("magic") != WIRE_MAGIC:
            send_frame(
                conn,
                ("reject", {"reason": f"protocol mismatch (worker speaks {WIRE_MAGIC})"}),
            )
            return None
        fingerprint = str(body.get("fingerprint") or "")
        if self.expect_fingerprint and fingerprint != self.expect_fingerprint:
            send_frame(
                conn,
                ("reject", {
                    "reason": (
                        f"worker is pinned to plan "
                        f"{self.expect_fingerprint[:12]}…, not {fingerprint[:12]}…"
                    )
                }),
            )
            return None
        with self._lock:
            have_plan = fingerprint in self._plans
            if have_plan:
                self._plans.move_to_end(fingerprint)
        send_frame(conn, ("ready", {"magic": WIRE_MAGIC, "have_plan": have_plan}))
        if have_plan:
            return fingerprint
        kind, plan = recv_pair(conn, "plan", MigrationPlan)
        if kind != "plan":
            raise FrameError(f"expected a plan frame after ready, got {kind!r}")
        # The fingerprint is recomputed from the *received* bytes: the driver
        # does not get to assert what a plan hashes to, it has to be true.
        actual = plan.content_fingerprint()
        if actual != fingerprint:
            send_frame(
                conn,
                ("reject", {
                    "reason": (
                        f"plan fingerprint mismatch: announced "
                        f"{fingerprint[:12]}…, received plan hashes to {actual[:12]}…"
                    )
                }),
            )
            return None
        from .executor import compile_plan_executions

        executions = compile_plan_executions(plan)
        with self._lock:
            self._plans[fingerprint] = (plan, executions)
            self._plans.move_to_end(fingerprint)
            while len(self._plans) > MAX_CACHED_PLANS:
                self._plans.popitem(last=False)
        send_frame(conn, ("ready", {"magic": WIRE_MAGIC, "have_plan": True}))
        return fingerprint

    def _serve_shard(
        self, conn: socket.socket, fingerprint: str, body: Dict[str, Any]
    ) -> None:
        from .sharded import ShardSpec, execute_shard

        spec, chunk_size = body.get("spec"), body.get("chunk_size")
        attempt = body.get("attempt", 1)
        if not (isinstance(spec, tuple) and len(spec) == 3) or not all(
            isinstance(value, int) for value in (*spec, chunk_size, attempt)
        ):
            raise FrameError(
                f"malformed shard request (spec {spec!r:.60}, chunk_size "
                f"{chunk_size!r:.20}, attempt {attempt!r:.20})"
            )
        with self._lock:
            plan, executions = self._plans[fingerprint]
        index, start, stop = spec
        policy = body.get("policy")
        if not isinstance(policy, RetryPolicy):
            policy = RetryPolicy()
        scratch = self._scratch or tempfile.gettempdir()
        spill_path = os.path.join(
            scratch, f"shard-{index:05d}-a{attempt}-{threading.get_ident()}.spill"
        )
        try:
            faults = FaultPlan.parse(body["faults"]) if body.get("faults") else None
            execute_shard(
                plan,
                body.get("source"),
                ShardSpec(index=index, start=start, stop=stop),
                chunk_size=chunk_size,
                spill_path=spill_path,
                plan_fingerprint=fingerprint,
                executions=executions,
                faults=faults,
                attempt=attempt,
                in_process=False,
            )
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            if os.path.exists(spill_path):
                os.remove(spill_path)
            send_frame(
                conn,
                ("error", {
                    "type": type(error).__name__,
                    "error": str(error),
                    "retryable": policy.is_retryable(error),
                    "traceback": traceback.format_exc(),
                }),
            )
            return
        context = (
            FaultContext(faults, shard=index, attempt=attempt, in_process=False)
            if faults
            else None
        )
        try:
            self._forward_spill(conn, spill_path, context)
        finally:
            if os.path.exists(spill_path):
                os.remove(spill_path)

    def _forward_spill(
        self, conn: socket.socket, spill_path: str, context: Optional[FaultContext]
    ) -> None:
        """Send the spill's frames as they are on disk: the spill *is* the
        reply.  The wire-fault hooks fire on the first frame."""
        with open(spill_path, "rb") as handle:
            frame_index = 0
            while handle.peek(1):
                frame = read_frame(handle, what="spill frame")
                action = context.wire_frame(frame_index) if context else None
                if action == "corrupt":
                    # Flip the last payload byte *after* the CRC was stamped:
                    # the driver's checksum catches it and re-dispatches.
                    mutated = bytearray(frame)
                    mutated[-1] ^= 0xFF
                    frame = bytes(mutated)
                elif action == "drop":
                    # The cable-cut case: half a frame, then a dead socket.
                    conn.sendall(frame[: max(1, len(frame) // 2)])
                    conn.close()
                    raise ConnectionLost("injected drop_conn severed the stream")
                if not handle.peek(1):
                    # Counted before the end frame leaves: a driver that has
                    # the whole spill also sees the count.
                    self.shards_served += 1
                conn.sendall(frame)
                frame_index += 1


def run_worker(
    address: str,
    *,
    expect_fingerprint: Optional[str] = None,
    announce=print,
) -> int:
    """CLI entry: serve shards until interrupted.  Returns an exit code."""
    worker = ShardWorker(address, expect_fingerprint=expect_fingerprint)
    bound = worker.start()
    announce(f"worker listening on {bound}")
    try:
        while True:
            worker._stopping.wait(3600)
            if worker._stopping.is_set():  # pragma: no cover - stop() path
                break
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
    return 0
