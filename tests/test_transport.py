"""Transport-level conformance and wire-protocol tests (PR 9).

Covers the `ShardTransport` seam: frame encoding/decoding (length bound,
CRC, truncation), worker addresses, the handshake + fingerprint rules, and
the conformance matrix — `LocalTransport` and `SocketTransport` must both
produce byte-canonically the output of whole-tree execution, across the
memory / SQLite / columnar backends, on the DBLP plan and on random
record-local programs.  Also the subprocess `repro worker` CLI, SIGKILL
redispatch, Unix-domain sockets, and the `--remote-workers` flag.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.datasets import dblp
from repro.runtime import (
    MemoryBackend,
    MigrationPlan,
    SQLiteBackend,
    ShardDegradedError,
    canonical_table_rows,
    execute_plan,
    shard_execute,
)
from repro.runtime.backends import ColumnarBackend
from repro.runtime.cli import main as cli_main
from repro.runtime.supervisor import RetryPolicy
from repro.runtime.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    WIRE_MAGIC,
    ConnectionLost,
    FrameError,
    HandshakeError,
    LocalTransport,
    SocketTransport,
    TransportError,
    WorkerUnavailable,
    encode_frame,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.runtime.worker import ShardWorker

from test_sharded import _single_table_plan, single_record_trees
from test_properties import random_programs


@pytest.fixture(scope="module")
def dblp_plan():
    return MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())


@pytest.fixture(scope="module")
def worker_pair():
    """Two in-process shard workers on loopback TCP, shared by the module."""
    with ShardWorker() as first, ShardWorker() as second:
        yield (first, second)


def _canonical(plan, backend):
    return canonical_table_rows(
        plan.schema, {t: backend.fetch_rows(t) for t in plan.schema.table_names}
    )


def _whole_tree_reference(plan, document):
    report = execute_plan(plan, document, MemoryBackend())
    return _canonical(plan, report.backend)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #


def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = ("shard", {"spec": (0, 0, 10), "chunk": b"\x00\xffpayload"})
        send_frame(left, message)
        assert recv_frame(right) == message
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_corrupted_payload():
    left, right = socket.socketpair()
    try:
        frame = bytearray(encode_frame(("data", b"x" * 100)))
        frame[-1] ^= 0xFF  # flip a payload byte after the CRC was stamped
        left.sendall(bytes(frame))
        with pytest.raises(FrameError, match="CRC"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_recv_frame_truncated_stream_is_connection_lost():
    left, right = socket.socketpair()
    try:
        frame = encode_frame(("data", b"y" * 1000))
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(ConnectionLost, match="mid-"):
            recv_frame(right)
    finally:
        right.close()


def test_recv_frame_rejects_oversized_declared_length():
    left, right = socket.socketpair()
    try:
        left.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(FrameError, match="limit"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_undecodable_payload():
    left, right = socket.socketpair()
    try:
        data = b"not a pickle at all"
        left.sendall(FRAME_HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data)
        with pytest.raises(FrameError, match="does not decode"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# --------------------------------------------------------------------------- #
# Addresses
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "text, expected",
    [
        ("127.0.0.1:9100", ("tcp", ("127.0.0.1", 9100))),
        ("localhost:0", ("tcp", ("localhost", 0))),
        ("unix:/tmp/w.sock", ("unix", "/tmp/w.sock")),
        ("/tmp/w.sock", ("unix", "/tmp/w.sock")),
        ("./w.sock", ("unix", "./w.sock")),
        ("  10.0.0.2:81  ", ("tcp", ("10.0.0.2", 81))),
    ],
)
def test_parse_address_accepts(text, expected):
    assert parse_address(text) == expected


@pytest.mark.parametrize("text", ["", "   ", "nohost", ":80", "host:notaport"])
def test_parse_address_rejects(text):
    with pytest.raises(TransportError):
        parse_address(text)


def test_format_address_round_trips():
    for text in ("127.0.0.1:9100", "unix:/tmp/w.sock"):
        assert format_address(*parse_address(text)) == text


def test_socket_transport_validates_addresses_up_front():
    with pytest.raises(TransportError):
        SocketTransport([])
    with pytest.raises(TransportError):
        SocketTransport(["127.0.0.1:9", "host:notaport"])


# --------------------------------------------------------------------------- #
# Conformance matrix: transports x backends == whole-tree
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("transport_name", ["local", "socket"])
@pytest.mark.parametrize(
    "make_backend", [MemoryBackend, SQLiteBackend, ColumnarBackend]
)
def test_transport_conformance_matches_whole_tree(
    dblp_plan, worker_pair, transport_name, make_backend
):
    document = dblp.dataset(scale=12).generate(12)
    reference = _whole_tree_reference(dblp_plan, document)
    if transport_name == "socket":
        transport = SocketTransport([w.address for w in worker_pair])
    else:
        transport = LocalTransport()
    try:
        report = shard_execute(
            dblp_plan,
            document,
            make_backend(),
            shards=4,
            workers=2,
            chunk_size=5,
            transport=transport,
        )
    finally:
        transport.close()
    assert report.transport == transport_name
    assert report.shards == 4
    assert _canonical(dblp_plan, report.backend) == reference


def test_socket_transport_spreads_shards_across_workers(dblp_plan):
    document = dblp.dataset(scale=8).generate(8)
    with ShardWorker() as first, ShardWorker() as second:
        with SocketTransport([first.address, second.address]) as transport:
            shard_execute(
                dblp_plan, document, shards=4, workers=2, chunk_size=4,
                transport=transport,
            )
        assert first.shards_served > 0
        assert second.shards_served > 0
        assert first.shards_served + second.shards_served == 4


def test_socket_transport_over_unix_socket(dblp_plan, tmp_path):
    document = dblp.dataset(scale=6).generate(6)
    reference = _whole_tree_reference(dblp_plan, document)
    sock_path = str(tmp_path / "worker.sock")
    with ShardWorker(sock_path) as worker:
        assert worker.address == f"unix:{sock_path}"
        with SocketTransport([worker.address]) as transport:
            report = shard_execute(
                dblp_plan, document, shards=3, workers=1, chunk_size=4,
                transport=transport,
            )
    assert report.transport == "socket"
    assert _canonical(dblp_plan, report.backend) == reference


def test_socket_transport_file_source_parity(dblp_plan, tmp_path, worker_pair):
    """Path-based sources ship as locators; the worker re-reads the file."""
    from repro.hdt import xml_file_to_hdt
    from repro.hdt.xml_plugin import hdt_to_xml

    document = dblp.dataset(scale=6).generate(6)
    path = str(tmp_path / "dblp.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(document))
    reference = _whole_tree_reference(dblp_plan, xml_file_to_hdt(path))
    with SocketTransport([w.address for w in worker_pair]) as transport:
        report = shard_execute(
            dblp_plan, path, shards=3, workers=2, chunk_size=4,
            transport=transport,
        )
    assert _canonical(dblp_plan, report.backend) == reference


_BACKEND_FACTORIES = (
    lambda: MemoryBackend(validate=False),
    lambda: SQLiteBackend(),
    lambda: ColumnarBackend(),
)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(single_record_trees(), st.data())
def test_remote_and_local_agree_on_random_record_local_programs(tree, data):
    """For record-local programs the transport must be invisible: remote
    execution equals local equals whole-tree, on every backend."""
    plan = _single_table_plan(data.draw(random_programs()))
    with ShardWorker() as worker:
        for make_backend in _BACKEND_FACTORIES:
            whole = make_backend()
            execute_plan(plan, tree, whole)
            reference = sorted(map(repr, whole.fetch_rows("t")))
            local = make_backend()
            shard_execute(plan, tree, local, shards=2, workers=1, chunk_size=1)
            assert sorted(map(repr, local.fetch_rows("t"))) == reference
            remote = make_backend()
            with SocketTransport([worker.address]) as transport:
                shard_execute(
                    plan, tree, remote, shards=2, workers=1, chunk_size=1,
                    transport=transport,
                )
            assert sorted(map(repr, remote.fetch_rows("t"))) == reference


# --------------------------------------------------------------------------- #
# Handshake and fingerprint rules
# --------------------------------------------------------------------------- #


def test_fingerprint_pinned_worker_rejects_other_plans(dblp_plan):
    document = dblp.dataset(scale=4).generate(4)
    with ShardWorker(expect_fingerprint="not-this-plan") as worker:
        with SocketTransport([worker.address]) as transport:
            with pytest.raises(ShardDegradedError) as excinfo:
                shard_execute(
                    dblp_plan, document, shards=2, workers=1, chunk_size=4,
                    transport=transport,
                )
            assert transport.live_endpoints() == []
    failures = excinfo.value.failures
    assert failures and all(f.error_type == "WorkerUnavailable" for f in failures)


def test_mixed_pool_survives_on_the_accepting_worker(dblp_plan):
    """One pinned-wrong worker in the pool is condemned at handshake; the
    surviving worker serves every shard and the output stays canonical."""
    document = dblp.dataset(scale=6).generate(6)
    reference = _whole_tree_reference(dblp_plan, document)
    fingerprint = dblp_plan.content_fingerprint()
    with ShardWorker(expect_fingerprint="some-other-plan") as bad:
        with ShardWorker(expect_fingerprint=fingerprint) as good:
            with SocketTransport([bad.address, good.address]) as transport:
                report = shard_execute(
                    dblp_plan, document, shards=3, workers=2, chunk_size=4,
                    transport=transport,
                )
                assert transport.live_endpoints() == [good.address]
            assert good.shards_served == 3
            assert bad.shards_served == 0
    assert _canonical(dblp_plan, report.backend) == reference


def test_worker_recomputes_shipped_plan_fingerprint(dblp_plan):
    """The driver cannot assert a fingerprint the shipped plan does not hash
    to: the worker recomputes and rejects, permanently condemning it."""
    with ShardWorker() as worker:
        sock = socket.create_connection(parse_address(worker.address)[1], timeout=5)
        try:
            send_frame(sock, ("hello", {"magic": WIRE_MAGIC, "fingerprint": "lie"}))
            kind, info = recv_frame(sock)
            assert kind == "ready" and info["have_plan"] is False
            send_frame(sock, ("plan", dblp_plan))
            kind, info = recv_frame(sock)
            assert kind == "reject"
            assert "fingerprint mismatch" in info["reason"]
        finally:
            sock.close()


def test_worker_rejects_wrong_protocol_magic():
    with ShardWorker() as worker:
        sock = socket.create_connection(parse_address(worker.address)[1], timeout=5)
        try:
            send_frame(sock, ("hello", {"magic": "some-other-wire/9", "fingerprint": "x"}))
            kind, info = recv_frame(sock)
            assert kind == "reject"
            assert "protocol mismatch" in info["reason"]
        finally:
            sock.close()


def test_no_reachable_worker_degrades_immediately(dblp_plan, tmp_path):
    """A connect failure condemns the endpoint; with none left the run
    degrades with WorkerUnavailable instead of burning retry attempts."""
    document = dblp.dataset(scale=4).generate(4)
    with SocketTransport(
        [str(tmp_path / "nobody.sock")], connect_timeout=0.5
    ) as transport:
        with pytest.raises(ShardDegradedError) as excinfo:
            shard_execute(
                dblp_plan, document, shards=2, workers=1, chunk_size=4,
                transport=transport,
            )
    failures = excinfo.value.failures
    assert failures and all(f.error_type == "WorkerUnavailable" for f in failures)
    assert all(f.attempts == 1 for f in failures)


def _scripted_worker(replies):
    """A fake worker on loopback TCP that answers the n-th frame of every
    connection with ``replies[n]`` and then hangs up.  Returns its address
    and a stop callable."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed
            with conn:
                try:
                    for reply in replies:
                        recv_frame(conn)
                        send_frame(conn, reply)
                except TransportError:
                    pass

    threading.Thread(target=serve, daemon=True).start()
    return format_address("tcp", listener.getsockname()[:2]), listener.close


@pytest.mark.parametrize(
    "replies",
    [
        [("ready", "not-a-dict")],
        ["ready"],
        [("ready", {"magic": WIRE_MAGIC}, "extra")],
        [
            ("ready", {"magic": WIRE_MAGIC, "have_plan": True}),
            ("spill", {"size": "12", "crc32": 0, "records": 1}),
        ],
    ],
    ids=["body-not-a-dict", "not-a-pair", "triple", "spill-size-not-int"],
)
def test_malformed_worker_reply_degrades_instead_of_hanging(dblp_plan, replies):
    """A reply that is not a ``(kind, dict)`` pair is a FrameError.  It once
    escaped as a plain ValueError/AttributeError that left the endpoint
    marked busy, so the next shard waited for it forever."""
    document = dblp.dataset(scale=4).generate(4)
    address, stop = _scripted_worker(replies)
    raised = []

    def run():
        try:
            with SocketTransport([address], timeout=5) as transport:
                shard_execute(
                    dblp_plan, document, shards=2, workers=1, chunk_size=4,
                    retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01),
                    transport=transport,
                )
        except BaseException as error:  # noqa: BLE001 - inspected below
            raised.append(error)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(30)
    stop()
    assert not runner.is_alive(), "shard_execute hung on a malformed reply"
    (error,) = raised
    assert isinstance(error, ShardDegradedError)
    assert "FrameError" in str(error)


# --------------------------------------------------------------------------- #
# Worker death and redispatch
# --------------------------------------------------------------------------- #


def _worker_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn_worker_process(*extra_args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
         *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_worker_env(),
    )
    line = proc.stdout.readline()
    if "worker listening on " not in line:
        proc.kill()
        raise AssertionError(f"no listen announcement, got {line!r}")
    return proc, line.split("worker listening on ", 1)[1].strip()


def test_repro_worker_cli_serves_shards(dblp_plan):
    document = dblp.dataset(scale=6).generate(6)
    reference = _whole_tree_reference(dblp_plan, document)
    proc, address = _spawn_worker_process()
    try:
        with SocketTransport([address]) as transport:
            report = shard_execute(
                dblp_plan, document, shards=2, workers=1, chunk_size=4,
                transport=transport,
            )
        assert report.transport == "socket"
        assert _canonical(dblp_plan, report.backend) == reference
    finally:
        proc.kill()
        proc.wait(timeout=10)


def test_sigkilled_worker_redispatches_to_survivor(dblp_plan):
    """SIGKILL one of two subprocess workers mid-run: in-flight shards are
    re-dispatched to the survivor and the output stays byte-canonical."""
    document = dblp.dataset(scale=10).generate(10)
    reference = _whole_tree_reference(dblp_plan, document)
    victim, victim_addr = _spawn_worker_process()
    survivor, survivor_addr = _spawn_worker_process()
    try:
        # ~400ms per shard attempt keeps both workers busy long enough for
        # the kill to land mid-shard (6 shards over 2 workers >= 1.2s).
        killer = threading.Timer(0.6, victim.kill)
        killer.start()
        with SocketTransport([victim_addr, survivor_addr]) as transport:
            report = shard_execute(
                dblp_plan,
                document,
                shards=6,
                workers=2,
                chunk_size=2,
                faults="delay:ms=400",
                transport=transport,
            )
            assert transport.live_endpoints() == [survivor_addr]
        killer.cancel()
        assert report.shards_retried >= 1
        assert report.shards_failed == 0
        assert _canonical(dblp_plan, report.backend) == reference
    finally:
        victim.kill()
        survivor.kill()
        victim.wait(timeout=10)
        survivor.wait(timeout=10)


# --------------------------------------------------------------------------- #
# CLI: --remote-workers and the worker subcommand
# --------------------------------------------------------------------------- #


def _demo_spec(tmp_path, **extra):
    payload = {"dataset": "dblp", "scale": 4, "cache_dir": str(tmp_path / "cache")}
    payload.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_remote_workers_end_to_end(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    with ShardWorker() as worker:
        assert (
            cli_main(
                ["migrate", "--spec", spec, "--shards", "2",
                 "--remote-workers", worker.address]
            )
            == 0
        )
        assert worker.shards_served == 2
    out = capsys.readouterr().out
    assert "via socket transport" in out
    assert "in 2 shard(s)" in out


def test_cli_remote_workers_requires_sharded_mode(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--streaming",
             "--remote-workers", "127.0.0.1:9"]
        )
        == 1
    )
    assert "--remote-workers only applies to sharded execution" in capsys.readouterr().err


def test_cli_remote_workers_conflicts_with_workers(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "2", "--workers", "2",
             "--remote-workers", "127.0.0.1:9"]
        )
        == 1
    )
    assert "conflicts with --workers" in capsys.readouterr().err


def test_cli_remote_workers_malformed_address(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--shards", "2",
             "--remote-workers", "host:notaport"]
        )
        == 1
    )
    assert "non-numeric port" in capsys.readouterr().err


def test_cli_spec_remote_workers_key(tmp_path, capsys):
    with ShardWorker() as worker:
        spec = _demo_spec(tmp_path, shards=2, remote_workers=worker.address)
        assert cli_main(["migrate", "--spec", spec]) == 0
        assert worker.shards_served == 2
    assert "via socket transport" in capsys.readouterr().out


def test_cli_worker_help_and_report_transport_key(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli_main(["worker", "--help"])
    assert "--listen" in capsys.readouterr().out
    # Whole-tree runs report the local transport in their JSON report.
    spec = _demo_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--no-stream",
             "--report-json", str(report_path)]
        )
        == 0
    )
    assert json.loads(report_path.read_text())["transport"] == "local"
