"""``migrate_file`` — a DBLP XML file on disk into a SQLite file, three drivers.

Why it exists: everything ``migrate_scale`` bypasses — XML parsing, the
record index, spill write/replay, the supervisor, the transports, SQLite
inserts and the FK index DDL.  The three cells are the three drivers over
the same file:

1. ``stream_execute(iter_xml_chunks(path, 1000))`` — the single-thread baseline;
2. ``shard_execute(path, shards=2, workers=2, chunk_size=1000)`` — LocalTransport;
3. the same through ``SocketTransport`` to two ``python -m repro worker``
   subprocesses listening on Unix sockets.

Every run is verified (row counts against the simulator's tables, PK/FK
integrity of the produced database) and the three targets must be equal in
canonical form.  Load never exceeds two busy processes (= the cores of the
box the bounds were measured on).
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.datasets import dblp
from repro.hdt.xml_plugin import build_xml_record_index, hdt_to_xml
from repro.runtime import (
    ExecutionReport,
    LocalTransport,
    MigrationPlan,
    ShardTransport,
    SocketTransport,
    SQLiteBackend,
    clear_source_caches,
    iter_xml_chunks,
    partition_records,
    shard_execute,
    shard_source,
    stream_execute,
)
from repro.runtime.sharded import SpillWriter, execute_shard, iter_spill

from ..protocol import (
    SRC_DIR,
    Operations,
    OracleError,
    RunContext,
    WorkloadResult,
    median,
    ratio,
    scratch_dir,
    short_path,
    timed,
    untimed,
)
from ..staged import (
    check_target,
    layer_metrics,
    learn_plan,
    staged_stream,
    target_digest,
    unattributed_share,
)
from ..tracing import Tracer

SCALE, CHUNK_SIZE = 5000, 1000            # 25 000 records, 6.3 MB of XML
QUICK_SCALE, QUICK_CHUNK_SIZE = 40, 25
SHARDS = WORKERS = 2
DRIVERS = ("streamed", "sharded", "remote")
WORKER_START_TIMEOUT = 30.0


# --------------------------------------------------------------------------- #
# Remote workers: started on Unix sockets inside the round's directory,
# awaited by connecting, interrupted and reaped whatever happens.
# --------------------------------------------------------------------------- #


@contextmanager
def remote_workers(directory: str, count: int) -> Iterator[List[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    processes: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for index in range(count):
            path = short_path(os.path.join(directory, f"worker{index}.sock"))
            processes.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker", "--listen", f"unix:{path}"],
                    env=env, stdout=subprocess.DEVNULL,
                )
            )
            addresses.append(f"unix:{path}")
        for process, address in zip(processes, addresses):
            _await_listening(process, address[len("unix:"):])
        yield addresses
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)  # the worker's clean-stop path
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


def _await_listening(process: subprocess.Popen, path: str) -> None:
    deadline = time.monotonic() + WORKER_START_TIMEOUT
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return
        except OSError:
            if process.poll() is not None:
                raise OracleError(f"worker exited with code {process.returncode} before listening")
            if time.monotonic() > deadline:
                raise OracleError(f"worker did not listen on {path} in time")
            time.sleep(0.02)
        finally:
            probe.close()


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #


def write_document(bundle, scale: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(hdt_to_xml(bundle.generate(scale)))


def drivers(plan: MigrationPlan, path: str, chunk_size: int, addresses: List[str]):
    """The three fused drivers, each ``backend -> ExecutionReport``."""

    def streamed(backend) -> ExecutionReport:
        return stream_execute(plan, iter_xml_chunks(path, chunk_size), backend)

    def sharded(backend) -> ExecutionReport:
        return shard_execute(
            plan, path, backend, shards=SHARDS, workers=WORKERS, chunk_size=chunk_size
        )

    def remote(backend) -> ExecutionReport:
        with SocketTransport(addresses) as transport:
            return shard_execute(
                plan, path, backend, shards=SHARDS, chunk_size=chunk_size, transport=transport
            )

    return {"streamed": streamed, "sharded": sharded, "remote": remote}


def run(ctx: RunContext) -> WorkloadResult:
    scale, chunk_size = (QUICK_SCALE, QUICK_CHUNK_SIZE) if ctx.quick else (SCALE, CHUNK_SIZE)
    bundle = dblp.dataset(scale=scale, seed=ctx.seed)
    truth = bundle.ground_truth(scale)
    rows = sum(truth.values())
    operations = Operations()
    times: Dict[str, List[float]] = {name: [] for name in DRIVERS}
    setup_units: List[float] = []
    verify_seconds: List[float] = []
    file_bytes = 0

    rounds = ctx.rounds()
    for round_index in rounds:
        setup: List[float] = []
        with scratch_dir(ctx.tmp, f"round{round_index}-") as directory:
            plan = untimed(setup, lambda: learn_plan(dblp))
            path = os.path.join(directory, "dblp.xml")
            untimed(setup, lambda: write_document(bundle, scale, path))
            file_bytes = os.path.getsize(path)
            started = time.perf_counter()
            with remote_workers(directory, WORKERS) as addresses:
                setup.append(time.perf_counter() - started)
                digests = {}
                spent = 0.0
                for name, driver in drivers(plan, path, chunk_size, addresses).items():
                    clear_source_caches()
                    backend = SQLiteBackend(os.path.join(directory, f"{name}.db"))
                    try:
                        seconds, report = timed(lambda: driver(backend))
                        times[name].append(seconds)
                        spent += seconds
                        if report.shards_retried or report.shards_failed:
                            raise OracleError(f"{name}: a shard was retried or failed")
                        started = time.perf_counter()
                        check_target(
                            operations, f"dblp-file/{name}", plan, report.per_table_rows,
                            truth, backend,
                        )
                        verify_seconds.append(time.perf_counter() - started)
                        digests[name] = target_digest(plan, backend)
                    finally:
                        backend.close()
                operations.record(
                    len(set(digests.values())) == 1,
                    f"dblp-file: drivers disagree in canonical form {digests}",
                )
                if ctx.traced:
                    layers, staged_wall = _traced(
                        ctx.tracer, plan, path, chunk_size, addresses, directory,
                        truth, operations,
                    )
        setup_units.append(sum(setup))
        rounds.spent(spent)

    medians = [median(times[name]) for name in DRIVERS]
    wall = sum(medians)
    result = WorkloadResult(
        cells=(medians[0], medians[1], medians[2]),
        wall_s=wall,
        ops=rows * len(DRIVERS),
        setup_units=setup_units,
        operations=operations,
        info={
            "records": 5 * scale,
            "file_bytes": file_bytes,
            "rows": rows,
            "repetitions": {name: len(times[name]) for name in DRIVERS},
            "rounds": rounds.done,
        },
    )
    if ctx.traced:
        layers["workload.trace_overhead"] = ratio(staged_wall, wall)
        layers["runtime.verify.verify_s"] = median(verify_seconds)
        result.layers = layers
    return result


# --------------------------------------------------------------------------- #
# Traced pass: the same three drivers with their stages exposed
# --------------------------------------------------------------------------- #


class TimingTransport(ShardTransport):
    """Times ``run_map`` of the transport it wraps — the map stage as the
    driver sees it (dispatch, execution, spill hand-back, supervision)."""

    def __init__(self, inner: ShardTransport) -> None:
        self.inner = inner
        self.name = inner.name
        self.map_seconds = 0.0

    def run_map(self, job):
        started = time.perf_counter()
        try:
            return self.inner.run_map(job)
        finally:
            self.map_seconds += time.perf_counter() - started

    def close(self) -> None:
        self.inner.close()


def _traced(
    tracer: Tracer,
    plan: MigrationPlan,
    path: str,
    chunk_size: int,
    addresses: List[str],
    directory: str,
    truth: Dict[str, int],
    operations: Operations,
) -> Tuple[Dict[str, float], float]:
    """The per-layer metrics and the staged wall of the three drivers."""
    layers: Dict[str, float] = {}
    file_mb = os.path.getsize(path) / 1e6

    def sqlite(name: str) -> SQLiteBackend:
        return SQLiteBackend(os.path.join(directory, f"staged-{name}.db"))

    # -- streamed, stage by stage ------------------------------------------
    clear_source_caches()
    backend = sqlite("streamed")
    try:
        gc.collect()
        with tracer.gc_spans():
            counts = staged_stream(
                tracer, plan, iter_xml_chunks(path, chunk_size), backend,
                parse_layer="hdt.xml_plugin.parse", driver="streamed",
            )
        check_target(operations, "dblp-file/streamed/staged", plan, counts, truth, backend)
    finally:
        backend.close()
    staged_wall = tracer.total("run")
    layers.update(layer_metrics(tracer))
    layers["workload.unattributed_share"] = unattributed_share(tracer)
    parse = tracer.self_times().get("hdt.xml_plugin.parse", 0.0)
    layers["hdt.xml_plugin.parse_s"] = parse
    layers["hdt.xml_plugin.parse_mb_per_s"] = ratio(file_mb, parse)
    layers["runtime.backends.sqlite.bytes_per_row"] = ratio(
        os.path.getsize(backend.path), sum(counts.values())
    )

    # -- the sharded stages, one public call each ---------------------------
    clear_source_caches()
    layers["hdt.xml_plugin.record_index_s"], _ = timed(lambda: build_xml_record_index(path))
    clear_source_caches()
    source = shard_source(path)
    layers["runtime.sharded.count_records_s"], records = timed(source.count_records)
    specs = partition_records(records, SHARDS)
    fingerprint = plan.content_fingerprint()
    spill_dir = os.path.join(directory, "spills")
    os.makedirs(spill_dir)
    spills = [os.path.join(spill_dir, f"map-{spec.index}.spill") for spec in specs]

    def map_in_process() -> None:
        for spec, spill in zip(specs, spills):
            execute_shard(plan, source, spec, chunk_size=chunk_size, spill_path=spill,
                          plan_fingerprint=fingerprint)

    # The map work itself, serial and in-process: no transport, no supervisor.
    layers["runtime.sharded.map_s"], _ = timed(map_in_process)
    layers["runtime.sharded.spill_bytes"] = sum(os.path.getsize(spill) for spill in spills)

    def replay() -> List[list]:
        return [
            list(iter_spill(spill, plan_fingerprint=fingerprint, shard_index=spec.index))
            for spec, spill in zip(specs, spills)
        ]

    layers["runtime.sharded.spill_replay_s"], batches = timed(replay)

    def rewrite() -> None:
        for spec, shard_batches in zip(specs, batches):
            writer = SpillWriter(
                os.path.join(spill_dir, f"rewrite-{spec.index}.spill"), spec.index, fingerprint
            )
            for table, rows in shard_batches:
                writer.write_rows(table, rows)
            writer.finish(chunks=0, records=spec.records)

    layers["runtime.sharded.spill_write_s"], _ = timed(rewrite)
    del batches

    # -- both transports under a timing wrapper ----------------------------
    attempts = retries = 0
    for name, inner in (("local", LocalTransport()), ("socket", SocketTransport(addresses))):
        clear_source_caches()
        backend = sqlite(name)
        transport = TimingTransport(inner)
        try:
            with tracer.span("run", driver=name) as span:
                report = shard_execute(
                    plan, path, backend, shards=SHARDS, workers=WORKERS,
                    chunk_size=chunk_size, transport=transport,
                )
            check_target(
                operations, f"dblp-file/{name}/staged", plan, report.per_table_rows,
                truth, backend,
            )
        finally:
            transport.close()
            backend.close()
        staged_wall += span.duration
        layers[f"runtime.transport.{name}.map_s"] = transport.map_seconds
        if name == "local":
            attempts = report.shards_executed + report.shards_retried
            retries = report.shards_retried
            layers["runtime.sharded.reduce_s"] = (
                span.duration - transport.map_seconds - layers["runtime.sharded.count_records_s"]
            )
        else:
            layers["runtime.worker.shards_served"] = report.shards_executed
    layers["runtime.supervisor.attempts"] = attempts
    layers["runtime.supervisor.retries"] = retries
    return layers, staged_wall
