"""Command-line interface: ``python -m repro`` / the ``repro-migrate`` script.

Six subcommands cover the learn/run split that makes synthesized programs
durable artifacts, plus the operational surface around it:

* ``learn``   — synthesize a :class:`MigrationPlan` from a spec through the
  spec store (only the tables an edit affected are re-synthesized) and
  optionally save it to a file;
* ``run``     — execute an existing plan on a dataset, no synthesis;
* ``migrate`` — learn (or load from cache) and run in one invocation;
* ``verify``  — re-check a finished target: row counts, primary-key and
  foreign-key integrity (``docs/service.md``);
* ``serve``   — the migration service daemon: an HTTP/JSON job API with
  resumable, dry-runnable, verifiable jobs (``docs/service.md``);
* ``worker``  — a remote shard executor: sharded runs fan out to worker
  processes over TCP/Unix sockets with ``--remote-workers``
  (``docs/distributed.md``).

This module is argparse, the checks only argparse can make (which *flags*
were typed), and printing.  Everything a run decides — the plan, the run
mode, the target and its overwrite policy, the cleanup after a failure —
is :mod:`repro.runtime.run`, shared with the service.  The spec-file format
(:class:`~repro.runtime.spec.Spec`) and every flag are documented in
``docs/cli.md``; flags override the spec keys of the same name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from ..dsl.pretty import pretty_program
from ..dsl.serialize import SerializationError
from ..migration.engine import MigrationError
from ..relational.database import IntegrityError
from ..relational.schema import SchemaError
from .backends import (
    BACKEND_NAMES,
    ColumnarBackendError,
    DuckDBBackendError,
    SQLiteBackendError,
)
from .backends.columnar import FILE_FORMATS
from .context_store import DEFAULT_CACHE_DIR
from .executor import ExecutionReport
from .faults import FaultError
from .incremental import IncrementalReport
from .run import (
    RUN_OPTIONS,
    acquire_plan,
    parse_shards,
    resolve_run,
    run_plan,
    verify_target,
)
from .service.checkpoint import ShardCheckpoint
from .sharded import ShardDegradedError, ShardError
from .spec import Spec, UsageError
from .transport import TransportError
from .verify import VerificationError

# --------------------------------------------------------------------------- #
# Flags → the run API (repro.runtime.run)
# --------------------------------------------------------------------------- #


def _plan(args, spec: Spec, *, allow_learn: bool):
    """``(plan, provenance)`` for this invocation's plan/cache/jobs flags."""
    cache_dir = args.cache_dir or spec.get("cache_dir", DEFAULT_CACHE_DIR)
    verbose = getattr(args, "verbose", False)

    def say(report: IncrementalReport) -> None:
        # learn --verbose: per-table synthesizer diagnostics (universe size
        # per candidate ψ, phase timings, candidate-cache hit rates), so a
        # slow table is attributable to a phase.
        if verbose:
            for name, stats in sorted(report.synthesis_stats.items()):
                print(f"synthesis diagnostics for {name}:")
                for line in stats.describe().splitlines():
                    print(f"  {line}")
        print(report.describe())

    return acquire_plan(
        spec,
        # --plan is relative to the working directory, not to the spec file.
        {"plan": args.plan and os.path.abspath(args.plan), "jobs": args.jobs},
        store_dir=None if args.no_cache else cache_dir,
        allow_learn=allow_learn,
        say=say,
    )


def _shards_value(value: str):
    """``--shards``: a positive integer or ``"auto"``."""
    try:
        return parse_shards(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected an integer or "auto" (got {value!r})'
        ) from None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _run_request(args, spec: Spec):
    """The validated :class:`RunRequest` plus ``run_plan``'s keyword arguments.

    The run resolves through the shared rules; what is left here are the
    checks only argparse can make: a *flag* that cannot apply to the resolved
    mode is a usage error, where the same value as a spec key (or job param)
    is a shared default the other modes ignore.
    """
    overrides = {key: getattr(args, key, None) for key in RUN_OPTIONS}
    overrides["whole_tree"] = args.no_stream
    request = resolve_run(spec, overrides)
    if request.mode == "whole-tree" and (args.chunk_size is not None or args.workers is not None):
        raise UsageError("--chunk-size and --workers only apply with --streaming or --shards")
    if request.mode != "sharded":
        for key in ("shard_timeout", "shard_retries", "inject_faults", "remote_workers", "workers"):
            if getattr(args, key) is not None:
                raise UsageError(
                    f"{_flag(key)} only applies to sharded execution (add --shards N)"
                )
    if args.remote_workers is not None and args.workers is not None:
        raise UsageError(
            "--remote-workers replaces the local worker pool; it conflicts with --workers"
        )
    conflicting = [_flag(key) for key in ("backend", "output", "sql_dump") if getattr(args, key)]
    if args.dry_run and conflicting:
        raise UsageError(
            f"--dry-run writes nothing — it conflicts with {', '.join(conflicting)}"
        )
    checkpoint_dir = args.checkpoint_dir or spec.get("checkpoint_dir")
    if args.resume and not checkpoint_dir:
        raise UsageError(
            "--resume needs --checkpoint-dir (the directory the interrupted "
            "run checkpointed into)"
        )
    if checkpoint_dir and request.mode != "sharded":
        raise UsageError(
            "--checkpoint-dir/--resume only apply to sharded execution (add --shards N)"
        )
    sql_dump = None if request.dry_run else (args.sql_dump or spec.get("sql_dump"))
    if sql_dump and request.backend not in ("memory", "sqlite"):
        raise UsageError(
            "--sql-dump only applies to the memory and sqlite backends "
            f"(got --backend {request.backend})"
        )
    return request, {
        "checkpoint": ShardCheckpoint(spec.resolve(str(checkpoint_dir))) if checkpoint_dir else None,
        "resume": args.resume,
        "sql_dump": sql_dump and spec.resolve(sql_dump),
    }


def _print_report(report: ExecutionReport, output: Optional[str]) -> None:
    for table, count in report.per_table_rows.items():
        print(f"  {table:28} {count:>10}")
    chunk_note = f" over {report.chunks} chunk(s)" if report.chunks > 1 else ""
    shard_note = f" in {report.shards} shard(s)" if report.shards > 1 else ""
    resume_note = (
        f" ({report.shards_resumed} resumed from checkpoint, "
        f"{report.shards_executed} executed)"
        if report.shards_resumed
        else ""
    )
    retry_note = (
        f" ({report.shards_retried} shard attempt(s) retried)"
        if report.shards_retried
        else ""
    )
    transport_note = (
        f" via {report.transport} transport" if report.transport != "local" else ""
    )
    verb = "would load" if report.dry_run else "loaded"
    print(
        f"{verb} {report.total_rows} rows in {report.execution_time:.2f}s"
        f"{chunk_note}{shard_note}{transport_note}{resume_note}{retry_note}"
    )
    if report.dry_run:
        print("dry run: no rows were written")
    elif output:
        print(f"database written to {output}")


def _write_json(path: str, spec: Spec, payload: dict) -> None:
    """``--report-json``: for runs, :meth:`ExecutionReport.to_json` — the
    schema the service returns from ``GET /jobs/<id>/report`` — plus the
    resolved output path."""
    resolved = spec.resolve(path)
    with open(resolved, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {resolved}")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _cmd_learn(args) -> int:
    spec = Spec.load(args.spec)
    start = time.perf_counter()
    plan, provenance = _plan(args, spec, allow_learn=True)
    elapsed = time.perf_counter() - start
    print(f"plan: {provenance} in {elapsed:.2f}s")
    for table_schema in plan.execution_order():
        table_plan = plan.table_plan(table_schema.name)
        print(f"  {table_schema.name}: {pretty_program(table_plan.program)}")
    if args.plan_out:
        plan.save(args.plan_out)
        print(f"plan saved to {args.plan_out}")
    return 0


def _handle_degraded(args, spec: Spec, error: ShardDegradedError) -> int:
    """Report a degraded sharded run (docs/robustness.md#degradation-contract).

    Exit code 1, but with the full story: which shards failed permanently
    and why, the partial report in ``--report-json`` (its ``shard_failures``
    list populated), and — when a checkpoint holds the completed shards —
    the exact resume hint.
    """
    print(f"error: {error}", file=sys.stderr)
    for failure in error.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    if args.report_json:
        _write_json(args.report_json, spec, dict(error.report.to_json(), output=None))
    if error.resumable:
        print(
            "completed shards are checkpointed; re-run with --resume to "
            "re-execute only the failed shard(s)",
            file=sys.stderr,
        )
    return 1


def _cmd_run(args) -> int:
    """``repro run`` (plan file required) and ``repro migrate`` (may learn)."""
    spec = Spec.load(args.spec)
    learns = args.command == "migrate"
    if not learns and not args.plan:
        raise UsageError("run requires --plan (use `migrate` to learn and run at once)")
    request, run_options = _run_request(args, spec)  # refused before paying for synthesis
    start = time.perf_counter()
    plan, provenance = _plan(args, spec, allow_learn=learns)
    elapsed = f" in {time.perf_counter() - start:.2f}s" if learns else ""
    print(f"plan: {provenance}{elapsed}")
    try:
        report = run_plan(plan, spec, request, **run_options)
    except ShardDegradedError as error:
        return _handle_degraded(args, spec, error)
    _print_report(report, request.output)
    if args.report_json:
        _write_json(args.report_json, spec, dict(report.to_json(), output=request.output))
    return 0


def _cmd_verify(args) -> int:
    """``repro verify``: re-derive invariants against a finished target.

    Expected row counts come from ``--expect-report`` (a ``--report-json``
    file or the service's job report) when given, and are otherwise
    re-derived by executing the plan into the counting backend — the same
    pass ``--dry-run`` uses.  Exit code 0 = every table passed.
    """
    spec = Spec.load(args.spec)
    plan, provenance = _plan(args, spec, allow_learn=True)
    print(f"plan: {provenance}")
    expected = None
    if args.expect_report:
        path = spec.resolve(args.expect_report)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise UsageError(f"cannot read expected report: {error}")
        except json.JSONDecodeError as error:
            raise UsageError(f"expected report is not valid JSON: {error}")
        counts = payload.get("per_table_rows") if isinstance(payload, dict) else None
        if not isinstance(counts, dict):
            raise UsageError(
                f'{path} is not an execution report (no "per_table_rows") — '
                f"pass a --report-json file or a service job report"
            )
        expected = {str(table): int(count) for table, count in counts.items()}
    report, payload = verify_target(
        plan, spec, {"backend": args.backend, "output": args.output}, expected
    )
    print(report.describe())
    if args.report_json:
        _write_json(args.report_json, spec, payload)
    return 0 if report.passed else 1


def _cmd_worker(args) -> int:
    """``repro worker``: serve shard requests for remote drivers.

    Binds a TCP or Unix socket, prints ``worker listening on <address>``
    (the line drivers and process supervisors wait for), and executes
    shards until interrupted.  The wire protocol carries pickled plans and
    rows — listen only on loopback, a Unix socket, or a trusted network
    (docs/distributed.md#security-model).
    """
    from .worker import run_worker

    return run_worker(
        args.listen,
        expect_fingerprint=args.expect_fingerprint,
    )


def _cmd_serve(args) -> int:
    """``repro serve``: run the migration-service daemon until shutdown."""
    from .service.server import serve

    if args.max_workers < 1:
        raise UsageError(f"--max-workers must be >= 1 (got {args.max_workers})")
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must be 0-65535 (got {args.port})")
    try:
        serve(
            args.state_dir,
            args.port,
            args.host,
            max_workers=args.max_workers,
            quiet=args.quiet,
        )
    except OSError as error:
        raise UsageError(f"cannot bind {args.host}:{args.port}: {error}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learn-once/run-many migration of hierarchical data to "
        "relational tables (Mitra, VLDB 2018). A JSON spec file names the "
        "target schema, an example document and per-table example rows; "
        "`learn` synthesizes a durable migration plan from them, `run` "
        "executes a plan against full datasets, `migrate` does both.",
        epilog="Spec-file format, the spec store and recipes: docs/cli.md",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spec", required=True, help="path to the JSON spec file")
        sub.add_argument("--plan", help="path to an existing plan JSON (skips synthesis)")
        sub.add_argument("--no-cache", action="store_true", help="learn cold, without the spec store")
        sub.add_argument("--cache-dir", help="spec store directory (default: .repro-cache)")
        sub.add_argument(
            "--jobs",
            type=int,
            help="parallel per-table synthesis processes (0 = CPU count, default 1)",
        )

    def add_execution(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend", choices=list(BACKEND_NAMES), help="storage backend"
        )
        sub.add_argument(
            "--output",
            help="output path: database file (sqlite) or directory (columnar)",
        )
        sub.add_argument("--force", action="store_true", help="overwrite an existing output")
        sub.add_argument(
            "--sql-dump", help="also write a SQL dump to this path (memory/sqlite)"
        )
        sub.add_argument(
            "--columnar-format",
            choices=list(FILE_FORMATS),
            help="columnar file format (default: arrow with pyarrow, else json)",
        )
        sub.add_argument(
            "--streaming", action="store_true", help="chunked bounded-memory execution"
        )
        sub.add_argument(
            "--no-stream",
            action="store_true",
            help="force whole-tree execution (overrides spec streaming/shards keys)",
        )
        sub.add_argument(
            "--shards",
            type=_shards_value,
            help="sharded execution: split the document into N contiguous "
            "record shards, execute them in worker processes and merge with "
            "cross-shard key reconciliation (docs/backends.md); 'auto' sizes "
            "the partition from records x cores x chunk size "
            "(docs/distributed.md)",
        )
        sub.add_argument(
            "--chunk-size", type=int, help="records per chunk (streaming/sharded)"
        )
        sub.add_argument(
            "--workers",
            type=int,
            help="sharded only: worker processes in the shard pool (default "
            "one per shard up to the CPU count)",
        )
        sub.add_argument(
            "--dry-run",
            action="store_true",
            help="execute the plan into a counting backend: print per-table "
            "row counts, write nothing",
        )
        sub.add_argument(
            "--checkpoint-dir",
            help="sharded only: persist per-shard spills and a resume "
            "manifest in this directory (docs/service.md)",
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted sharded run from --checkpoint-dir: "
            "shards whose spill file validates are not re-executed",
        )
        sub.add_argument(
            "--shard-retries",
            type=int,
            help="sharded only: retries per shard after its first attempt "
            "before the run degrades (default 2; docs/robustness.md)",
        )
        sub.add_argument(
            "--shard-timeout",
            type=float,
            help="sharded only: seconds before a running shard attempt is "
            "cancelled and re-dispatched (forces per-shard processes)",
        )
        sub.add_argument(
            "--inject-faults",
            metavar="SPEC",
            help="sharded only: deterministic fault injection for chaos "
            "testing, e.g. kill:shard=2:attempt=1,delay:shard=0:ms=500 "
            "(also via REPRO_FAULTS; docs/robustness.md)",
        )
        sub.add_argument(
            "--remote-workers",
            metavar="ADDRS",
            help="sharded only: run the map stage on remote `repro worker` "
            "processes instead of local ones — a comma-separated list of "
            "HOST:PORT or unix socket addresses (docs/distributed.md)",
        )
        sub.add_argument(
            "--report-json",
            help="write the execution report as JSON to this path (same "
            "schema as the service's job reports)",
        )

    learn = subparsers.add_parser(
        "learn",
        help="synthesize and save a migration plan (only the tables a spec "
        "edit affected are re-synthesized)",
    )
    add_common(learn)
    learn.add_argument("--plan-out", help="write the learned plan to this file")
    learn.add_argument(
        "--verbose",
        action="store_true",
        help="print per-table synthesis diagnostics: universe size per "
        "candidate, phase timings and candidate-cache hit rates",
    )
    learn.set_defaults(handler=_cmd_learn)

    run = subparsers.add_parser("run", help="execute an existing plan (no synthesis)")
    add_common(run)
    add_execution(run)
    run.set_defaults(handler=_cmd_run)

    migrate = subparsers.add_parser("migrate", help="learn (or load cached) and run")
    add_common(migrate)
    add_execution(migrate)
    migrate.set_defaults(handler=_cmd_run)

    verify = subparsers.add_parser(
        "verify",
        help="re-check a finished target: row counts and PK/FK integrity "
        "(exit 0 = pass)",
    )
    add_common(verify)
    verify.add_argument(
        "--backend",
        choices=[name for name in BACKEND_NAMES if name != "memory"],
        help="backend that produced the target (memory leaves no artifact)",
    )
    verify.add_argument(
        "--output", help="the target to verify: database file or directory"
    )
    verify.add_argument(
        "--expect-report",
        help="expected row counts from a --report-json file (default: "
        "re-derive them with a dry-run counting pass)",
    )
    verify.add_argument(
        "--report-json", help="write the verification report as JSON to this path"
    )
    verify.set_defaults(handler=_cmd_verify)

    serve = subparsers.add_parser(
        "serve",
        help="run the migration service: an HTTP/JSON job daemon with "
        "resumable, dry-runnable, verifiable jobs",
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        help="durable daemon state: job records, spec store, checkpoints, outputs",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: pick a free port and print it)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: loopback)"
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=2,
        help="concurrent jobs (each job may fan out into shard processes)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="run a remote shard worker: executes shards shipped over a "
        "socket transport and streams validated spill frames back "
        "(docs/distributed.md)",
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="address to serve on: HOST:PORT (port 0 picks a free port, "
        "printed on startup) or a unix socket path (default: 127.0.0.1:0)",
    )
    worker.add_argument(
        "--expect-fingerprint",
        metavar="FP",
        help="pin the worker to one plan content fingerprint: any other "
        "plan is rejected at handshake",
    )
    worker.set_defaults(handler=_cmd_worker)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        UsageError,
        MigrationError,
        IntegrityError,
        SQLiteBackendError,
        ColumnarBackendError,
        DuckDBBackendError,
        ShardError,
        FaultError,
        TransportError,
        SerializationError,
        SchemaError,
        VerificationError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
