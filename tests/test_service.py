"""Tests for the migration service (`repro.runtime.service`) and `verify`.

Covers the PR-6 subsystem: durable job records and daemon recovery, the
shard checkpoint's validation semantics, the job runner (warm plan reuse,
dry runs, cooperative cancel, resume), the HTTP/JSON API end to end, the
post-run verification layer, and the new CLI surface (``--dry-run``,
``--report-json``, ``repro verify``).
"""

import json
import os
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import dblp
from repro.relational import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from repro.runtime.cli import main as cli_main
from repro.runtime.durable import write_durably
from repro.runtime.service import (
    CHECKPOINT_MANIFEST_NAME,
    JobRunner,
    JobStore,
    MigrationService,
    ShardCheckpoint,
)
from repro.runtime.service.jobs import JobError
from repro.runtime.verify import VerificationError, read_target_rows, verify_rows

TERMINAL = ("succeeded", "failed", "cancelled")


def _demo_spec(tmp_path, **extra):
    payload = {"dataset": "dblp", "scale": 4, "cache_dir": str(tmp_path / "cache")}
    payload.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------------- #
# Job store: durable records, recovery
# --------------------------------------------------------------------------- #


def test_job_store_roundtrip_and_recovery(tmp_path):
    store = JobStore(str(tmp_path))
    job = store.create("migrate", {"shards": 3})
    job.state = "running"
    store.save(job)
    (tmp_path / "junk.json").write_text("{not json at all")
    reloaded = JobStore(str(tmp_path))
    assert reloaded.get(job.id).params == {"shards": 3}
    interrupted = reloaded.recover()
    assert [j.id for j in interrupted] == [job.id]
    assert reloaded.get(job.id).state == "interrupted"
    # Recovery is persisted: a third load sees the transition.
    assert JobStore(str(tmp_path)).get(job.id).state == "interrupted"


def test_job_store_ids_survive_restarts(tmp_path):
    store = JobStore(str(tmp_path))
    assert store.create("learn", {}).id == "job-000001"
    assert store.create("run", {}).id == "job-000002"
    assert JobStore(str(tmp_path)).create("verify", {}).id == "job-000003"
    with pytest.raises(JobError, match="unknown job kind"):
        store.create("explode", {})
    with pytest.raises(JobError, match="unknown job"):
        store.get("job-999999")


# --------------------------------------------------------------------------- #
# Checkpoint manifest semantics (resume paths are covered in test_sharded)
# --------------------------------------------------------------------------- #


def test_write_durably_keeps_the_old_file_when_the_serializer_raises(tmp_path):
    path = tmp_path / "record.json"
    path.write_text("old\n")

    def failing(handle):
        handle.write("half a rec")
        raise RuntimeError("serializer failed")

    with pytest.raises(RuntimeError, match="serializer failed"):
        write_durably(str(path), failing)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["record.json"]  # no temporary file left


def test_write_durably_syncs_before_it_replaces(tmp_path, monkeypatch):
    import repro.runtime.durable as durable

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(source, target):
        calls.append("replace")
        real_replace(source, target)

    monkeypatch.setattr(durable.os, "fsync", fsync)
    monkeypatch.setattr(durable.os, "replace", replace)
    path = tmp_path / "record.json"
    write_durably(str(path), lambda handle: handle.write("new\n"))
    assert calls == ["fsync", "replace"]
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["record.json"]


def test_checkpoint_fresh_begin_clears_leftover_spills(tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / "shard-00000.spill").write_bytes(b"stale")
    checkpoint = ShardCheckpoint(str(directory))
    completed = checkpoint.begin(
        plan_fingerprint="fp", shards=2, chunk_size=10, records=7, resume=False
    )
    assert completed == {}
    assert not (directory / "shard-00000.spill").exists()
    assert (directory / CHECKPOINT_MANIFEST_NAME).exists()
    checkpoint.finish()
    assert list(directory.iterdir()) == []


def test_checkpoint_corrupt_manifest_is_a_fresh_start(tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / CHECKPOINT_MANIFEST_NAME).write_text("][ not json")
    checkpoint = ShardCheckpoint(str(directory))
    assert checkpoint.load() is None
    completed = checkpoint.begin(
        plan_fingerprint="fp", shards=2, chunk_size=10, records=7, resume=True
    )
    assert completed == {}


# --------------------------------------------------------------------------- #
# Verification invariants
# --------------------------------------------------------------------------- #


def _toy_schema():
    return DatabaseSchema(
        name="toy",
        tables=[
            TableSchema(
                name="author",
                columns=[ColumnDef("id"), ColumnDef("name")],
                primary_key="id",
            ),
            TableSchema(
                name="book",
                columns=[ColumnDef("id"), ColumnDef("author")],
                primary_key="id",
                foreign_keys=[ForeignKey("author", "author", "id")],
            ),
        ],
    )


def test_verify_rows_passes_on_consistent_target():
    schema = _toy_schema()
    rows = {
        "author": [("a1", "Ada"), ("a2", "Grace")],
        "book": [("b1", "a1"), ("b2", "a2"), ("b3", None)],
    }
    report = verify_rows(schema, rows, {"author": 2, "book": 3})
    assert report.passed
    assert "verification: PASS" in report.describe()
    payload = report.to_json()
    assert payload["kind"] == "repro_verification_report"
    assert payload["tables"]["book"]["rows"] == 3


def test_verify_rows_flags_every_invariant():
    schema = _toy_schema()
    rows = {
        "author": [("a1", "Ada"), ("a1", "Twin"), (None, "Ghost")],
        "book": [("b1", "a9"), ("b1", "a1")],
    }
    report = verify_rows(schema, rows, {"author": 2, "book": 2})
    problems = {c.table: c.problems for c in report.tables}
    assert any("row count mismatch" in p for p in problems["author"])
    assert any("duplicate" in p for p in problems["author"])
    assert any("NULL" in p for p in problems["author"])
    assert any("dangles" in p for p in problems["book"])
    assert any("duplicate" in p for p in problems["book"])
    assert not report.passed


def test_verify_rows_missing_table_fails():
    report = verify_rows(_toy_schema(), {"author": [("a1", "Ada")]})
    by_table = {c.table: c for c in report.tables}
    assert by_table["book"].problems == ["table is missing from the target"]
    assert by_table["author"].passed


def test_read_target_rows_error_paths(tmp_path):
    schema = _toy_schema()
    with pytest.raises(VerificationError, match="no on-disk target"):
        read_target_rows("memory", None, schema)
    with pytest.raises(VerificationError, match="unknown backend"):
        read_target_rows("bogus", "x", schema)
    with pytest.raises(Exception, match="not found"):
        read_target_rows("sqlite", str(tmp_path / "missing.db"), schema)


# --------------------------------------------------------------------------- #
# Job runner: dry runs, warm plans, cancel, resume
# --------------------------------------------------------------------------- #


def _await(runner, job_id, timeout=90):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = runner.store.get(job_id)
        if job.state in TERMINAL:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture
def runner(tmp_path):
    instance = JobRunner(str(tmp_path / "state"), max_workers=1)
    yield instance
    instance.close(wait=False)


SPEC_PARAMS = {"spec": {"dataset": "dblp", "scale": 3}, "shards": 2, "workers": 1}


def test_runner_dry_run_then_warm_plan_reuse(runner):
    job = runner.submit("migrate", dict(SPEC_PARAMS, dry_run=True))
    job = _await(runner, job.id)
    assert job.state == "succeeded", job.error
    assert job.report["backend"] == "null"
    assert job.report["dry_run"] is True
    assert job.report["output"] is None
    assert job.report["total_rows"] == sum(dblp.ground_truth_counts(3).values())
    # Same spec again: the plan must come from the daemon's in-memory memo.
    second = _await(runner, runner.submit("migrate", dict(SPEC_PARAMS, dry_run=True)).id)
    assert second.state == "succeeded", second.error
    assert second.provenance == "warm (daemon memory)"


def test_runner_streaming_job_ignores_workers(runner):
    """``workers`` is a default shared across modes: a streamed job takes it
    without complaint and reports exactly what it reports without it."""
    params = {"spec": {"dataset": "dblp", "scale": 3}, "streaming": True, "dry_run": True}
    plain = _await(runner, runner.submit("migrate", params).id)
    pooled = _await(runner, runner.submit("migrate", dict(params, workers=2)).id)
    assert plain.state == pooled.state == "succeeded", (plain.error, pooled.error)
    varying = ("execution_time_s", "provenance")
    assert {k: v for k, v in pooled.report.items() if k not in varying} == {
        k: v for k, v in plain.report.items() if k not in varying
    }
    assert plain.report["total_rows"] == sum(dblp.ground_truth_counts(3).values())


def test_runner_migrate_sqlite_then_verify_job(runner):
    job = _await(runner, runner.submit("migrate", dict(SPEC_PARAMS, backend="sqlite")).id)
    assert job.state == "succeeded", job.error
    output = job.report["output"]
    assert output and os.path.exists(output)
    assert job.report["backend"] == "sqlite"
    verify = _await(runner, runner.submit("verify", {"job": job.id}).id)
    assert verify.state == "succeeded", verify.error
    assert verify.report["passed"] is True
    # Corrupt the target; the verify job now reports failure per table.
    connection = sqlite3.connect(output)
    connection.execute("DELETE FROM journal")
    connection.commit()
    connection.close()
    broken = _await(runner, runner.submit("verify", {"job": job.id}).id)
    assert broken.state == "succeeded"
    assert broken.report["passed"] is False
    assert broken.error == "verification failed"
    assert not broken.report["tables"]["journal"]["passed"]


def test_runner_run_without_plan_fails_cleanly(runner):
    job = _await(runner, runner.submit("run", dict(SPEC_PARAMS, dry_run=True)).id)
    assert job.state == "failed"
    assert "plan" in job.error


def test_runner_cancel_then_resume_completes(runner):
    params = dict(SPEC_PARAMS, backend="sqlite", shards=4, shard_delay=0.3)
    job = runner.submit("migrate", params)
    deadline = time.time() + 60
    while time.time() < deadline:
        current = runner.store.get(job.id)
        if current.progress.get("shards_done", 0) >= 1:
            break
        time.sleep(0.02)
    runner.cancel(job.id)
    job = _await(runner, job.id)
    assert job.state == "cancelled"
    resumed = runner.resume(job.id)
    assert resumed.resumes == 1
    job = _await(runner, job.id)
    assert job.state == "succeeded", job.error
    assert job.report["shards_resumed"] >= 1
    assert job.report["shards_executed"] < job.report["shards"]
    with pytest.raises(JobError, match="can be resumed"):
        runner.resume(job.id)
    with pytest.raises(JobError, match="nothing to cancel"):
        runner.cancel(job.id)


def test_runner_start_recovers_interrupted_jobs(tmp_path):
    state = str(tmp_path / "state")
    store = JobStore(os.path.join(state, "jobs"))
    job = store.create("migrate", dict(SPEC_PARAMS, dry_run=True))
    job.state = "running"
    store.save(job)
    runner = JobRunner(state, max_workers=1)
    try:
        interrupted = runner.start()
        assert [j.id for j in interrupted] == [job.id]
        assert runner.store.get(job.id).state == "interrupted"
        runner.resume(job.id)
        finished = _await(runner, job.id)
        assert finished.state == "succeeded", finished.error
    finally:
        runner.close(wait=False)


# --------------------------------------------------------------------------- #
# HTTP API
# --------------------------------------------------------------------------- #


def _request(port, path, method="GET", body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_api_end_to_end(tmp_path):
    service = MigrationService(
        str(tmp_path / "state"), ("127.0.0.1", 0), max_workers=1, quiet=True
    )
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    port = service.port
    try:
        status, health = _request(port, "/health")
        assert (status, health["status"]) == (200, "ok")

        status, job = _request(
            port,
            "/jobs",
            "POST",
            {"kind": "migrate", "params": dict(SPEC_PARAMS, backend="sqlite")},
        )
        assert status == 201
        job_id = job["id"]
        deadline = time.time() + 90
        while time.time() < deadline:
            status, job = _request(port, f"/jobs/{job_id}")
            if job["state"] in TERMINAL:
                break
            time.sleep(0.1)
        assert job["state"] == "succeeded", job["error"]

        status, report = _request(port, f"/jobs/{job_id}/report")
        assert status == 200
        assert report["kind"] == "repro_execution_report"
        assert report["total_rows"] == sum(dblp.ground_truth_counts(3).values())

        status, verify_job = _request(
            port, "/jobs", "POST", {"kind": "verify", "params": {"job": job_id}}
        )
        assert status == 201
        while time.time() < deadline:
            status, verify_job = _request(port, f"/jobs/{verify_job['id']}")
            if verify_job["state"] in TERMINAL:
                break
            time.sleep(0.1)
        assert verify_job["state"] == "succeeded", verify_job["error"]
        status, verdict = _request(port, f"/jobs/{verify_job['id']}/report")
        assert verdict["passed"] is True

        status, listing = _request(port, "/jobs")
        assert {j["id"] for j in listing["jobs"]} == {job_id, verify_job["id"]}

        assert _request(port, "/jobs/job-999999")[0] == 404
        assert _request(port, "/jobs", "POST", {"kind": "explode"})[0] == 400
        assert _request(port, "/jobs", "POST", {"kind": "run", "params": 3})[0] == 400
        assert _request(port, "/nope")[0] == 404
        assert _request(port, f"/jobs/{job_id}/resume", "POST")[0] == 409

        status, _ = _request(port, "/shutdown", "POST")
        assert status == 200
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        service.runner.close(wait=False)
        service.server_close()


# --------------------------------------------------------------------------- #
# CLI: --dry-run, --report-json, verify
# --------------------------------------------------------------------------- #


def test_cli_dry_run_writes_nothing_and_reports(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--dry-run", "--shards", "2",
             "--workers", "1", "--report-json", str(report_path)]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "would load" in output
    assert "dry run: no rows were written" in output
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "repro_execution_report"
    assert payload["backend"] == "null"
    assert payload["dry_run"] is True
    assert payload["output"] is None
    assert payload["total_rows"] == sum(dblp.ground_truth_counts(4).values())


def test_cli_dry_run_conflicts_with_output_flags(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--dry-run",
             "--backend", "sqlite", "--output", str(tmp_path / "x.db")]
        )
        == 1
    )
    assert "--dry-run writes nothing" in capsys.readouterr().err


def test_cli_report_json_matches_execution(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out.db"
    report_path = tmp_path / "report.json"
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--backend", "sqlite",
             "--output", str(out), "--report-json", str(report_path)]
        )
        == 0
    )
    payload = json.loads(report_path.read_text())
    assert payload["backend"] == "sqlite"
    assert payload["output"] == str(out)
    assert payload["per_table_rows"] == dblp.ground_truth_counts(4)
    assert payload["shards_resumed"] == 0


def test_cli_verify_detects_deliberate_corruption(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out.db"
    report_path = tmp_path / "report.json"
    assert (
        cli_main(
            ["migrate", "--spec", spec, "--backend", "sqlite",
             "--output", str(out), "--report-json", str(report_path)]
        )
        == 0
    )
    assert (
        cli_main(["verify", "--spec", spec, "--backend", "sqlite", "--output", str(out)])
        == 0
    )
    assert "verification: PASS" in capsys.readouterr().out
    connection = sqlite3.connect(str(out))
    connection.execute("DELETE FROM journal WHERE rowid = 1")
    connection.commit()
    connection.close()
    verdict_path = tmp_path / "verdict.json"
    assert (
        cli_main(
            ["verify", "--spec", spec, "--backend", "sqlite", "--output", str(out),
             "--expect-report", str(report_path), "--report-json", str(verdict_path)]
        )
        == 1
    )
    output = capsys.readouterr().out
    assert "row count mismatch" in output
    assert "dangles" in output
    assert "verification: FAIL" in output
    verdict = json.loads(verdict_path.read_text())
    assert verdict["passed"] is False
    assert verdict["tables"]["journal"]["passed"] is False


def test_cli_verify_usage_errors(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert cli_main(["verify", "--spec", spec]) == 1
    assert "verify needs --backend" in capsys.readouterr().err
    assert (
        cli_main(
            ["verify", "--spec", spec, "--backend", "sqlite",
             "--output", str(tmp_path / "missing.db")]
        )
        == 1
    )
    assert "not found" in capsys.readouterr().err
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "something-else"}')
    assert (
        cli_main(
            ["verify", "--spec", spec, "--backend", "sqlite",
             "--output", str(tmp_path / "missing.db"),
             "--expect-report", str(bogus)]
        )
        == 1
    )
    assert "not an execution report" in capsys.readouterr().err
