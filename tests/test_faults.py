"""Tests for shard supervision and fault injection (PR-7 robustness layer).

Covers `repro.runtime.faults` (the `FaultPlan` spec grammar and hook
sites), `repro.runtime.supervisor` (`RetryPolicy` classification and
deterministic backoff, crash/timeout re-dispatch), the sharded executor's
graceful degradation (`ShardDegradedError`, checkpoint preservation,
resume of only the failed shards), the hardened SQLite insert path, the
CLI's `--shard-retries`/`--shard-timeout`/`--inject-faults` surface, and
the service's `error_detail` + degraded-job reporting.  See
docs/robustness.md.
PR 9 adds the wire-path actions (`drop_conn`, `corrupt_frame`, `stall`):
their grammar, the transport error classification in `RetryPolicy`, and
the end-to-end guarantees — a connection cut mid-frame retries to a
byte-identical result, and a persistently corrupted stream degrades
loudly instead of ever truncating output silently.
"""

import json
import os
import sqlite3
import threading
import time

import pytest

from repro.datasets import dblp
from repro.relational import ColumnDef, DatabaseSchema, TableSchema
from repro.runtime import (
    MemoryBackend,
    MigrationPlan,
    SQLiteBackend,
    canonical_table_rows,
    shard_execute,
)
from repro.runtime.backends import ColumnarBackend
from repro.runtime.backends.sqlite import SQLiteBackendError
from repro.runtime.cli import main as cli_main
from repro.runtime.faults import (
    FaultError,
    FaultInjected,
    FaultPlan,
    FaultRule,
    WorkerKilled,
    activation,
    resolve_plan,
)
from repro.runtime.service import JobRunner, ShardCheckpoint
from repro.runtime.service.jobs import Job
from repro.runtime.sharded import ShardDegradedError, ShardError
from repro.runtime.supervisor import (
    ChildProcesses,
    RetryPolicy,
    ShardFailure,
    ShardSupervisor,
    ShardTimeout,
    WorkerCrash,
)


@pytest.fixture(scope="module")
def dblp_plan():
    return MigrationPlan.learn(dblp.dataset(scale=3).migration_spec())


@pytest.fixture(scope="module")
def document():
    return dblp.dataset(scale=8).generate(8)


def _canonical(plan, backend):
    return canonical_table_rows(
        plan.schema, {t: backend.fetch_rows(t) for t in plan.schema.table_names}
    )


@pytest.fixture(scope="module")
def reference(dblp_plan, document):
    report = shard_execute(dblp_plan, document, shards=3, workers=1)
    return _canonical(dblp_plan, report.backend)


# --------------------------------------------------------------------------- #
# FaultPlan: spec grammar
# --------------------------------------------------------------------------- #


def test_fault_plan_parse_roundtrip():
    spec = "kill:shard=2:attempt=1,delay:shard=0:ms=500,truncate_spill:shard=1,lock_db:attempt=1"
    plan = FaultPlan.parse(spec)
    assert plan.to_spec() == spec
    assert plan.rules[0] == FaultRule("kill", shard=2, attempt=1)
    assert plan.rules[1].ms == 500
    # Pickles unchanged into worker payloads.
    import pickle

    assert pickle.loads(pickle.dumps(plan)) == plan


def test_fault_plan_selector_matching():
    plan = FaultPlan.parse("kill:shard=2:attempt=1")
    assert plan.match("kill", shard=2, attempt=1) is not None
    assert plan.match("kill", shard=2, attempt=2) is None
    assert plan.match("kill", shard=1, attempt=1) is None
    assert plan.match("delay", shard=2, attempt=1) is None
    # Omitted selectors match everything.
    broad = FaultPlan.parse("fail")
    assert broad.match("fail", shard=7, attempt=3) is not None


@pytest.mark.parametrize(
    "bad, message",
    [
        ("explode:shard=1", "unknown fault action"),
        ("kill:shard", "expected key=value"),
        ("kill:shard=x", "not an integer"),
        ("kill:shard=-1", "must be >= 0"),
        ("kill:attempt=0", "attempts are 1-based"),
        ("delay:shard=1", "needs ms="),
        ("kill:ms=100", "ms= only applies to delay"),
        ("kill:color=red", "unknown fault selector"),
        ("", "empty fault spec"),
    ],
)
def test_fault_plan_parse_errors(bad, message):
    with pytest.raises(FaultError, match=message):
        FaultPlan.parse(bad)


def test_resolve_plan_forms(monkeypatch):
    plan = FaultPlan.parse("fail:shard=1")
    assert resolve_plan(plan) is plan
    assert resolve_plan("fail:shard=1") == plan
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert resolve_plan(None) is None
    monkeypatch.setenv("REPRO_FAULTS", "fail:shard=1")
    assert resolve_plan(None) == plan


# --------------------------------------------------------------------------- #
# RetryPolicy: classification and determinism
# --------------------------------------------------------------------------- #


def test_retry_policy_classification():
    policy = RetryPolicy()
    retryable = [
        WorkerCrash("worker died"),
        WorkerKilled("injected"),
        ShardTimeout("too slow"),
        sqlite3.OperationalError("database is locked"),
        sqlite3.OperationalError("database table is busy"),
        OSError("spill I/O"),
    ]
    for error in retryable:
        assert policy.is_retryable(error), error
    permanent = [
        ShardError("fingerprint mismatch"),
        FaultInjected("injected permanent"),
        ValueError("a bug"),
        sqlite3.OperationalError("no such table: author"),
    ]
    for error in permanent:
        assert not policy.is_retryable(error), error


def test_retry_policy_broken_pool_by_name():
    from concurrent.futures.process import BrokenProcessPool

    assert RetryPolicy().is_retryable(BrokenProcessPool("pool died"))


def test_retry_policy_walks_cause_chain():
    policy = RetryPolicy()
    wrapped = SQLiteBackendError("insert failed")
    wrapped.__cause__ = sqlite3.OperationalError("database is locked")
    assert policy.is_retryable(wrapped)
    plain = SQLiteBackendError("schema error")
    plain.__cause__ = sqlite3.OperationalError("no such table")
    assert not policy.is_retryable(plain)


def test_retry_policy_deterministic_delays():
    a = RetryPolicy(seed=7)
    b = RetryPolicy(seed=7)
    schedule = [a.delay_for(shard, attempt) for shard in range(3) for attempt in (1, 2)]
    assert schedule == [
        b.delay_for(shard, attempt) for shard in range(3) for attempt in (1, 2)
    ]
    # Backoff grows and respects the ceiling.
    assert a.delay_for(0, 2) > a.delay_for(0, 1)
    capped = RetryPolicy(base_delay=10.0, max_delay=1.0, jitter=0.0)
    assert capped.delay_for(0, 5) == 1.0


def test_shard_failure_json_roundtrip():
    failure = ShardFailure(
        shard=2, attempts=3, error_type="WorkerCrash",
        error="exited", retryable=True, traceback="tb",
    )
    assert ShardFailure.from_json(failure.to_json()) == failure
    assert "shard 2" in failure.describe()
    assert "3 attempt(s)" in failure.describe()


# --------------------------------------------------------------------------- #
# ShardSupervisor: the one attempt loop, driven by fake launchers
# --------------------------------------------------------------------------- #


def _scripted_launcher(script, log):
    """A launcher with no processes: the attempt ``(payload, attempt)``
    raises ``script[(payload, attempt)]`` when scripted (``"always"`` as
    the attempt scripts every attempt) and returns ``payload`` otherwise.
    Every launch is logged as ``(payload, attempt, time, thread)``."""

    def launch(payload, attempt):
        log.append((payload, attempt, time.monotonic(), threading.current_thread()))

        def finish():
            error = script.get((payload, attempt), script.get((payload, "always")))
            if error is not None:
                raise error
            return payload

        return finish

    return launch


def test_supervisor_retries_after_backoff_while_another_shard_proceeds():
    policy = RetryPolicy(base_delay=0.2, jitter=0.0)
    log = []
    launch = _scripted_launcher({("a", 1): OSError("spill I/O")}, log)
    outcome = ShardSupervisor(launch, policy=policy).run([(0, "a"), (1, "b")])
    assert outcome.results == {0: "a", 1: "b"}
    assert outcome.retries == 1 and outcome.failures == []
    assert [(payload, attempt) for payload, attempt, _, _ in log] == [
        ("a", 1), ("b", 1), ("a", 2),
    ]
    assert log[2][2] - log[0][2] >= policy.delay_for(0, 1)


def test_supervisor_exhaustion_records_max_attempts():
    policy = RetryPolicy(max_attempts=3, base_delay=0.001)
    log = []
    launch = _scripted_launcher({("x", "always"): WorkerCrash("gone")}, log)
    outcome = ShardSupervisor(launch, policy=policy).run([(4, "x")])
    (failure,) = outcome.failures
    assert (failure.shard, failure.attempts, failure.error_type) == (4, 3, "WorkerCrash")
    assert failure.retryable  # transient, but the budget ran out
    assert outcome.retries == 2 and len(log) == 3


def test_supervisor_permanent_error_fails_on_the_spot():
    log = []
    launch = _scripted_launcher({("x", 1): ValueError("a plan bug")}, log)
    outcome = ShardSupervisor(launch, policy=RetryPolicy()).run([(0, "x"), (1, "y")])
    (failure,) = outcome.failures
    assert (failure.shard, failure.attempts, failure.retryable) == (0, 1, False)
    assert "ValueError: a plan bug" in failure.traceback
    assert outcome.results == {1: "y"} and len(log) == 2


def test_supervisor_on_complete_error_stops_launches():
    log = []

    def on_complete(shard, result):
        raise RuntimeError("checkpoint disk full")

    supervisor = ShardSupervisor(_scripted_launcher({}, log), on_complete=on_complete)
    with pytest.raises(RuntimeError, match="checkpoint disk full"):
        supervisor.run([(0, "a"), (1, "b"), (2, "c")])
    assert [(payload, attempt) for payload, attempt, _, _ in log] == [("a", 1)]


def test_supervisor_concurrency_overlaps_attempts():
    barrier = threading.Barrier(2, timeout=10)
    launched_on = []

    def launch(payload, attempt):
        launched_on.append(threading.current_thread())
        return lambda: (barrier.wait(), payload)[1]

    outcome = ShardSupervisor(launch, concurrency=2).run([(0, "a"), (1, "b")])
    # Each attempt waits for the other: both finish only if they overlap.
    assert outcome.results == {0: "a", 1: "b"} and outcome.failures == []
    assert launched_on == [threading.current_thread()] * 2


# --------------------------------------------------------------------------- #
# ChildProcesses: process isolation as a launcher
# --------------------------------------------------------------------------- #


def _child_sleeps(pid_path, attempt):
    with open(pid_path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(60)


def _child_exits(payload, attempt):
    os._exit(3)


def _child_raises(payload, attempt):
    raise ValueError(f"bad payload {payload!r}")


def _child_pid(pid_path):
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if os.path.exists(pid_path):
            with open(pid_path) as handle:
                text = handle.read()
            if text:
                return int(text)
        time.sleep(0.01)
    raise AssertionError("the child never started")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_child_processes_timeout_kills_the_child(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    children = ChildProcesses(
        _child_sleeps, policy=RetryPolicy(), scratch_dir=str(scratch), timeout=1.0
    )
    finish = children.launch(str(tmp_path / "pid"), 1)
    with pytest.raises(ShardTimeout, match="exceeded 1.0s"):
        finish()
    assert not _alive(_child_pid(str(tmp_path / "pid")))
    assert os.listdir(scratch) == []


def test_child_processes_exit_is_a_worker_crash(tmp_path):
    children = ChildProcesses(_child_exits, policy=RetryPolicy(), scratch_dir=str(tmp_path))
    with pytest.raises(WorkerCrash, match=r"code 3\)"):
        children.launch(None, 1)()


def test_child_processes_error_keeps_type_classification_and_traceback(tmp_path):
    policy = RetryPolicy()
    children = ChildProcesses(_child_raises, policy=policy, scratch_dir=str(tmp_path))
    outcome = ShardSupervisor(children.launch, policy=policy).run([(7, "x")])
    (failure,) = outcome.failures
    assert (failure.shard, failure.attempts) == (7, 1)
    assert failure.error_type == "ValueError" and not failure.retryable
    assert failure.error == "bad payload 'x'"
    assert "in _child_raises" in failure.traceback  # the child's own frames
    assert os.listdir(tmp_path) == []


def test_child_processes_close_kills_live_children(tmp_path):
    children = ChildProcesses(_child_sleeps, policy=RetryPolicy(), scratch_dir=str(tmp_path))
    children.launch(str(tmp_path / "pid"), 1)
    pid = _child_pid(str(tmp_path / "pid"))
    assert _alive(pid)
    children.close()
    assert not _alive(pid)


# --------------------------------------------------------------------------- #
# Injected faults through shard_execute: retry paths
# --------------------------------------------------------------------------- #


def test_truncated_spill_is_retried_in_process(dblp_plan, document, reference):
    report = shard_execute(
        dblp_plan, document, shards=3, workers=1,
        faults="truncate_spill:shard=0:attempt=1",
    )
    assert report.shards_retried == 1
    assert report.shards_failed == 0
    assert report.shard_failures == []
    assert _canonical(dblp_plan, report.backend) == reference


def test_in_process_kill_is_retried(dblp_plan, document, reference):
    report = shard_execute(
        dblp_plan, document, shards=3, workers=1, faults="kill:shard=1:attempt=1"
    )
    assert report.shards_retried == 1
    assert _canonical(dblp_plan, report.backend) == reference


@pytest.mark.parametrize(
    "make_backend", [MemoryBackend, SQLiteBackend, ColumnarBackend]
)
def test_killed_worker_process_redispatches_canonically(
    dblp_plan, document, reference, make_backend
):
    """A worker killed with os._exit mid-spill re-dispatches only its shard,
    and the finished output is byte-canonically identical to an
    uninterrupted run — across all three backends."""
    report = shard_execute(
        dblp_plan, document, make_backend(), shards=3, workers=2,
        faults="kill:shard=1:attempt=1",
    )
    assert report.shards_retried >= 1
    assert report.shards_failed == 0
    assert _canonical(dblp_plan, report.backend) == reference


def test_shard_timeout_cancels_and_redispatches(dblp_plan, document, reference):
    report = shard_execute(
        dblp_plan, document, shards=3, workers=2, shard_timeout=0.5,
        faults="delay:shard=0:ms=2500:attempt=1",
    )
    assert report.shards_retried >= 1
    assert report.shards_failed == 0
    assert _canonical(dblp_plan, report.backend) == reference


def test_lock_db_fault_exercises_sqlite_insert_retry(dblp_plan, document, reference):
    backend = SQLiteBackend()
    report = shard_execute(
        dblp_plan, document, backend, shards=3, workers=1, faults="lock_db:attempt=1"
    )
    assert _canonical(dblp_plan, report.backend) == reference


def test_env_var_activates_faults(dblp_plan, document, reference, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "truncate_spill:shard=0:attempt=1")
    report = shard_execute(dblp_plan, document, shards=3, workers=1)
    assert report.shards_retried == 1
    assert _canonical(dblp_plan, report.backend) == reference


# --------------------------------------------------------------------------- #
# Graceful degradation and resume
# --------------------------------------------------------------------------- #


def test_permanent_fault_degrades_gracefully(dblp_plan, document):
    with pytest.raises(ShardDegradedError) as excinfo:
        shard_execute(dblp_plan, document, shards=3, workers=1, faults="fail:shard=1")
    error = excinfo.value
    assert len(error.failures) == 1
    failure = error.failures[0]
    assert failure.shard == 1
    assert failure.error_type == "FaultInjected"
    assert failure.attempts == 1  # non-retryable: no second attempt
    assert not failure.retryable
    assert error.report.shards_failed == 1
    assert error.report.shard_failures == [failure.to_json()]
    assert not error.resumable  # no checkpoint was configured
    assert "failed permanently" in str(error)


def test_retryable_exhaustion_records_attempts(dblp_plan, document):
    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    with pytest.raises(ShardDegradedError) as excinfo:
        shard_execute(
            dblp_plan, document, shards=3, workers=1,
            faults="truncate_spill:shard=0", retry_policy=policy,
        )
    failure = excinfo.value.failures[0]
    assert failure.shard == 0
    assert failure.attempts == 2
    assert failure.retryable  # transient, but the budget ran out
    assert excinfo.value.report.shards_retried == 1


def test_degraded_run_keeps_checkpoint_and_resumes(
    dblp_plan, document, reference, tmp_path
):
    """The acceptance path: exhausted retries degrade without losing the
    completed shards; a resume re-executes only the failed one and the
    final output matches an uninterrupted run canonically."""
    directory = str(tmp_path / "ckpt")
    with pytest.raises(ShardDegradedError) as excinfo:
        shard_execute(
            dblp_plan, document, shards=3, workers=1,
            checkpoint=ShardCheckpoint(directory), faults="fail:shard=1",
        )
    assert excinfo.value.resumable
    assert "resume" in str(excinfo.value)
    report = shard_execute(
        dblp_plan, document, shards=3, workers=1,
        checkpoint=ShardCheckpoint(directory), resume=True,
    )
    assert report.shards_resumed == 2  # only the failed shard re-executed
    assert report.shards_executed == 1
    assert _canonical(dblp_plan, report.backend) == reference


def test_degradation_skips_reduce_entirely(dblp_plan, document):
    """No partial target: the backend never begins when any shard failed."""

    class _Recording(MemoryBackend):
        began = False

        def begin(self, schema):
            self.began = True
            super().begin(schema)

    backend = _Recording()
    with pytest.raises(ShardDegradedError):
        shard_execute(
            dblp_plan, document, backend, shards=3, workers=1, faults="fail:shard=0"
        )
    assert not backend.began


# --------------------------------------------------------------------------- #
# SQLite insert hardening
# --------------------------------------------------------------------------- #


def _toy_schema():
    return DatabaseSchema(
        name="toy",
        tables=[
            TableSchema(
                name="author",
                columns=[ColumnDef("id"), ColumnDef("name")],
                primary_key="id",
            )
        ],
    )


def test_sqlite_injected_lock_is_retried(tmp_path):
    backend = SQLiteBackend(str(tmp_path / "t.db"))
    backend.begin(_toy_schema())
    with activation(FaultPlan.parse("lock_db:attempt=1")):
        assert backend.insert_rows("author", [("a1", "Ada"), ("a2", "Grace")]) == 2
    backend.finalize()
    assert backend.fetch_rows("author") == [("a1", "Ada"), ("a2", "Grace")]
    backend.close()


def test_sqlite_lock_exhaustion_surfaces(tmp_path):
    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    backend = SQLiteBackend(str(tmp_path / "t.db"), retry_policy=policy)
    backend.begin(_toy_schema())
    with activation(FaultPlan.parse("lock_db")):  # every attempt locks
        with pytest.raises(SQLiteBackendError, match="after 2 attempt"):
            backend.insert_rows("author", [("a1", "Ada")])
    backend.close()


def test_sqlite_busy_timeout_pragma(tmp_path):
    backend = SQLiteBackend(str(tmp_path / "t.db"), busy_timeout_ms=1234)
    backend.begin(_toy_schema())
    (value,) = backend.connection.execute("PRAGMA busy_timeout").fetchone()
    assert value == 1234
    backend.close()


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #


def _demo_spec(tmp_path, **extra):
    payload = {"dataset": "dblp", "scale": 4, "cache_dir": str(tmp_path / "cache")}
    payload.update(extra)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_inject_faults_end_to_end(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out.db"
    report_path = tmp_path / "report.json"
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "3", "--workers", "1",
         "--backend", "sqlite", "--output", str(out),
         "--inject-faults", "truncate_spill:shard=0:attempt=1",
         "--report-json", str(report_path)]
    ) == 0
    assert "retried" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["shards_retried"] == 1
    assert report["shards_failed"] == 0
    assert cli_main(
        ["verify", "--spec", spec, "--backend", "sqlite", "--output", str(out)]
    ) == 0


def test_cli_degraded_run_exits_one_then_resumes(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    out = tmp_path / "out.db"
    ckpt = tmp_path / "ckpt"
    report_path = tmp_path / "report.json"
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "3", "--workers", "1",
         "--backend", "sqlite", "--output", str(out),
         "--checkpoint-dir", str(ckpt),
         "--inject-faults", "fail:shard=1",
         "--report-json", str(report_path)]
    ) == 1
    captured = capsys.readouterr()
    assert "failed permanently" in captured.err
    assert "FaultInjected" in captured.err
    assert "--resume" in captured.err
    report = json.loads(report_path.read_text())
    assert report["shards_failed"] == 1
    assert report["shard_failures"][0]["shard"] == 1
    # The fix (no fault plan) + --resume finishes from the checkpoint.
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "3", "--workers", "1",
         "--backend", "sqlite", "--output", str(out),
         "--checkpoint-dir", str(ckpt), "--resume"]
    ) == 0
    assert "(2 resumed from checkpoint, 1 executed)" in capsys.readouterr().out
    assert cli_main(
        ["verify", "--spec", spec, "--backend", "sqlite", "--output", str(out)]
    ) == 0


@pytest.mark.parametrize(
    "flag", [["--shard-retries", "2"], ["--shard-timeout", "5"],
             ["--inject-faults", "fail:shard=0"]]
)
def test_cli_supervision_flags_need_sharded_mode(tmp_path, capsys, flag):
    spec = _demo_spec(tmp_path)
    assert cli_main(["migrate", "--spec", spec, *flag]) == 1
    assert "only applies to sharded execution" in capsys.readouterr().err


def test_cli_rejects_bad_fault_spec_and_values(tmp_path, capsys):
    spec = _demo_spec(tmp_path)
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "2",
         "--inject-faults", "explode:shard=1"]
    ) == 1
    assert "--inject-faults" in capsys.readouterr().err
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "2", "--shard-retries", "-1"]
    ) == 1
    assert "--shard-retries" in capsys.readouterr().err
    assert cli_main(
        ["migrate", "--spec", spec, "--shards", "2", "--shard-timeout", "0"]
    ) == 1
    assert "--shard-timeout" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Service: error_detail and degraded-job reports
# --------------------------------------------------------------------------- #


def test_job_error_detail_roundtrip():
    job = Job(id="job-000001", kind="migrate", params={})
    job.state = "failed"
    job.error = "boom"
    job.error_detail = "Traceback (most recent call last):\n  ...\nboom"
    reloaded = Job.from_json(job.to_json())
    assert reloaded.error_detail == job.error_detail
    assert Job.from_json(Job(id="j2", kind="run", params={}).to_json()).error_detail is None


TERMINAL = ("succeeded", "failed", "cancelled")


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


def test_failed_job_records_traceback(runner):
    job = _await(runner, runner.submit("run", dict(SPEC_PARAMS, dry_run=True)).id)
    assert job.state == "failed"
    assert job.error_detail and "Traceback" in job.error_detail


def test_fault_injected_job_retries_and_succeeds(runner):
    params = dict(
        SPEC_PARAMS, backend="sqlite",
        inject_faults="truncate_spill:shard=0:attempt=1",
    )
    job = _await(runner, runner.submit("migrate", params).id)
    assert job.state == "succeeded", job.error
    assert job.report["shards_retried"] == 1
    verify = _await(runner, runner.submit("verify", {"job": job.id}).id)
    assert verify.state == "succeeded", verify.error
    assert verify.report["passed"] is True


def test_degraded_job_keeps_structured_report(runner):
    params = dict(SPEC_PARAMS, backend="sqlite", inject_faults="fail:shard=1")
    job = _await(runner, runner.submit("migrate", params).id)
    assert job.state == "failed"
    assert "FaultInjected" in (job.error or "")
    assert job.error_detail  # the shard's traceback
    assert job.report is not None
    assert job.report["shards_failed"] == 1
    assert job.report["shard_failures"][0]["shard"] == 1
    # Resume without the fault param would rerun with the same params, so
    # degraded jobs resume only after the caller fixes them; here we just
    # assert the transition clears the failure fields.
    resumed = runner.resume(job.id)
    assert resumed.error is None
    assert resumed.error_detail is None
    assert resumed.report is None
    _await(runner, job.id)  # let it finish (it degrades again) before teardown


# --------------------------------------------------------------------------- #
# Wire-path faults (PR 9): grammar, classification, end-to-end guarantees
# --------------------------------------------------------------------------- #


def test_wire_fault_grammar():
    spec = "drop_conn:shard=1:attempt=1,corrupt_frame:shard=0,stall:shard=2:ms=250"
    plan = FaultPlan.parse(spec)
    assert plan.to_spec() == spec
    assert plan.rules[0] == FaultRule("drop_conn", shard=1, attempt=1)
    assert plan.rules[2].ms == 250
    with pytest.raises(FaultError, match="needs ms="):
        FaultPlan.parse("stall:shard=1")  # stall is a timed action
    with pytest.raises(FaultError, match="ms= only applies to delay/stall"):
        FaultPlan.parse("corrupt_frame:ms=5")
    with pytest.raises(FaultError, match="ms= only applies to delay/stall"):
        FaultPlan.parse("drop_conn:ms=5")


def test_retry_policy_transport_error_classification():
    from repro.runtime.transport import (
        ConnectionLost,
        FrameError,
        HandshakeError,
        RemoteShardError,
        TransportError,
        WorkerUnavailable,
    )

    policy = RetryPolicy()
    for error in (
        TransportError("generic wire trouble"),
        ConnectionLost("peer reset mid-frame"),
        FrameError("crc mismatch"),
    ):
        assert policy.is_retryable(error), error
    for error in (
        HandshakeError("plan fingerprint rejected"),
        WorkerUnavailable("no live workers"),
    ):
        assert not policy.is_retryable(error), error
    # A remote failure carries the worker's own classification, made with
    # the driver's shipped policy; the hint is honoured verbatim.
    assert policy.is_retryable(
        RemoteShardError("remote crash", remote_type="WorkerCrash", retryable=True)
    )
    assert not policy.is_retryable(
        RemoteShardError("remote bug", remote_type="ValueError", retryable=False)
    )


def test_drop_conn_mid_frame_retries_to_identical_result(
    dblp_plan, document, reference
):
    """The acceptance case: a connection severed mid-frame (half a frame
    delivered, then a dead socket) re-dispatches the shard and the final
    output is byte-identical to an unfaulted run."""
    from repro.runtime.transport import SocketTransport
    from repro.runtime.worker import ShardWorker

    with ShardWorker() as worker:
        with SocketTransport([worker.address]) as transport:
            report = shard_execute(
                dblp_plan, document, shards=3, workers=1, chunk_size=4,
                faults="drop_conn:shard=1:attempt=1", transport=transport,
            )
    assert report.shards_retried == 1
    assert report.shards_failed == 0
    assert _canonical(dblp_plan, report.backend) == reference


def test_corrupt_frame_is_caught_and_retried(dblp_plan, document, reference):
    """A flipped byte in a spill frame fails the CRC check; the shard is
    re-streamed from scratch, never patched around."""
    from repro.runtime.transport import SocketTransport
    from repro.runtime.worker import ShardWorker

    with ShardWorker() as worker:
        with SocketTransport([worker.address]) as transport:
            report = shard_execute(
                dblp_plan, document, shards=3, workers=1, chunk_size=4,
                faults="corrupt_frame:shard=0:attempt=1", transport=transport,
            )
    assert report.shards_retried == 1
    assert _canonical(dblp_plan, report.backend) == reference


def test_persistent_corruption_degrades_never_truncates(dblp_plan, document):
    """Corruption on *every* attempt exhausts the retry budget and degrades
    with a structured FrameError failure — silent truncation of the target
    is impossible because no spill means no reduce."""
    from repro.runtime.transport import SocketTransport
    from repro.runtime.worker import ShardWorker

    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    with ShardWorker() as worker:
        with SocketTransport([worker.address]) as transport:
            with pytest.raises(ShardDegradedError) as excinfo:
                shard_execute(
                    dblp_plan, document, shards=3, workers=1, chunk_size=4,
                    faults="corrupt_frame:shard=1", retry_policy=policy,
                    transport=transport,
                )
    failure = excinfo.value.failures[0]
    assert failure.shard == 1
    assert failure.error_type == "FrameError"
    assert failure.attempts == 2
    assert failure.retryable  # transient class, but the budget ran out


def test_stall_fault_delays_the_stream(dblp_plan, document, reference):
    from repro.runtime.transport import SocketTransport
    from repro.runtime.worker import ShardWorker

    with ShardWorker() as worker:
        with SocketTransport([worker.address]) as transport:
            started = time.monotonic()
            report = shard_execute(
                dblp_plan, document, shards=2, workers=1, chunk_size=4,
                faults="stall:shard=0:ms=400", transport=transport,
            )
            elapsed = time.monotonic() - started
    assert elapsed >= 0.4
    assert report.shards_failed == 0
    assert _canonical(dblp_plan, report.backend) == reference


def test_remote_kill_fault_takes_down_the_worker_daemon(dblp_plan, document):
    """A `kill` rule inside a remote worker os._exits the daemon process —
    remote workers ARE the worker process.  With no survivor the run
    degrades as WorkerUnavailable."""
    import os
    import subprocess
    import sys

    import repro as _repro
    from repro.runtime.transport import SocketTransport

    src = os.path.dirname(os.path.dirname(os.path.abspath(_repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        address = line.split("worker listening on ", 1)[1].strip()
        with SocketTransport([address]) as transport:
            with pytest.raises(ShardDegradedError):
                shard_execute(
                    dblp_plan, document, shards=2, workers=1, chunk_size=4,
                    faults="kill:shard=0", transport=transport,
                )
        assert proc.wait(timeout=10) != 0  # the daemon really died
    finally:
        proc.kill()
