"""One request, two front-ends, one verdict.

Every row of the tables below is a run request written once — spec keys plus
options — and issued twice: as ``repro run|migrate`` flags through
``cli_main`` and as job params through ``JobRunner.submit``.  Both reach
``repro.runtime.run``, so both must refuse the same requests with the same
message (before synthesis, leaving no target) and land the same rows for the
ones they accept.  The last test pins the layering that makes this hold: the
service never imports the CLI.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.datasets import dblp
from repro.runtime import MigrationPlan, canonical_table_rows, read_target_rows
from repro.runtime.cli import main as cli_main
from repro.runtime.service import JobRunner

SCALE = 3
TERMINAL = ("succeeded", "failed", "cancelled")


def _cli_flags(options):
    """The options of a request as ``repro run|migrate`` flags."""
    flags = []
    for key, value in options.items():
        flag = "--no-stream" if key == "whole_tree" else "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    return flags


def _await(runner, job_id, timeout=90):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = runner.store.get(job_id)
        if job.state in TERMINAL:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


def _files_under(directory):
    return [name for _, _, names in os.walk(directory) for name in names]


@pytest.fixture
def runner(tmp_path):
    instance = JobRunner(str(tmp_path / "state"), max_workers=1)
    yield instance
    instance.close(wait=False)


@pytest.fixture(scope="module")
def plan_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "dblp.plan.json"
    MigrationPlan.learn(dblp.dataset(scale=SCALE).migration_spec()).save(str(path))
    return str(path)


# --------------------------------------------------------------------------- #
# Refused: same message, before synthesis, nothing left behind
# --------------------------------------------------------------------------- #

REFUSED = [
    # (spec keys, options, message fragment)
    ({}, {"streaming": True, "shards": 3}, "different execution modes"),
    ({}, {"streaming": True, "whole_tree": True}, "--streaming conflicts with --no-stream"),
    ({}, {"shards": 2, "shard_retries": -1}, "--shard-retries must be >= 0"),
    ({}, {"shards": 2, "shard_timeout": 0}, "--shard-timeout must be positive"),
    ({}, {"streaming": True, "chunk_size": 0}, "--chunk-size must be positive"),
    ({}, {"shards": 0}, "--shards must be >= 1"),
    ({}, {"shards": 2, "inject_faults": "explode:shard=1"}, "--inject-faults"),
    ({}, {"backend": "memory", "output": "out.db"}, "memory backend produces no output"),
    (
        {},
        {"backend": "sqlite", "output": "out.db", "columnar_format": "json"},
        "--columnar-format only applies to the columnar backend",
    ),
    ({"backend": "bogus"}, {"output": "out.db"}, "unknown backend 'bogus'"),
    ({"streaming": True, "shards": 2}, {}, 'spec keys "streaming" and "shards" conflict'),
]


@pytest.mark.parametrize("spec_keys, options, message", REFUSED, ids=[row[2] for row in REFUSED])
def test_both_front_ends_refuse_before_synthesis(
    tmp_path, capsys, runner, spec_keys, options, message
):
    cache = tmp_path / "cache"
    spec = {"dataset": "dblp", "scale": SCALE, "cache_dir": str(cache), **spec_keys}
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    assert cli_main(["migrate", "--spec", str(tmp_path / "spec.json"), *_cli_flags(options)]) == 1
    assert message in capsys.readouterr().err
    assert not cache.exists() and not (tmp_path / "out.db").exists()

    job = _await(runner, runner.submit("migrate", {"spec": spec, **options}).id)
    assert job.state == "failed"
    assert message in job.error
    assert job.provenance is None  # refused before any plan work
    state = runner.state_dir
    assert _files_under(os.path.join(state, "outputs")) == []
    assert _files_under(os.path.join(state, "learn-cache")) == []
    assert not os.path.exists(os.path.join(state, "out.db")) and not cache.exists()


# --------------------------------------------------------------------------- #
# Accepted: same counts, same canonical rows
# --------------------------------------------------------------------------- #

ACCEPTED = [
    {"whole_tree": True},
    {"streaming": True, "chunk_size": 4},
    {"shards": 2},
    {"shards": "auto"},
    {"whole_tree": True, "dry_run": True},
    # The columnar row lands in a directory that already exists, empty.
    {"shards": 2, "backend": "columnar", "columnar_format": "json"},
]


@pytest.mark.parametrize("options", ACCEPTED, ids=lambda o: "+".join(o))
def test_both_front_ends_land_the_same_rows(tmp_path, capsys, runner, plan_path, options):
    spec = {"dataset": "dblp", "scale": SCALE}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    schema = dblp.dataset(scale=SCALE).migration_spec().schema
    backend = options.get("backend", "sqlite")
    reports, rows = [], []
    for side in ("cli", "service"):
        request = dict(options, plan=plan_path)
        if not options.get("dry_run"):
            output = tmp_path / (f"{side}-out" if backend == "columnar" else f"{side}.db")
            if backend == "columnar":
                output.mkdir()
            request.update(backend=backend, output=str(output))
        if side == "cli":
            report_path = tmp_path / "report.json"
            argv = ["run", "--spec", str(tmp_path / "spec.json"), "--report-json", str(report_path)]
            assert cli_main(argv + _cli_flags(request)) == 0, capsys.readouterr().err
            reports.append(json.loads(report_path.read_text()))
        else:
            job = _await(runner, runner.submit("run", {"spec": spec, **request}).id)
            assert job.state == "succeeded", job.error
            reports.append(job.report)
        if not options.get("dry_run"):
            assert reports[-1]["output"] == str(output)
            rows.append(canonical_table_rows(schema, read_target_rows(backend, str(output), schema)))
    cli_report, service_report = reports
    assert cli_report["per_table_rows"] == service_report["per_table_rows"]
    assert cli_report["per_table_rows"] == dblp.ground_truth_counts(SCALE)
    assert set(cli_report) | {"provenance"} == set(service_report)
    for key in ("backend", "shards", "chunks", "dry_run", "transport"):
        assert cli_report[key] == service_report[key], key
    if rows:
        assert rows[0] == rows[1]


# --------------------------------------------------------------------------- #
# One partial-target policy
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["columnar", "sqlite"])
def test_failed_run_leaves_the_same_nothing_on_both(tmp_path, capsys, runner, plan_path, backend):
    """An injected mid-run failure: a directory the run did not create stays,
    empty; a database file is gone — whichever front-end ran it."""
    spec = {"dataset": "dblp", "scale": SCALE}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    for side in ("cli", "service"):
        output = tmp_path / f"{side}-out"
        if backend == "columnar":
            output.mkdir()
        request = {
            "plan": plan_path, "shards": 2, "workers": 1, "inject_faults": "fail:shard=1",
            "backend": backend, "output": str(output),
        }
        if side == "cli":
            argv = ["run", "--spec", str(tmp_path / "spec.json"), *_cli_flags(request)]
            assert cli_main(argv) == 1
            assert "FaultInjected" in capsys.readouterr().err
        else:
            job = _await(runner, runner.submit("run", {"spec": spec, **request}).id)
            assert job.state == "failed" and "FaultInjected" in job.error
        if backend == "columnar":
            assert output.is_dir() and list(output.iterdir()) == []
        else:
            assert not output.exists()


# --------------------------------------------------------------------------- #
# Layering
# --------------------------------------------------------------------------- #

_LAYERING_PROBE = """
import sys, time
from repro.runtime.service import JobRunner

runner = JobRunner(sys.argv[1], max_workers=1)
job = runner.submit("run", {"spec": {"dataset": "dblp", "scale": 2}, "plan": sys.argv[2],
                            "dry_run": True, "whole_tree": True})
deadline = time.time() + 60
while runner.store.get(job.id).state not in ("succeeded", "failed") and time.time() < deadline:
    time.sleep(0.05)
job = runner.store.get(job.id)
runner.close()
assert job.state == "succeeded", (job.state, job.error)
assert "repro.runtime.cli" not in sys.modules
holders = [name for name, module in sys.modules.items()
           if name.startswith("repro") and hasattr(module, "argparse")]
assert holders == [], holders
"""


def test_service_runs_a_job_without_the_cli(tmp_path, plan_path):
    """The service reaches the run API directly: a whole dry-run job imports
    neither ``repro.runtime.cli`` nor — anywhere in ``repro`` — argparse.
    (``argparse`` itself is in ``sys.modules`` regardless: scipy imports it.)"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE, str(tmp_path / "state"), plan_path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
