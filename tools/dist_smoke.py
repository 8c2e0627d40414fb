#!/usr/bin/env python
"""Distributed-execution smoke test (CI job ``dist-smoke``).

Holds the remote-worker path (docs/distributed.md) to its contract with
real processes and a real mid-run SIGKILL:

1. boot two ``repro worker`` subprocesses on OS-assigned loopback ports;
2. pre-learn the plan (``repro learn``) so the migrate run enters the
   sharded map stage quickly;
3. run a sharded ``repro migrate --remote-workers`` over both workers,
   with an injected per-shard delay so the fleet is mid-shard for a
   deterministic window, and **SIGKILL one worker** inside that window;
4. assert the migrate **succeeds anyway** — shards re-dispatched to the
   surviving worker (``shards_retried >= 1``, ``shards_failed == 0``,
   ``transport == "socket"`` in the JSON report);
5. assert ``repro verify`` passes over the produced database — the
   redispatched run's target is complete and canonical;
6. run a second, kill-free migrate on the surviving worker with one
   corrupted spill frame (shard 0) and one connection cut mid-frame
   (shard 1) injected on the first attempt, and assert it succeeds with
   exactly those two shards retried and a target that verifies.

Usage::

    PYTHONPATH=src python tools/dist_smoke.py

Exit code 0 on success; any assertion failure prints ``smoke: FAIL ...``
and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC_DIR = os.path.join(REPO_ROOT, "src")


class SmokeFailure(Exception):
    """An assertion of the smoke scenario failed."""


def log(message):
    print(f"smoke: {message}", flush=True)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def boot_worker(deadline):
    """Start one ``repro worker`` subprocess; return (process, address)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    line = process.stdout.readline()
    if time.monotonic() > deadline:
        process.kill()
        raise SmokeFailure("deadline exceeded while booting a worker")
    marker = "worker listening on "
    if marker not in line:
        process.kill()
        raise SmokeFailure(f"worker did not announce its address (got {line!r})")
    address = line.split(marker, 1)[1].strip()
    log(f"worker pid={process.pid} listening on {address}")
    return process, address


def run_cli(args, deadline, **popen_kwargs):
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(),
        timeout=timeout,
        capture_output=True,
        text=True,
        **popen_kwargs,
    )


def verify_target(spec_path, output, deadline, what):
    verify = run_cli(
        ["verify", "--spec", spec_path, "--backend", "sqlite", "--output", output],
        deadline,
    )
    if verify.returncode != 0:
        raise SmokeFailure(
            f"verify failed on the {what} target:\n{verify.stdout}{verify.stderr}"
        )
    log(f"verification passed on the {what} target")


def wire_fault_run(spec_path, address, work_dir, deadline):
    """A kill-free migrate on one worker whose first attempts at shards 0
    and 1 meet a corrupted frame and a cut connection."""
    output = os.path.join(work_dir, "wire-faults.db")
    report_path = os.path.join(work_dir, "wire-faults.json")
    migrate = run_cli(
        ["migrate", "--spec", spec_path, "--shards", "4", "--chunk-size", "2",
         "--remote-workers", address,
         "--backend", "sqlite", "--output", output,
         "--inject-faults", "corrupt_frame:shard=0:attempt=1,drop_conn:shard=1:attempt=1",
         "--report-json", report_path],
        deadline,
    )
    if migrate.returncode != 0:
        raise SmokeFailure(
            f"wire-fault migrate exited {migrate.returncode}:\n"
            f"{migrate.stdout}{migrate.stderr}"
        )
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("shards_retried") != 2 or report.get("shards_failed"):
        raise SmokeFailure(f"expected exactly 2 retried shards and none failed: {report}")
    log("corrupted frame and cut connection both retried (shards_retried=2)")
    verify_target(spec_path, output, deadline, "wire-fault")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=10, help="dblp dataset scale")
    parser.add_argument("--shards", type=int, default=6, help="shard count")
    parser.add_argument(
        "--delay-ms", type=int, default=400,
        help="injected per-shard delay keeping workers busy for the kill window",
    )
    parser.add_argument(
        "--timeout", type=float, default=240.0, help="overall deadline in seconds"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout

    with tempfile.TemporaryDirectory(prefix="repro-dist-smoke-") as work_dir:
        spec_path = os.path.join(work_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "dataset": "dblp",
                    "scale": args.scale,
                    "cache_dir": os.path.join(work_dir, "cache"),
                },
                handle,
            )
        output = os.path.join(work_dir, "out.db")
        report_path = os.path.join(work_dir, "report.json")

        learn = run_cli(["learn", "--spec", spec_path], deadline)
        if learn.returncode != 0:
            raise SmokeFailure(f"pre-learn failed: {learn.stderr.strip()}")
        log("plan learned and cached")

        victim, victim_addr = boot_worker(deadline)
        survivor, survivor_addr = boot_worker(deadline)
        try:
            migrate = subprocess.Popen(
                [sys.executable, "-m", "repro", "migrate",
                 "--spec", spec_path,
                 "--shards", str(args.shards),
                 "--chunk-size", "2",
                 "--remote-workers", f"{victim_addr},{survivor_addr}",
                 "--backend", "sqlite", "--output", output,
                 "--inject-faults", f"delay:ms={args.delay_ms}",
                 "--report-json", report_path],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=_env(),
            )
            # Wait for the plan line (the map stage starts right after it),
            # then kill inside the injected-delay window: 6 shards x 400ms
            # over 2 workers keeps both busy for >= 1.2s.
            lines = []
            for line in migrate.stdout:
                lines.append(line)
                if line.startswith("plan:"):
                    break
            else:
                migrate.wait()
                raise SmokeFailure(
                    f"migrate never reached the plan stage:\n{''.join(lines)}"
                )
            time.sleep(1.0)
            victim.kill()
            log(f"SIGKILLed worker pid={victim.pid} mid-run")
            drain = threading.Thread(
                target=lambda: lines.extend(migrate.stdout), daemon=True
            )
            drain.start()
            returncode = migrate.wait(timeout=max(1.0, deadline - time.monotonic()))
            drain.join(timeout=5)
            transcript = "".join(lines)
            if returncode != 0:
                raise SmokeFailure(
                    f"migrate exited {returncode} after the kill:\n{transcript}"
                )
            with open(report_path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            if report.get("transport") != "socket":
                raise SmokeFailure(
                    f"expected the socket transport, got {report.get('transport')!r}"
                )
            retried = report.get("shards_retried", 0)
            if retried < 1:
                raise SmokeFailure(
                    f"killed worker was not redispatched (shards_retried={retried})"
                )
            if report.get("shards_failed") or report.get("shard_failures"):
                raise SmokeFailure(f"unexpected permanent failures: {report}")
            log(
                f"migrate succeeded despite the kill: {retried} shard "
                f"attempt(s) retried, {report['total_rows']} rows via "
                f"{report['transport']} transport"
            )

            verify_target(spec_path, output, deadline, "redispatched")
            wire_fault_run(spec_path, survivor_addr, work_dir, deadline)
        finally:
            for process in (victim, survivor):
                if process.poll() is None:
                    process.kill()
            victim.wait(timeout=10)
            survivor.wait(timeout=10)

    log("OK distributed smoke: kill survived, redispatch and wire faults verified")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"smoke: FAIL {failure}", file=sys.stderr)
        sys.exit(1)
