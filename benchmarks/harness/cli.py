"""Command line of the benchmark (``run.py`` is the thin entry point).

Two shapes of invocation share one code path:

* the contract shape the driver uses —
  ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — runs one pass
  of one workload and ends with one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``;
* the developer shape — no ``--workload`` (all five) and/or no ``--trace``
  (untraced pass, then traced pass) — prints every metric of every pass and
  ends with one JSON object keyed by workload.

Every pass of every workload runs in its own child process, one after
another, so ``peak_rss_mb`` is that workload's alone and a crashed workload
cannot leave workers or files behind: the child runs in its own session
with ``TMPDIR`` inside the checkout, and the parent kills the session and
removes the directory whatever happens.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import import_module
from typing import Dict, List, Optional

from . import spec
from .protocol import (
    REPO_ROOT,
    SRC_DIR,
    TMP_ROOT,
    OracleError,
    RunContext,
    median,
    peak_rss_mb,
    ratio,
    scratch_dir,
)

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
DEFAULT_SEED = 2018
#: Quick runs get tiny inputs; their numbers are marked not comparable.
QUICK_SECONDS = 0.5
#: A child that is still running after this long is killed (the contract
#: allows a run 180 s).
CHILD_TIMEOUT_SECONDS = 170.0


# --------------------------------------------------------------------------- #
# Child: one pass of one workload, in this process
# --------------------------------------------------------------------------- #


def child_main(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    name = args.workload[0]
    # Importing the workload module imports every layer it drives; that is
    # the part of set-up a user pays before the first call.
    workload = import_module(f"{__package__}.workloads.{name}")
    import_seconds = time.perf_counter() - started

    from .tracing import Tracer

    tracer = Tracer(run_id=f"{name}-{args.seed}-{os.getpid()}") if args.trace else None
    ctx = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        quick=args.quick,
        tmp=os.environ["TMPDIR"],
        tracer=tracer,
    )
    result = workload.run(ctx)
    operations = result.operations
    if operations.attempted < 1:
        raise OracleError(f"{name}: no operation was attempted")

    end_to_end = {
        "setup_s": import_seconds + median(result.setup_units),
        "wall_s": result.wall_s,
        "ops_per_s": ratio(result.ops, result.wall_s),
        "cell1_s": result.cells[0],
        "cell2_s": result.cells[1],
        "cell3_s": result.cells[2],
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = dict.fromkeys(spec.PER_LAYER_UNITS, 0.0)
    if tracer is not None:
        unknown = set(result.layers) - set(layers)
        if unknown:
            raise OracleError(f"{name}: undeclared layer metrics {sorted(unknown)}")
        layers.update(result.layers)
        layers["workload.failed_share"] = ratio(operations.failed, operations.attempted)
        layers["workload.known_deviations"] = operations.known_deviations
    payload = {
        "workload": name,
        "trace": int(bool(args.trace)),
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": operations.failed == 0,
        "attempted": operations.attempted,
        "failed": operations.failed,
        "known_deviations": operations.known_deviations,
        "failures": operations.failures,
        "end_to_end": end_to_end,
        "per_layer": layers if tracer is not None else {},
        "info": dict(result.info, pid=os.getpid(), import_s=import_seconds,
                     setup_units=result.setup_units),
    }
    if tracer is not None and args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"trace-{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.chrome_trace(), handle)
    print(json.dumps(payload))
    return 0


# --------------------------------------------------------------------------- #
# Parent: spawn, reap, report
# --------------------------------------------------------------------------- #


def run_pass(
    workload: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    out: Optional[str] = None,
) -> dict:
    """Run one pass in a child process and return its result record."""
    command = [
        sys.executable, RUN_PY, "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    if out:
        command += ["--out", out]
    with scratch_dir(TMP_ROOT, f"{workload}-") as tmp:
        env = dict(os.environ, TMPDIR=tmp)
        # Fault injection is read from the environment by the library; a
        # benchmark run must not inherit one.
        env.pop("REPRO_FAULTS", None)
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
        )
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_SECONDS)
        finally:
            # Whatever happened, nothing the child started outlives it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            child.wait()
    try:
        os.rmdir(TMP_ROOT)  # leave nothing behind once the last pass is done
    except OSError:
        pass
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {child.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError) as error:
        raise SystemExit(f"{workload}: child printed no result ({error})") from error
    record["info"]["parent_pid"] = os.getpid()
    return record


def metrics_of(record: dict) -> Dict[str, Dict[str, object]]:
    """The pass's metrics in the contract's shape: ``name -> {value, unit}``."""
    if record["trace"]:
        values, units = record["per_layer"], spec.PER_LAYER_UNITS
    else:
        values, units = record["end_to_end"], spec.END_TO_END_UNITS
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_metrics(record: dict) -> None:
    for name, metric in metrics_of(record).items():
        print(f"{record['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"{record['workload']} FAILED {failure}")


def contract_result(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics_of(record),
    }


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------- #
# Self-check: two untraced passes of the same code must agree
# --------------------------------------------------------------------------- #


def disagreements(first: dict, second: dict) -> List[str]:
    """End-to-end metrics that differ between two passes by more than their
    own bound (``setup_s`` included: it is bounded too)."""
    offenders = []
    for metric in spec.END_TO_END:
        a, b = first["end_to_end"][metric.name], second["end_to_end"][metric.name]
        spread = ratio(abs(a - b), min(a, b))
        if spread > metric.bound:
            offenders.append(
                f"{first['workload']} {metric.name}: {a:.4g} vs {b:.4g} {metric.unit} "
                f"({spread:.1%} > {metric.bound:.0%})"
            )
    for key in ("attempted", "failed", "known_deviations"):
        if first[key] != second[key]:
            offenders.append(f"{first['workload']} {key}: {first[key]} vs {second[key]}")
    return offenders


def selfcheck(workloads: List[str], args: argparse.Namespace) -> int:
    """Run the untraced pass twice per workload; a workload that disagrees
    with itself gets more repetitions (a longer ``--seconds``), never a wider
    bound, and is reported if it still disagrees."""
    status = 0
    final_seconds = {}
    for workload in workloads:
        seconds = args.seconds
        for _ in range(3):
            passes = [
                run_pass(workload, seed=args.seed, seconds=seconds, trace=False, quick=args.quick)
                for _ in range(2)
            ]
            offenders = disagreements(*passes)
            if not offenders:
                break
            for line in offenders:
                print(f"selfcheck: {line} at --seconds {seconds:g}")
            seconds *= 1.5
        final_seconds[workload] = seconds
        if offenders:
            status = 1
        print(f"selfcheck: {workload} {'DISAGREES' if offenders else 'agrees'} "
              f"at --seconds {seconds:g}")
    print(json.dumps({"selfcheck_passed": status == 0, "seconds": final_seconds}))
    return status


# --------------------------------------------------------------------------- #
# Entry
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="The repo's benchmark (see benchmarks/harness/README.md)."
    )
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds dataset(scale, seed=...) and the task draw")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long one pass measures (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
                        help="1: traced pass (per-layer metrics); 0: untraced pass "
                        "(end-to-end metrics); omitted: both, untraced first")
    parser.add_argument("--out", metavar="DIR",
                        help="write result.json (and trace-<workload>.json per traced pass)")
    parser.add_argument("--quick", action="store_true",
                        help='tiny inputs, marked "comparable": false')
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced pass twice and fail if they disagree")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repo root and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


def write_manifest() -> str:
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.manifest(), handle, indent=2)
        handle.write("\n")
    return path


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec.RUN_SECONDS)
    if args.child:
        return child_main(args)
    if args.write_manifest:
        print(write_manifest())
        return 0
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: {SRC_DIR} does not hold the program under test", file=sys.stderr)
        return 2
    # A terminated parent still reaps its child's session (run_pass's finally).
    signal.signal(signal.SIGTERM, _exit_on_signal)
    workloads = args.workload or list(spec.WORKLOAD_NAMES)
    if args.selfcheck:
        return selfcheck(workloads, args)

    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    records = []
    for workload in workloads:
        for trace in passes:
            record = run_pass(
                workload, seed=args.seed, seconds=args.seconds, trace=trace,
                quick=args.quick, out=args.out,
            )
            print_metrics(record)
            records.append(record)

    comparable = not args.quick
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
            json.dump(
                {"comparable": comparable, "environment": environment(), "passes": records},
                handle, indent=2,
            )
            handle.write("\n")
    if len(records) == 1:
        print(json.dumps(contract_result(records[0])))
    else:
        summary: Dict[str, dict] = {}
        for record in records:
            entry = summary.setdefault(
                record["workload"],
                {"correct": True, "attempted": 0, "failed": 0, "metrics": {}},
            )
            entry["correct"] = entry["correct"] and record["correct"]
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            entry["metrics"].update(metrics_of(record))
        print(json.dumps({"comparable": comparable, "workloads": summary}))
    return 0
