"""The measurement protocol every workload follows.

* every timed repetition gets a freshly built input and a ``gc.collect()``
  before the clock starts (users pay the cold cost on every real run, and a
  pending generation-2 collection is what made single runs bimodal);
* a workload is a sequence of *rounds*; a round builds its inputs (set-up,
  timed separately) and runs every cell of the workload once or more;
* another round starts only while it still fits into ``--seconds``;
* reported values are medians over the repetitions of all rounds;
* an *operation* is the unit the oracle judges — a task, or a (run, table)
  pair — and ``failed`` counts the operations whose output the oracle
  rejected.  An oracle that cannot be evaluated raises :class:`OracleError`
  and the command exits non-zero.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .tracing import Tracer

T = TypeVar("T")

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: All scratch files (documents, databases, spills, worker sockets) live
#: here, inside the checkout; ``TMPDIR`` is pointed at it for the library's
#: own ``tempfile`` use (default spill directories, worker scratch).
TMP_ROOT = os.path.join(REPO_ROOT, ".bench_tmp")


class OracleError(Exception):
    """The oracle itself could not be evaluated (not: it rejected an output)."""


@dataclass
class RunContext:
    """What one workload run is given."""

    seed: int
    seconds: float
    quick: bool
    tmp: str
    tracer: Optional[Tracer] = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def rounds(self) -> "Rounds":
        """As many rounds as fit into ``seconds``; the traced pass keeps a
        single fused round as the reference its staged round is compared
        with."""
        return Rounds(self.seconds, maximum=1 if self.traced or self.quick else 9)


@dataclass
class Operations:
    """Attempted/failed bookkeeping with the reasons kept for the report."""

    attempted: int = 0
    failed: int = 0
    known_deviations: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, *, known: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if known:
            self.known_deviations += 1
            return
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(what)


@dataclass
class WorkloadResult:
    """What a workload hands back; the runner adds set-up, RSS and padding."""

    cells: Tuple[float, float, float]
    wall_s: float
    ops: float
    setup_units: List[float]
    operations: Operations
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


def timed(call: Callable[[], T]) -> Tuple[float, T]:
    """One timed repetition: collect first, then clock the call."""
    gc.collect()
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def untimed(sink: List[float], call: Callable[[], T]) -> T:
    """A set-up step: its duration goes to the round's set-up, not the cell."""
    start = time.perf_counter()
    result = call()
    sink.append(time.perf_counter() - start)
    return result


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (no interpolation: it is one measured value)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * share)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Rounds:
    """Iterate rounds while the next one still fits into the time budget
    (the first round always runs)."""

    def __init__(self, seconds: float, *, maximum: int = 9) -> None:
        self.seconds = seconds
        self.maximum = maximum
        self.done = 0
        self._spent = 0.0
        self._last = 0.0

    def __iter__(self) -> Iterator[int]:
        while self.done < self.maximum and (
            self.done == 0 or self._spent + self._last <= self.seconds
        ):
            yield self.done
            self.done += 1

    def spent(self, seconds: float) -> None:
        """Report the timed seconds of the round that just ended."""
        self._last = seconds
        self._spent += seconds


def peak_rss_mb() -> float:
    """This process's high-water resident set, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scratch_dir(parent: str, prefix: str) -> Iterator[str]:
    """A fresh directory under ``parent``, removed whatever happens."""
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def short_path(path: str) -> str:
    """The shorter of the absolute and the cwd-relative spelling — Unix
    socket addresses are capped at ~100 bytes and checkouts can sit deep."""
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path
