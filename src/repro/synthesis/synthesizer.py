"""Top-level synthesis algorithm (Algorithm 1 of the paper).

:class:`Synthesizer` learns a DSL program ``λτ. filter(π1 × ... × πk, λt. φ)``
from input-output examples ``{T1 → R1, ..., Tm → Rm}``:

1. for every output column j, learn the set Πj of candidate column extractors
   with the DFA-based learner (Section 5.1);
2. enumerate candidate table extractors ψ ∈ Π1 × ... × Πk in order of
   increasing extractor cost;
3. for each ψ, try to learn a filtering predicate φ (Section 5.2); every
   success yields a candidate program;
4. return the program minimizing the simplicity cost θ (Occam's razor).

The module also defines :class:`SynthesisTask` (an input-output specification)
and :class:`SynthesisResult` (the learned program plus diagnostics), which the
benchmark suite and evaluation harness build upon.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.ast import Predicate, Program, TableExtractor
from ..dsl.cost import program_cost
from ..dsl.pretty import pretty_program
from ..dsl.semantics import run_program
from ..hdt.node import Scalar
from ..hdt.tree import HDT
from .column_learner import ColumnLearningError, learn_column_extractors
from .config import DEFAULT_CONFIG, SynthesisConfig
from .context import SynthesisContext, _is_nan
from .predicate_learner import PredicateLearningStats, learn_predicate

Row = Tuple[Scalar, ...]


class SynthesisError(Exception):
    """Raised when no DSL program consistent with the examples can be found."""


@dataclass
class ExamplePair:
    """One input-output example: a document (HDT) and the desired table rows."""

    tree: HDT
    rows: List[Row]

    @property
    def arity(self) -> int:
        return len(self.rows[0]) if self.rows else 0


@dataclass
class SynthesisTask:
    """A complete synthesis problem: one or more input-output examples."""

    examples: List[ExamplePair]
    name: str = "task"

    def __post_init__(self) -> None:
        if not self.examples:
            raise ValueError("a synthesis task needs at least one example")
        arities = {ex.arity for ex in self.examples if ex.rows}
        if len(arities) > 1:
            raise ValueError(f"output tables have inconsistent arities: {arities}")

    @property
    def arity(self) -> int:
        for example in self.examples:
            if example.rows:
                return example.arity
        return 0


@dataclass
class SynthesisStats:
    """Aggregated per-task diagnostics across every candidate ψ tried.

    ``universe_sizes`` has one entry per candidate (the ISSUE-8 fix: the
    universe size used to be visible only for the winning candidate), the
    ``*_seconds`` fields are the summed per-phase wall-clock of predicate
    learning, and ``cache_counters`` holds the context cache hit/miss deltas
    attributable to this task (universe/χi/bitmatrix, see
    :attr:`~repro.synthesis.context.SynthesisContext.COUNTERS`).
    """

    universe_sizes: List[int] = field(default_factory=list)
    universe_seconds: float = 0.0
    bitmatrix_seconds: float = 0.0
    cover_seconds: float = 0.0
    cache_counters: Dict[str, int] = field(default_factory=dict)

    def add(self, stats: PredicateLearningStats) -> None:
        self.universe_sizes.append(stats.universe_size)
        self.universe_seconds += stats.universe_seconds
        self.bitmatrix_seconds += stats.bitmatrix_seconds
        self.cover_seconds += stats.cover_seconds

    def describe(self) -> str:
        """One line per concern, used by ``repro learn --verbose``."""
        sizes = ", ".join(str(size) for size in self.universe_sizes) or "-"
        lines = [
            f"universe sizes per candidate: {sizes}",
            "phase seconds: universe {:.3f}, bitmatrix {:.3f}, cover {:.3f}".format(
                self.universe_seconds, self.bitmatrix_seconds, self.cover_seconds
            ),
        ]
        counters = self.cache_counters
        if any(counters.values()):
            lines.append(
                "caches: universe {universe_hits}h/{universe_misses}m, "
                "chi {chi_hits}h/{chi_misses}m, "
                "bitmatrix {mask_hits}h/{mask_misses}m".format(
                    **{name: counters.get(name, 0) for name in SynthesisContext.COUNTERS}
                )
            )
        return "\n".join(lines)


@dataclass
class SynthesisResult:
    """The outcome of a synthesis run, including diagnostics for the evaluation."""

    program: Optional[Program]
    success: bool
    synthesis_time: float
    candidates_tried: int = 0
    column_candidates: List[int] = field(default_factory=list)
    predicate_stats: Optional[PredicateLearningStats] = None
    stats: Optional[SynthesisStats] = None
    message: str = ""

    @property
    def num_atomic_predicates(self) -> int:
        return self.program.num_atomic_predicates() if self.program else 0

    def describe(self) -> str:
        if not self.success or self.program is None:
            return f"synthesis failed: {self.message}"
        return pretty_program(self.program)


def resolve_jobs(jobs: int) -> int:
    """The worker count for a ``jobs`` option: ``0`` means the CPU count."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (got {jobs})")
    return jobs or (os.cpu_count() or 1)


#: Per-process state of a synthesis pool worker: its own unpickled example
#: trees and one long-lived synthesizer, whose context the worker builds
#: from those trees.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(trees_bytes: bytes, config: SynthesisConfig) -> None:
    """Initialize one pool worker.

    The worker's synthesizer starts from an empty context and fills it from
    its own trees; what it learns is shared by every task the worker runs
    and is not shipped back: the payloads would dwarf the results.
    """
    _WORKER_STATE["trees"] = pickle.loads(trees_bytes)
    _WORKER_STATE["synthesizer"] = Synthesizer(config)


def synthesis_pool(
    trees: Sequence[HDT], config: SynthesisConfig, workers: int
) -> ProcessPoolExecutor:
    """A process pool whose workers each hold ``trees`` and one synthesizer;
    entry points read them back with :func:`worker_state`.

    Both ``jobs`` paths use it: the candidate-ψ stage of one task
    (:class:`Synthesizer`) and the per-table stage of a migration
    (:class:`~repro.migration.engine.MigrationEngine`).
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(pickle.dumps(list(trees)), config),
    )


def worker_state() -> Tuple["Synthesizer", List[HDT]]:
    """The synthesizer and trees of the current pool worker."""
    return _WORKER_STATE["synthesizer"], _WORKER_STATE["trees"]  # type: ignore[return-value]


def _evaluate_candidate_worker(columns, rows_list):
    """Pool entry point: evaluate one candidate ψ, return its verdict."""
    synthesizer, trees = worker_state()
    examples = list(zip(trees, rows_list))
    return synthesizer._evaluate_candidate(TableExtractor(tuple(columns)), examples)


class Synthesizer:
    """Programming-by-example synthesizer for tree-to-table transformations.

    A synthesizer owns a :class:`~repro.synthesis.context.SynthesisContext`
    shared across all its :meth:`synthesize` calls: the tables of a
    multi-table migration reuse per-tree indexes, learned column-extractor
    lists, χi sets, predicate universes and node-extractor target memos.  Pass an explicit ``context`` to share caches between
    synthesizers with the same configuration.

    ``jobs`` parallelizes the candidate-ψ stage *within* one task: candidate
    table extractors are shipped to a process pool in enumeration order and
    evaluated speculatively, while the parent replays the serial control
    flow — strict-improvement tracking, stop conditions, θ-cost winner
    selection — over the results in submission order.  Because
    predicate learning is deterministic per candidate and the replay makes
    the same decisions on the same inputs, the learned program is
    byte-identical to a serial run; parallelism only changes how fast the
    answer arrives (plus up to one speculation window of wasted work after a
    stop condition fires).  ``jobs=0`` uses the CPU count.
    """

    def __init__(
        self,
        config: SynthesisConfig = DEFAULT_CONFIG,
        context: Optional[SynthesisContext] = None,
        *,
        jobs: int = 1,
    ) -> None:
        self.config = config
        self.workers = resolve_jobs(jobs)
        self.context = context if context is not None else SynthesisContext()
        self.context.bind_config(config)

    # ------------------------------------------------------------------ API
    def synthesize(self, task: SynthesisTask) -> SynthesisResult:
        """Learn the θ-minimal DSL program consistent with the task's examples."""
        start = time.perf_counter()
        config = self.config
        arity = task.arity
        if arity == 0:
            return SynthesisResult(
                program=None,
                success=False,
                synthesis_time=time.perf_counter() - start,
                message="output example has no rows; cannot infer the table arity",
            )

        # Phase 1: column extractor candidates (Algorithm 2).  Identical
        # columns — ubiquitous across the tables of one migration (keys,
        # names, positions) — are learned once via the shared context cache.
        column_candidates: List[List] = []
        try:
            for j in range(arity):
                examples = [
                    (ex.tree, [row[j] for row in ex.rows]) for ex in task.examples
                ]
                column_candidates.append(self._learn_column(examples, config))
        except ColumnLearningError as error:
            return SynthesisResult(
                program=None,
                success=False,
                synthesis_time=time.perf_counter() - start,
                column_candidates=[len(c) for c in column_candidates],
                message=str(error),
            )

        # Phase 2: enumerate table extractors by increasing total size, learn a
        # predicate for each, and keep the θ-minimal program.  The enumeration
        # (candidate stream), the per-candidate evaluation, and the control
        # flow (replay loop) are separated so the serial and parallel paths
        # share the decision logic verbatim — the parallel path merely
        # evaluates candidates speculatively on a process pool and feeds the
        # results to the identical replay in submission order.
        best_program: Optional[Program] = None
        best_cost = None
        best_stats: Optional[PredicateLearningStats] = None
        candidates_tried = 0
        since_improvement = 0
        message = "no candidate table extractor admits a filtering predicate"
        aggregate = SynthesisStats()
        counters_before = dict(self.context.counters)

        predicate_examples = [(ex.tree, ex.rows) for ex in task.examples]
        stream_state = {"timed_out": False}
        stream = self._candidate_stream(column_candidates, task, start, stream_state)

        if self.workers > 1:
            results = self._parallel_results(stream, predicate_examples)
        else:
            results = (
                (te, self._evaluate_candidate(te, predicate_examples)) for te in stream
            )
        try:
            while True:
                if time.perf_counter() - start > config.timeout_seconds:
                    message = "synthesis timed out"
                    break
                if (
                    best_program is not None
                    and since_improvement >= config.max_candidates_without_improvement
                ):
                    break
                item = next(results, None)
                if item is None:
                    if stream_state["timed_out"]:
                        message = "synthesis timed out"
                    break
                table_extractor, (status, predicate, stats) = item
                candidates_tried += 1
                since_improvement += 1
                aggregate.add(stats)
                if status != "ok":
                    continue
                program = Program(table_extractor, predicate)
                cost = program_cost(program)
                if best_cost is None or cost < best_cost:
                    best_program, best_cost, best_stats = program, cost, stats
                    since_improvement = 0
                if config.stop_after_first_solution:
                    break
                if best_program is not None and best_program.num_atomic_predicates() == 0:
                    # No program can beat a filter-free program under θ.
                    break
        finally:
            results.close()
            stream.close()

        counters_after = self.context.counters
        aggregate.cache_counters = {
            name: counters_after.get(name, 0) - counters_before.get(name, 0)
            for name in counters_after
        }

        elapsed = time.perf_counter() - start
        if best_program is None:
            return SynthesisResult(
                program=None,
                success=False,
                synthesis_time=elapsed,
                candidates_tried=candidates_tried,
                column_candidates=[len(c) for c in column_candidates],
                stats=aggregate,
                message=message,
            )
        return SynthesisResult(
            program=best_program,
            success=True,
            synthesis_time=elapsed,
            candidates_tried=candidates_tried,
            column_candidates=[len(c) for c in column_candidates],
            predicate_stats=best_stats,
            stats=aggregate,
        )

    # ------------------------------------------------------------- internals
    def _learn_column(self, examples, config: SynthesisConfig) -> List:
        """Learn one column's extractor candidates, cached across tasks."""
        context = self.context
        key = (
            context.trees_key(tree for tree, _ in examples),
            tuple(tuple(values) for _, values in examples),
        )
        hit = context.column_results.get(key)
        if hit is None:
            hit = learn_column_extractors(examples, config, context)
            context.column_results[key] = hit
        return hit

    def _candidate_stream(
        self, column_candidates, task: SynthesisTask, start: float, state: Dict
    ):
        """Yield candidate ψ passing the over-approximation check, in order.

        Applies the enumeration-side bounds of the serial loop: stops at
        ``max_table_extractors`` produced candidates and when the wall-clock
        budget runs out while scanning (``state["timed_out"]`` reports which).
        The cost-based stop conditions live in the replay loop, which pulls
        from this stream lazily (serial) or speculatively (parallel).
        """
        config = self.config
        produced = 0
        for combo in self._enumerate_combinations(column_candidates):
            if time.perf_counter() - start > config.timeout_seconds:
                state["timed_out"] = True
                return
            if produced >= config.max_table_extractors:
                return
            table_extractor = TableExtractor(tuple(combo))
            if not self._overapproximates(table_extractor, task.examples):
                continue
            produced += 1
            yield table_extractor

    def _evaluate_candidate(
        self, table_extractor: TableExtractor, predicate_examples
    ) -> Tuple[str, Optional[Predicate], PredicateLearningStats]:
        """Learn and verify one candidate's predicate.

        Returns ``(status, predicate, stats)`` with status ``"ok"`` (learned
        and verified), ``"none"`` (no separating predicate), ``"reject"``
        (verification failed) or ``"memory"`` (intermediate table too large)
        — the exact set of outcomes the serial loop used to branch on inline.
        Deterministic given (examples, candidate, config), which is what the
        parallel stage's byte-identity argument rests on.
        """
        stats = PredicateLearningStats()
        try:
            predicate = learn_predicate(
                predicate_examples,
                table_extractor,
                self.config,
                stats=stats,
                context=self.context,
            )
        except MemoryError:
            return ("memory", None, stats)
        if predicate is None:
            return ("none", None, stats)
        program = Program(table_extractor, predicate)
        if not self._check_program(program, predicate_examples):
            return ("reject", None, stats)
        return ("ok", predicate, stats)

    def _parallel_results(self, stream, predicate_examples):
        """Evaluate streamed candidates speculatively on a process pool.

        Futures are submitted in enumeration order and yielded in the same
        order, keeping a window of ``2 × workers`` in flight; the replay loop
        consuming this generator therefore sees exactly the sequence the
        serial path would have produced.  Each worker builds its own context
        (:func:`synthesis_pool`); work left in the window when a stop
        condition fires is cancelled on close.
        """
        workers = self.workers
        trees = [tree for tree, _ in predicate_examples]
        rows_list = [list(rows) for _, rows in predicate_examples]
        window = max(2 * workers, workers + 1)
        pool = synthesis_pool(trees, self.config, workers)
        pending = deque()
        try:
            exhausted = False
            while True:
                while not exhausted and len(pending) < window:
                    table_extractor = next(stream, None)
                    if table_extractor is None:
                        exhausted = True
                        break
                    pending.append(
                        (
                            table_extractor,
                            pool.submit(
                                _evaluate_candidate_worker,
                                table_extractor.columns,
                                rows_list,
                            ),
                        )
                    )
                if not pending:
                    return
                table_extractor, future = pending.popleft()
                yield table_extractor, future.result()
        finally:
            for _, future in pending:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)

    def _enumerate_combinations(self, column_candidates: Sequence[Sequence]):
        """Lazily yield combinations of per-column extractors, cheapest first.

        The per-column candidate lists are already sorted by size, so the
        cheapest combination is the vector of first candidates.  A best-first
        search over index vectors (expanding one coordinate at a time) yields
        combinations in non-decreasing total size without materializing the
        full cartesian product, which matters when the product is huge
        (e.g. 24^5 for five columns).
        """
        import heapq

        sizes = [[c.size() for c in candidates] for candidates in column_candidates]
        start = tuple(0 for _ in column_candidates)
        initial_cost = sum(s[0] for s in sizes)
        heap = [(initial_cost, start)]
        seen = {start}
        while heap:
            cost, indices = heapq.heappop(heap)
            yield tuple(
                column_candidates[col][idx] for col, idx in enumerate(indices)
            )
            for col in range(len(indices)):
                nxt = indices[col] + 1
                if nxt >= len(column_candidates[col]):
                    continue
                successor = indices[:col] + (nxt,) + indices[col + 1 :]
                if successor in seen:
                    continue
                seen.add(successor)
                successor_cost = cost - sizes[col][indices[col]] + sizes[col][nxt]
                heapq.heappush(heap, (successor_cost, successor))

    def _overapproximates(
        self, table_extractor: TableExtractor, examples: Sequence[ExamplePair]
    ) -> bool:
        """Check R ⊆ [[ψ]]T for every example — a cheap column-wise test.

        Every value of output column j must be producible by column extractor
        πj; otherwise no filtering predicate can recover the missing rows.
        Answered from cached per-extractor value sets (value-aware membership,
        NaN never matches), which agrees with a value-by-value scan.
        """
        context = self.context
        for example in examples:
            for j, extractor in enumerate(table_extractor.columns):
                extracted = context.column_data_values(extractor, example.tree)
                for row in example.rows:
                    value = row[j]
                    if _is_nan(value) or value not in extracted:
                        return False
        return True

    def _check_program(
        self, program: Program, examples: Sequence[Tuple[HDT, Sequence[Row]]]
    ) -> bool:
        """Final verification that the program reproduces every output table.

        Uses hash-based row membership, equivalent to the value-aware scan of
        :func:`~repro.synthesis.predicate_learner.check_program`, and the
        shared column-evaluation cache.
        """
        context = self.context
        for tree, expected_rows in examples:
            produced = run_program(
                program, tree, cache=context.facts(tree).eval_cache
            )
            produced_set = set(produced)
            expected_set = set(map(tuple, expected_rows))
            # A row containing NaN can never be matched under compare_values
            # (NaN equals nothing), so its mere presence on either side fails
            # the check — guarding against set membership's object-identity
            # shortcut treating a shared NaN object as equal.
            if any(
                any(_is_nan(value) for value in row)
                for rows in (expected_set, produced_set)
                for row in rows
            ):
                return False
            if any(row not in produced_set for row in expected_set):
                return False
            if any(row not in expected_set for row in produced_set):
                return False
        return True


def synthesize(
    examples: Sequence[Tuple[HDT, Sequence[Row]]],
    config: SynthesisConfig = DEFAULT_CONFIG,
    *,
    name: str = "task",
) -> SynthesisResult:
    """Convenience wrapper: synthesize from ``(tree, rows)`` pairs.

    Examples
    --------
    >>> from repro.hdt import build_tree
    >>> tree = build_tree({"user": [{"name": "Ann"}, {"name": "Bob"}]})
    >>> result = synthesize([(tree, [("Ann",), ("Bob",)])])
    >>> result.success
    True
    >>> result.describe()
    'λτ. filter((λs.descendants(s, name)){root(τ)}, λt. true)'
    """
    task = SynthesisTask(
        examples=[ExamplePair(tree, [tuple(r) for r in rows]) for tree, rows in examples],
        name=name,
    )
    return Synthesizer(config).synthesize(task)
