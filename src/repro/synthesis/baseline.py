"""Baseline enumerative synthesizer used for ablation studies.

The paper motivates its two technical ingredients — the DFA-based column
learner and the ILP + Quine–McCluskey predicate learner — as the reason Mitra
is fast.  To quantify that on our substrate, this module provides a naive
baseline that solves the same problem by brute force:

* column extractors are enumerated bottom-up by increasing length (no DFA and
  therefore no sharing of intermediate node sets across examples);
* the row filter is learned by enumerating conjunctions of atomic predicates by
  increasing size (no minimum-cover ILP, no logic minimization), taking the
  first conjunction that separates the positive and negative tuples.

The baseline is deliberately limited to conjunctive filters: that is what a
straightforward enumerative implementation does, and the ablation benchmark
reports both its slower synthesis times and the cases where it fails on tasks
that need disjunctive filters.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterator, List, Optional

from ..dsl.ast import ColumnExtractor, Children, Descendants, PChildren, Predicate, Program, TableExtractor, True_, Var, conjoin
from ..dsl.semantics import compare_values, eval_column_on_tree, eval_predicate, Op
from ..hdt.tree import HDT
from .config import DEFAULT_CONFIG, SynthesisConfig
from .predicate_learner import check_program, classify_tuples
from .predicate_universe import construct_predicate_universe
from .synthesizer import ExamplePair, SynthesisResult, SynthesisTask


class _BudgetExhausted(Exception):
    """The task ran past ``SynthesisConfig.timeout_seconds``."""


def _check(deadline: float) -> None:
    if time.perf_counter() > deadline:
        raise _BudgetExhausted


def iter_column_extractors(
    tree: HDT, max_length: int, deadline: float = math.inf
) -> Iterator[ColumnExtractor]:
    """Yield every column extractor of length ≤ max_length over the tree's tags.

    Extractors come by increasing length, and within a length in the order of
    their bases.  Each level is regenerated from the one below instead of
    being stored, so memory stays proportional to ``max_length`` although the
    pool grows exponentially with it (millions of extractors at the default
    length).  Raises :class:`_BudgetExhausted` once ``deadline`` has passed.
    """
    tags = tree.tags()
    positions = {tag: tree.positions_for_tag(tag) for tag in tags}

    def level(length: int) -> Iterator[ColumnExtractor]:
        if length == 0:
            yield Var()
            return
        for base in level(length - 1):
            _check(deadline)
            for tag in tags:
                yield Children(base, tag)
                yield Descendants(base, tag)
                for pos in positions[tag]:
                    yield PChildren(base, tag, pos)

    for length in range(max_length + 1):
        yield from level(length)


def enumerate_column_extractors(
    tree: HDT, max_length: int
) -> List[ColumnExtractor]:
    """Every column extractor of length ≤ max_length over the tree's tags."""
    return list(iter_column_extractors(tree, max_length))


class BaselineSynthesizer:
    """Brute-force enumerative synthesizer (ablation baseline)."""

    def __init__(self, config: SynthesisConfig = DEFAULT_CONFIG, *, max_conjunction: int = 3) -> None:
        self.config = config
        self.max_conjunction = max_conjunction

    def synthesize(self, task: SynthesisTask) -> SynthesisResult:
        start = time.perf_counter()
        config = self.config
        deadline = start + config.timeout_seconds
        if task.arity == 0:
            return SynthesisResult(None, False, 0.0, message="empty output example")

        column_candidates: List[List[ColumnExtractor]] = []
        tried = 0
        try:
            # Enumerate candidate extractors per column by filtering the
            # brute-force pool against the coverage requirement on every example.
            first = task.examples[0]
            for j in range(task.arity):
                candidates: List[ColumnExtractor] = []
                for extractor in iter_column_extractors(
                    first.tree, config.max_column_program_length, deadline
                ):
                    _check(deadline)
                    if all(
                        self._covers(extractor, ex.tree, [row[j] for row in ex.rows])
                        for ex in task.examples
                    ):
                        candidates.append(extractor)
                        if len(candidates) >= config.max_column_programs:
                            break
                if not candidates:
                    return SynthesisResult(
                        None,
                        False,
                        time.perf_counter() - start,
                        message=f"no column extractor found for column {j}",
                    )
                candidates.sort(key=lambda e: (e.size(), repr(e)))
                column_candidates.append(candidates)

            predicate_examples = [(ex.tree, ex.rows) for ex in task.examples]
            combos = list(itertools.product(*column_candidates))
            combos.sort(key=lambda combo: sum(c.size() for c in combo))
            for combo in combos[: config.max_table_extractors]:
                _check(deadline)
                tried += 1
                table_extractor = TableExtractor(tuple(combo))
                predicate = self._learn_conjunction(
                    predicate_examples, table_extractor, deadline
                )
                if predicate is None:
                    continue
                program = Program(table_extractor, predicate)
                if check_program(program, predicate_examples):
                    return SynthesisResult(
                        program,
                        True,
                        time.perf_counter() - start,
                        candidates_tried=tried,
                        column_candidates=[len(c) for c in column_candidates],
                    )
            message = "baseline found no conjunctive filter"
        except _BudgetExhausted:
            message = "budget exhausted"
        return SynthesisResult(
            None,
            False,
            time.perf_counter() - start,
            candidates_tried=tried,
            column_candidates=[len(c) for c in column_candidates],
            message=message,
        )

    # ------------------------------------------------------------- internals
    def _covers(self, extractor: ColumnExtractor, tree: HDT, values) -> bool:
        extracted = [n.data for n in eval_column_on_tree(extractor, tree)]
        return all(
            any(compare_values(v, Op.EQ, d) for d in extracted) for v in values
        )

    def _learn_conjunction(
        self, examples, table_extractor: TableExtractor, deadline: float = math.inf
    ) -> Optional[Predicate]:
        """Enumerate conjunctions of atomic predicates by increasing size."""
        try:
            positives, negatives = classify_tuples(
                examples, table_extractor, max_rows=self.config.max_intermediate_rows
            )
        except MemoryError:
            return None
        if not negatives:
            return True_()
        if not positives:
            return None
        universe = construct_predicate_universe(
            [tree for tree, _ in examples], table_extractor.columns, self.config
        )
        # Keep only predicates that hold on every positive tuple: a conjunction
        # containing any other predicate would reject a positive example.
        keep = []
        for p in universe:
            _check(deadline)
            if all(eval_predicate(p, t) for t in positives):
                keep.append(p)
        for size in range(1, self.max_conjunction + 1):
            for subset in itertools.combinations(keep, size):
                _check(deadline)
                formula = conjoin(subset)
                if not any(eval_predicate(formula, t) for t in negatives):
                    return formula
        return None
