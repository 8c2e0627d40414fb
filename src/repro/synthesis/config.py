"""Configuration knobs for the synthesis algorithm.

The paper's algorithm explores an in-principle unbounded space (column
extractors of arbitrary length, node extractors of arbitrary depth).  In
practice Mitra bounds that exploration; this dataclass collects every bound in
one place so that the evaluation harness and the ablation benchmarks can vary
them explicitly.

Every field is a search bound or a solver choice; the engine itself has no
switches (the seed algorithms are test oracles in ``tests/reference/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from ..dsl.ast import Op


@dataclass(frozen=True)
class SynthesisConfig:
    """Bounds and strategy switches for :class:`~repro.synthesis.synthesizer.Synthesizer`."""

    # --- column extractor learning (Section 5.1) ---------------------------
    max_column_program_length: int = 6
    """Maximum number of operators in a column extractor (DFA word length)."""

    max_column_programs: int = 24
    """Maximum number of column extractors enumerated per column."""

    max_dfa_states: int = 4000
    """Safety cap on the number of DFA states built per example."""

    # --- table extractor enumeration ---------------------------------------
    max_table_extractors: int = 48
    """Maximum number of candidate table extractors (cartesian combinations)."""

    max_candidates_without_improvement: int = 12
    """Stop exploring further table extractors after this many consecutive
    candidates fail to improve on the best program found so far."""

    max_intermediate_rows: int = 200_000
    """Skip candidate table extractors whose intermediate table would exceed this."""

    # --- predicate learning (Section 5.2) -----------------------------------
    max_node_extractor_depth: int = 3
    """Maximum nesting depth of parent/child chains in node extractors."""

    max_node_extractors_per_column: int = 40
    """Cap on the number of node extractors considered per column."""

    constant_ops: FrozenSet[Op] = frozenset({Op.EQ, Op.LT, Op.GT})
    """Operators used when comparing extracted data against constants."""

    node_pair_ops: FrozenSet[Op] = frozenset({Op.EQ})
    """Operators used when comparing two extracted nodes."""

    max_predicate_universe: int = 3000
    """Hard cap on the size of the atomic-predicate universe."""

    max_constants: int = 64
    """Cap on the number of distinct constants drawn from the input documents."""

    # --- solvers -------------------------------------------------------------
    cover_strategy: str = "auto"
    """Minimum-cover strategy: 'auto', 'ilp', 'branch_and_bound' or 'greedy'."""

    exact_cover_limit: int = 26
    """Use exact branch-and-bound only when at most this many candidate predicates
    survive pre-filtering (otherwise fall back to ILP/greedy)."""

    # --- search control -------------------------------------------------------
    stop_after_first_solution: bool = False
    """When true, return the first consistent program instead of the θ-minimal one."""

    timeout_seconds: float = 60.0
    """Soft wall-clock budget for a single synthesis task."""

    # ------------------------------------------------------------- presets
    @staticmethod
    def for_migration() -> "SynthesisConfig":
        """Preset used by the whole-database migration engine (Table 2).

        The Table 2 schemas never need constant comparisons in their filters —
        every hidden link is structural — so constant predicates are disabled,
        which both removes the risk of overfitting to the tiny per-table
        examples and shrinks the predicate universe considerably.  The search
        bounds are tightened accordingly.
        """
        return SynthesisConfig(
            constant_ops=frozenset(),
            max_node_extractor_depth=2,
            max_node_extractors_per_column=24,
            max_table_extractors=24,
            max_candidates_without_improvement=3,
            max_column_programs=16,
            timeout_seconds=45.0,
        )

    @staticmethod
    def fast() -> "SynthesisConfig":
        """A tightened preset for unit tests and quick interactive use."""
        return SynthesisConfig(
            max_column_programs=12,
            max_table_extractors=16,
            max_candidates_without_improvement=6,
            max_node_extractors_per_column=24,
            timeout_seconds=20.0,
        )


DEFAULT_CONFIG = SynthesisConfig()
