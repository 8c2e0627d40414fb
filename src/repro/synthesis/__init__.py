"""The synthesis core: column learning, predicate learning, top-level search."""

from .baseline import BaselineSynthesizer, enumerate_column_extractors
from .column_learner import (
    ColumnLearningError,
    extractor_to_word,
    learn_column_extractors,
    word_to_extractor,
)
from .config import DEFAULT_CONFIG, SynthesisConfig
from .context import SynthesisContext
from .predicate_learner import (
    PredicateLearningStats,
    check_program,
    classify_tuples_fast,
    learn_predicate,
    row_in_table,
    rows_equal,
)
from .predicate_matrix import build_predicate_masks, distinguishing_pairs_mask
from .predicate_universe import construct_predicate_universe, valid_node_extractors
from .qm import minimize_bits, prime_implicants_bits
from .serialize import (
    config_fingerprint,
    config_from_json,
    config_to_json,
    context_dumps,
    context_loads,
    deserialize_context,
    serialize_context,
)
from .set_cover import (
    CoverError,
    branch_and_bound_cover_bits,
    greedy_cover_bits,
    ilp_cover_bits,
    minimum_cover_bits,
)
from .synthesizer import (
    ExamplePair,
    SynthesisError,
    SynthesisResult,
    SynthesisTask,
    Synthesizer,
    synthesize,
)

__all__ = [
    "BaselineSynthesizer",
    "enumerate_column_extractors",
    "ColumnLearningError",
    "extractor_to_word",
    "learn_column_extractors",
    "word_to_extractor",
    "DEFAULT_CONFIG",
    "SynthesisConfig",
    "SynthesisContext",
    "PredicateLearningStats",
    "check_program",
    "classify_tuples_fast",
    "learn_predicate",
    "row_in_table",
    "rows_equal",
    "build_predicate_masks",
    "distinguishing_pairs_mask",
    "construct_predicate_universe",
    "valid_node_extractors",
    "config_fingerprint",
    "config_from_json",
    "config_to_json",
    "context_dumps",
    "context_loads",
    "deserialize_context",
    "serialize_context",
    "minimize_bits",
    "prime_implicants_bits",
    "CoverError",
    "branch_and_bound_cover_bits",
    "greedy_cover_bits",
    "ilp_cover_bits",
    "minimum_cover_bits",
    "ExamplePair",
    "SynthesisError",
    "SynthesisResult",
    "SynthesisTask",
    "Synthesizer",
    "synthesize",
]
