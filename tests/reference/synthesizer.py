"""Run :class:`~repro.synthesis.synthesizer.Synthesizer` on the seed algorithms.

:func:`use_reference_engine` patches its four engine steps with the eager
column learner, the tuple-by-tuple predicate learner, a value scan for the
over-approximation and the scan-based ``check_program``.  None of them touches
the ``SynthesisContext``, so a patched run is both the seed engine and the
uncached one: every cache counter stays at zero.
"""

from __future__ import annotations

from repro.dsl.ast import Op
from repro.dsl.semantics import compare_values, eval_column_on_tree
from repro.synthesis import synthesizer as synthesizer_module
from repro.synthesis.predicate_learner import check_program

from .column_learner import learn_column_extractors_eager
from .predicate_learner import _learn_predicate_seed


def _learn_column(self, examples, config):
    return learn_column_extractors_eager(examples, config)


def _learn_predicate(examples, table_extractor, config, *, stats=None, context=None):
    return _learn_predicate_seed(examples, table_extractor, config, stats=stats)


def _overapproximates(self, table_extractor, examples):
    for example in examples:
        for j, extractor in enumerate(table_extractor.columns):
            values = [row[j] for row in example.rows]
            extracted = [n.data for n in eval_column_on_tree(extractor, example.tree)]
            for value in values:
                if not any(compare_values(value, Op.EQ, d) for d in extracted):
                    return False
    return True


def _check_program(self, program, examples):
    return check_program(program, examples)


def use_reference_engine(monkeypatch) -> None:
    """Make every ``Synthesizer`` of this test run the seed algorithms."""
    cls = synthesizer_module.Synthesizer
    monkeypatch.setattr(cls, "_learn_column", _learn_column)
    monkeypatch.setattr(cls, "_overapproximates", _overapproximates)
    monkeypatch.setattr(cls, "_check_program", _check_program)
    monkeypatch.setattr(synthesizer_module, "learn_predicate", _learn_predicate)
