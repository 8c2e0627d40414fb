"""Lazy product automata used by the column-extractor learner."""

from .dfa import LazyComponent, enumerate_product_words

__all__ = [
    "LazyComponent",
    "enumerate_product_words",
]
