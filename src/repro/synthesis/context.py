"""Shared caches for the synthesis engine.

One :class:`SynthesisContext` accompanies a :class:`~repro.synthesis.synthesizer.Synthesizer`
for its whole lifetime and is shared across the output columns of a task and
across the tables of a multi-table migration.  It memoizes everything the
learner would otherwise recompute per column / per candidate table extractor:

* per-tree facts — the instantiated operator alphabet, the ``value → node
  uids`` equality classes used for DFA acceptance checks, the document
  constants, and a column-extractor evaluation cache (all routed through the
  tree's :class:`~repro.hdt.tree.TagIndex`);
* node-extractor targets — ``(ϕ, node) → target`` lookups shared by predicate
  universe construction, bitmatrix evaluation and signature deduplication;
* learned column-extractor lists keyed by ``(trees, column values)`` — the
  tables of one migration share many columns (keys, names, positions), so a
  repeated column is learned once;
* valid node-extractor sets (χi) and whole predicate universes keyed by the
  candidate columns' **node-list signatures** (the per-example uid tuples the
  extractor lands on) — syntactically different extractors that extract the
  same nodes share the same χi and universe, which is what makes predicate
  learning incremental across the candidate ψ of one table;
* per-predicate satisfying-node sets keyed by ``(predicate parts, column
  signature)`` — when consecutive candidates differ in one column, only the
  predicates touching that column are re-evaluated; the rest recompose their
  tuple bitmasks from the cached node sets
  (:func:`~repro.synthesis.bitset.compose_mask`).

Caches key trees by ``id``; the context keeps a strong reference to every
tree it has seen so ids cannot be recycled.  A context must not be shared
between synthesizers with different configurations (the cached artifacts
depend on the search bounds): :meth:`bind_config` enforces that.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dsl.ast import ColumnExtractor, NodeExtractor, Predicate
from ..dsl.semantics import eval_column_on_tree, eval_node_extractor
from ..hdt.node import Node, Scalar
from ..hdt.tree import HDT


def _is_nan(value: Scalar) -> bool:
    return isinstance(value, float) and value != value


class _TreeFacts:
    """Per-tree derived data, computed once and reused across the search."""

    def __init__(self, tree: HDT) -> None:
        self.tree = tree
        self.eval_cache: Dict = {}
        self.automaton = None
        """The tree's shared :class:`~repro.synthesis.column_learner.TreeAutomaton`,
        attached by the lazy column learner on first use."""
        self._alphabet: Optional[List[Tuple]] = None
        self._value_uids: Optional[Dict[Scalar, FrozenSet[int]]] = None
        self._constants: Optional[List[Scalar]] = None

    @property
    def alphabet(self) -> List[Tuple]:
        """Operator symbols instantiated for the tree, sorted by ``repr``.

        The sort order matches how the eager oracle (``tests/reference/``)
        orders out-edges, so the lazy product enumeration reports words in
        the identical order.
        """
        if self._alphabet is None:
            from .column_learner import _alphabet_for_tree

            self._alphabet = sorted(_alphabet_for_tree(self.tree), key=repr)
        return self._alphabet

    def uids_for_value(self, value: Scalar) -> FrozenSet[int]:
        """Uids of nodes whose data equals ``value`` under ``compare_values``.

        Scalar equality in the DSL coincides with python ``==`` (numeric
        cross-type equality included) except for NaN, which equals nothing —
        NaN keys are therefore never stored and NaN lookups return the empty
        set.  ``None`` is a legitimate value class: a ``None`` column value
        matches every data-less (internal) node, exactly like a
        ``compare_values`` scan.
        """
        if self._value_uids is None:
            table: Dict[Scalar, set] = {}
            for node in self.tree.nodes():
                data = node.data
                if _is_nan(data):
                    continue
                table.setdefault(data, set()).add(node.uid)
            self._value_uids = {k: frozenset(v) for k, v in table.items()}
        if _is_nan(value):
            return frozenset()
        return self._value_uids.get(value, frozenset())

    @property
    def constants(self) -> List[Scalar]:
        if self._constants is None:
            self._constants = self.tree.constants()
        return self._constants

    # ------------------------------------------------- serialization support
    # The lazy fields above are pure functions of the tree, so a persisted
    # context (repro.synthesis.serialize) may pre-fill them instead of
    # recomputing.  ``has_*``/``value_classes`` report what has actually been
    # computed without triggering the computation.

    def has_alphabet(self) -> bool:
        return self._alphabet is not None

    def has_constants(self) -> bool:
        return self._constants is not None

    def value_classes(self) -> Optional[Dict[Scalar, FrozenSet[int]]]:
        return self._value_uids

    def preload_alphabet(self, alphabet: List[Tuple]) -> None:
        self._alphabet = alphabet

    def preload_constants(self, constants: List[Scalar]) -> None:
        self._constants = constants

    def preload_value_classes(self, value_uids: Dict[Scalar, FrozenSet[int]]) -> None:
        self._value_uids = value_uids


class SynthesisContext:
    """Cross-column, cross-table caches for one synthesis configuration."""

    #: Cache hit/miss counter names, all reported by :meth:`stats`.
    COUNTERS = (
        "universe_hits",
        "universe_misses",
        "chi_hits",
        "chi_misses",
        "mask_hits",
        "mask_misses",
    )

    def __init__(self) -> None:
        self._facts: Dict[int, _TreeFacts] = {}
        self._config_token: Optional[tuple] = None
        self.node_targets: Dict[Tuple[NodeExtractor, int], Optional[Node]] = {}
        self.column_results: Dict[tuple, List[ColumnExtractor]] = {}
        self.column_data: Dict[Tuple[int, ColumnExtractor], frozenset] = {}
        self.chi: Dict[tuple, List[NodeExtractor]] = {}
        self.universes: Dict[tuple, List[Predicate]] = {}
        self.column_sigs: Dict[tuple, tuple] = {}
        self.predicate_sat: Dict[tuple, tuple] = {}
        self.counters: Dict[str, int] = {name: 0 for name in self.COUNTERS}

    # ----------------------------------------------------------- bookkeeping
    def bind_config(self, config) -> None:
        """Pin the context to one configuration; reject cross-config sharing."""
        token = (id(config), config)
        if self._config_token is None:
            self._config_token = token
        elif self._config_token[1] != config:
            raise ValueError(
                "a SynthesisContext cannot be shared between different "
                "synthesis configurations"
            )

    @property
    def config(self):
        """The configuration the context is bound to, or ``None`` if unbound."""
        return self._config_token[1] if self._config_token is not None else None

    def trees(self) -> List[HDT]:
        """Every tree the context has seen, in first-seen order."""
        return [facts.tree for facts in self._facts.values()]

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a cache hit/miss counter (see :attr:`COUNTERS`)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def facts(self, tree: HDT) -> _TreeFacts:
        facts = self._facts.get(id(tree))
        if facts is None:
            facts = _TreeFacts(tree)
            self._facts[id(tree)] = facts
        return facts

    def trees_key(self, trees) -> tuple:
        """A hashable cache key identifying an ordered sequence of trees."""
        return tuple(id(self.facts(t).tree) for t in trees)

    # ------------------------------------------------------------ evaluation
    def eval_column(self, extractor: ColumnExtractor, tree: HDT) -> List[Node]:
        """Evaluate a column extractor on a tree with the shared per-tree cache."""
        return eval_column_on_tree(extractor, tree, cache=self.facts(tree).eval_cache)

    def column_data_values(self, extractor: ColumnExtractor, tree: HDT) -> frozenset:
        """The set of data values the extractor produces on the tree.

        Used by the over-approximation check (``R ⊆ [[ψ]]T``); membership in
        the set coincides with value-aware equality (NaN handled by the
        caller).
        """
        key = (id(self.facts(tree).tree), extractor)
        hit = self.column_data.get(key)
        if hit is None:
            hit = frozenset(
                n.data for n in self.eval_column(extractor, tree) if not _is_nan(n.data)
            )
            self.column_data[key] = hit
        return hit

    def target_of(self, extractor: NodeExtractor, node: Node) -> Optional[Node]:
        """Memoized ``(node extractor, node) → target`` evaluation."""
        key = (extractor, node.uid)
        cache = self.node_targets
        if key not in cache:
            cache[key] = eval_node_extractor(extractor, node)
        return cache[key]

    def column_signature(self, extractor: ColumnExtractor, trees) -> tuple:
        """The per-example node-list signature of a column extractor.

        One uid tuple per tree, in evaluation order.  Two column extractors
        with equal signatures extract the same nodes from every example, so
        every candidate-level artifact — χi sets, predicate universes,
        per-predicate satisfying-node sets — is interchangeable between them;
        the candidate-level caches key by signature for exactly that reason.
        Node uids are process-wide unique, so signatures never collide across
        trees.
        """
        trees = list(trees)
        key = (self.trees_key(trees), extractor)
        hit = self.column_sigs.get(key)
        if hit is None:
            hit = tuple(
                tuple(node.uid for node in self.eval_column(extractor, tree))
                for tree in trees
            )
            self.column_sigs[key] = hit
        return hit
