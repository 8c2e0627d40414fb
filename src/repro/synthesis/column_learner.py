"""Learning column extraction programs with deterministic finite automata.

This module implements Algorithm 2 and the DFA construction rules of Figure 9
in two interchangeable ways:

* the *eager* seed algorithm — :func:`construct_dfa` builds, for a single
  (tree, column) example, a DFA whose states are *sets of HDT nodes* reachable
  from ``{root}`` by applying DSL operators, whose alphabet symbols are the
  instantiated operators ``children_tag`` / ``pchildren_tag,pos`` /
  ``descendants_tag``, and whose accepting states are exactly the node sets
  that cover the target column (rule (5): ``s ⊇ column(R, i)``);
  :func:`learn_column_extractors_eager` intersects the per-example DFAs and
  enumerates accepted words shortest-first;
* the *lazy* vectorized engine — :class:`_LazyExampleDFA` exposes each example
  as an on-demand automaton (states are interned node-set ids, transitions are
  computed from the tree's :class:`~repro.hdt.tree.TagIndex` only when the
  product enumeration asks for them), and
  :func:`repro.automata.dfa.enumerate_product_words` walks the intersection
  without ever materializing it.  The lazy engine reports the identical word
  list (same words, same order) as the eager one whenever the
  ``config.max_dfa_states`` safety cap does not bind — under the cap the two
  engines admit states in different orders (eager: per-example BFS with a
  per-call budget; lazy: product-demand order with a per-tree budget shared
  across columns), so cap-bound searches are best-effort in both and may
  differ.  The evaluation benchmarks stay far below the default cap.

:func:`learn_column_extractors` dispatches on ``config.vectorized``.
A word ``(f1, f2, ..., fm)`` corresponds to the extractor
``fm(... f2(f1(s)) ...)`` applied to ``{root(τ)}``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..automata.dfa import DFA, enumerate_product_words, intersect_all
from ..dsl.ast import Children, ColumnExtractor, Descendants, PChildren, Var
from ..dsl.semantics import compare_values, _dedupe
from ..hdt.node import Node, Scalar
from ..hdt.tree import HDT
from .config import DEFAULT_CONFIG, SynthesisConfig
from .context import SynthesisContext
from ..dsl.ast import Op

# Alphabet symbols.  Using plain tuples keeps them hashable and comparable.
CHILDREN = "children"
PCHILDREN = "pchildren"
DESCENDANTS = "descendants"

Symbol = Tuple


class ColumnLearningError(Exception):
    """Raised when no column extractor consistent with the examples exists."""


def _alphabet_for_tree(tree: HDT) -> List[Symbol]:
    """All operator symbols instantiated with tags/positions present in the tree."""
    symbols: List[Symbol] = []
    tags = tree.tags()
    for tag in tags:
        symbols.append((CHILDREN, tag))
        symbols.append((DESCENDANTS, tag))
    for tag in tags:
        for pos in tree.positions_for_tag(tag):
            symbols.append((PCHILDREN, tag, pos))
    return symbols


def _apply_symbol(symbol: Symbol, nodes: Sequence[Node]) -> List[Node]:
    """Apply one instantiated operator to an ordered set of nodes."""
    kind = symbol[0]
    if kind == CHILDREN:
        tag = symbol[1]
        return _dedupe(c for n in nodes for c in n.children_with_tag(tag))
    if kind == PCHILDREN:
        tag, pos = symbol[1], symbol[2]
        out: List[Node] = []
        for n in nodes:
            child = n.child_with(tag, pos)
            if child is not None:
                out.append(child)
        return _dedupe(out)
    if kind == DESCENDANTS:
        tag = symbol[1]
        return _dedupe(d for n in nodes for d in n.descendants_with_tag(tag))
    raise ValueError(f"unknown symbol kind: {kind!r}")


def _covers_column(nodes: Sequence[Node], column_values: Sequence[Scalar]) -> bool:
    """Rule (5): does the node set cover every value of the output column?"""
    for value in column_values:
        if not any(compare_values(node.data, Op.EQ, value) for node in nodes):
            return False
    return True


def construct_dfa(
    tree: HDT,
    column_values: Sequence[Scalar],
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> DFA:
    """Build the DFA of Figure 9 for one (tree, column) example.

    States are frozensets of node uids; the uid → node mapping is recovered
    through the tree.  Exploration is breadth-first from ``{root}`` and bounded
    by ``config.max_dfa_states`` and ``config.max_column_program_length``.
    Transitions whose result set is empty are pruned (an empty set can never
    cover a non-empty column, and keeping them would blow up the automaton).
    """
    alphabet = _alphabet_for_tree(tree)
    uid_to_node = {n.uid: n for n in tree.nodes()}

    initial: FrozenSet[int] = frozenset({tree.root.uid})
    states: Set[FrozenSet[int]] = {initial}
    transitions: Dict[Tuple[FrozenSet[int], Symbol], FrozenSet[int]] = {}
    accepting: Set[FrozenSet[int]] = set()

    def nodes_of(state: FrozenSet[int]) -> List[Node]:
        return sorted((uid_to_node[uid] for uid in state), key=lambda n: n.uid)

    if _covers_column(nodes_of(initial), column_values):
        accepting.add(initial)

    frontier: deque = deque([(initial, 0)])
    while frontier:
        state, depth = frontier.popleft()
        if depth >= config.max_column_program_length:
            continue
        current_nodes = nodes_of(state)
        for symbol in alphabet:
            result = _apply_symbol(symbol, current_nodes)
            if not result:
                continue
            new_state = frozenset(n.uid for n in result)
            if new_state not in states:
                if len(states) >= config.max_dfa_states:
                    continue
                states.add(new_state)
                if _covers_column(result, column_values):
                    accepting.add(new_state)
                frontier.append((new_state, depth + 1))
            transitions[(state, symbol)] = new_state

    dfa = DFA(
        states=states,
        alphabet=set(alphabet),
        transitions=transitions,
        initial=initial,
        accepting=accepting,
    )
    return dfa.prune()


def word_to_extractor(word: Sequence[Symbol]) -> ColumnExtractor:
    """Convert a DFA word into the corresponding column extractor AST."""
    extractor: ColumnExtractor = Var()
    for symbol in word:
        kind = symbol[0]
        if kind == CHILDREN:
            extractor = Children(extractor, symbol[1])
        elif kind == PCHILDREN:
            extractor = PChildren(extractor, symbol[1], symbol[2])
        elif kind == DESCENDANTS:
            extractor = Descendants(extractor, symbol[1])
        else:
            raise ValueError(f"unknown symbol kind: {kind!r}")
    return extractor


def extractor_to_word(extractor: ColumnExtractor) -> Tuple[Symbol, ...]:
    """Inverse of :func:`word_to_extractor` (useful for tests and debugging)."""
    symbols: List[Symbol] = []
    current = extractor
    while not isinstance(current, Var):
        if isinstance(current, Children):
            symbols.append((CHILDREN, current.tag))
        elif isinstance(current, PChildren):
            symbols.append((PCHILDREN, current.tag, current.pos))
        elif isinstance(current, Descendants):
            symbols.append((DESCENDANTS, current.tag))
        else:
            raise ValueError(f"unknown column extractor: {current!r}")
        current = current.source
    symbols.reverse()
    return tuple(symbols)


def learn_column_extractors_eager(
    examples: Sequence[Tuple[HDT, Sequence[Scalar]]],
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> List[ColumnExtractor]:
    """The seed algorithm: eager per-example DFAs + product intersection.

    Kept as the reference implementation — the equivalence property tests
    run it against the lazy engine.
    """
    if not examples:
        raise ValueError("at least one example is required")

    automata = [construct_dfa(tree, column, config) for tree, column in examples]
    combined = intersect_all(automata)
    if combined.is_empty():
        raise ColumnLearningError(
            "no column extraction program is consistent with all examples"
        )
    words = combined.enumerate_words(
        max_length=config.max_column_program_length,
        max_words=config.max_column_programs,
    )
    if not words:
        raise ColumnLearningError(
            "no column extraction program found within the length bound"
        )
    extractors = [word_to_extractor(word) for word in words]
    extractors.sort(key=lambda e: (e.size(), repr(e)))
    return extractors


class TreeAutomaton:
    """The interned node-set transition graph of one tree, built on demand.

    Transitions do not depend on the output column — only *acceptance* does —
    so one automaton per example tree is shared by every column of every table
    of a migration (it lives in the :class:`SynthesisContext`): each
    ``(state, symbol)`` expansion runs at most once per tree across the whole
    synthesis run.

    States are integer ids of interned node-uid frozensets; the initial state
    is ``{root}``.  ``children``/``descendants`` steps answer from the tree's
    :class:`~repro.hdt.tree.TagIndex` instead of re-walking the document.
    Transitions with an empty result are dead (mirroring the eager
    construction, which prunes them), and interning stops at ``max_states``,
    the same safety cap the eager builder applies per example — though here
    the budget covers the whole tree (shared across columns) and fills in
    demand order, so once the cap binds, results may diverge from the eager
    engine's equally-truncated search (see the module docstring).
    """

    def __init__(self, tree: HDT, max_states: int, alphabet: Sequence[Tuple]) -> None:
        self._index = tree.tag_index()
        self._max_states = max_states
        self._alphabet = alphabet
        self._intern: Dict[FrozenSet[int], int] = {}
        self._sets: List[FrozenSet[int]] = []
        self._nodes: List[List[Node]] = []
        self._steps: Dict[Tuple[int, Tuple], Optional[int]] = {}
        self._out_edges: Dict[int, List[Tuple[Tuple, int]]] = {}
        self.initial = self._intern_state([tree.root])

    def _intern_state(self, nodes: List[Node]) -> Optional[int]:
        uids = frozenset(n.uid for n in nodes)
        state = self._intern.get(uids)
        if state is not None:
            return state
        if len(self._sets) >= self._max_states:
            return None
        state = len(self._sets)
        self._intern[uids] = state
        self._sets.append(uids)
        self._nodes.append(nodes)
        return state

    def node_set(self, state: int) -> FrozenSet[int]:
        return self._sets[state]

    def step(self, state: int, symbol: Tuple) -> Optional[int]:
        key = (state, symbol)
        hit = self._steps.get(key, _STEP_MISS)
        if hit is not _STEP_MISS:
            return hit
        nodes = self._nodes[state]
        kind = symbol[0]
        index = self._index
        if kind == CHILDREN:
            tag = symbol[1]
            result = _dedupe(c for n in nodes for c in index.children_with_tag(n, tag))
        elif kind == PCHILDREN:
            tag, pos = symbol[1], symbol[2]
            out: List[Node] = []
            for n in nodes:
                child = n.child_with(tag, pos)
                if child is not None:
                    out.append(child)
            result = _dedupe(out)
        elif kind == DESCENDANTS:
            tag = symbol[1]
            result = _dedupe(d for n in nodes for d in index.descendants_with_tag(n, tag))
        else:  # pragma: no cover - alphabet only contains the three operators
            raise ValueError(f"unknown symbol kind: {kind!r}")
        dst = self._intern_state(result) if result else None
        self._steps[key] = dst
        return dst

    def successors(self, state: int) -> List[Tuple[Tuple, int]]:
        """Live out-edges of a state over the tree's full alphabet, cached.

        Only valid when the enumeration's alphabet is the whole per-tree
        alphabet — i.e. single-example products, where the product alphabet
        intersection is trivial.  The edge order follows the repr-sorted
        alphabet, matching the eager enumeration's out-edge sort.
        """
        edges = self._out_edges.get(state)
        if edges is None:
            step = self.step
            edges = []
            for symbol in self._alphabet:
                dst = step(state, symbol)
                if dst is not None:
                    edges.append((symbol, dst))
            self._out_edges[state] = edges
        return edges


_STEP_MISS = object()


class _LazyExampleDFA:
    """One (tree, column) example: the tree's shared automaton plus the
    column-specific acceptance predicate (rule (5))."""

    def __init__(
        self,
        tree: HDT,
        column_values: Sequence[Scalar],
        config: SynthesisConfig,
        context: SynthesisContext,
    ) -> None:
        facts = context.facts(tree)
        automaton = facts.automaton
        if automaton is None:
            automaton = TreeAutomaton(tree, config.max_dfa_states, facts.alphabet)
            facts.automaton = automaton
        self._automaton = automaton
        self.initial = automaton.initial
        self.step = automaton.step
        self.successors = automaton.successors
        """Full-alphabet out-edges — usable by the product enumeration only
        for single-example tasks (see :meth:`TreeAutomaton.successors`)."""
        # Equality classes for rule (5): the state covers the column iff it
        # intersects every value's uid set.  Deduplicate the sets so repeated
        # column values cost one check; an empty set (value absent from the
        # document) makes every state rejecting, exactly like the eager check.
        seen_sets: Set[FrozenSet[int]] = set()
        self._value_sets: List[FrozenSet[int]] = []
        for value in column_values:
            uids = facts.uids_for_value(value)
            if uids in seen_sets:
                continue
            seen_sets.add(uids)
            self._value_sets.append(uids)
        self._accepting: Dict[int, bool] = {}

    def is_accepting(self, state: int) -> bool:
        hit = self._accepting.get(state)
        if hit is None:
            uids = self._automaton.node_set(state)
            hit = all(not value_set.isdisjoint(uids) for value_set in self._value_sets)
            self._accepting[state] = hit
        return hit


def learn_column_extractors_lazy(
    examples: Sequence[Tuple[HDT, Sequence[Scalar]]],
    config: SynthesisConfig = DEFAULT_CONFIG,
    context: Optional[SynthesisContext] = None,
) -> List[ColumnExtractor]:
    """The vectorized engine: lazy product-DFA enumeration over the examples."""
    if not examples:
        raise ValueError("at least one example is required")
    if context is None:
        context = SynthesisContext()

    components = [
        _LazyExampleDFA(tree, column, config, context) for tree, column in examples
    ]
    # Product alphabet: symbols instantiated in every example, in repr order
    # (each per-tree alphabet is repr-sorted; filtering preserves the order).
    alphabet = context.facts(examples[0][0]).alphabet
    for tree, _ in examples[1:]:
        other = set(context.facts(tree).alphabet)
        alphabet = [symbol for symbol in alphabet if symbol in other]

    words = enumerate_product_words(
        components,
        alphabet,
        max_length=config.max_column_program_length,
        max_words=config.max_column_programs,
    )
    if not words:
        # The lazy search cannot tell a genuinely empty intersection from one
        # whose shortest witness exceeds the length bound, so one message
        # covers both (the eager path distinguishes them).
        raise ColumnLearningError(
            "no column extraction program is consistent with all examples "
            "within the configured bounds"
        )
    extractors = [word_to_extractor(word) for word in words]
    extractors.sort(key=lambda e: (e.size(), repr(e)))
    return extractors


def learn_column_extractors(
    examples: Sequence[Tuple[HDT, Sequence[Scalar]]],
    config: SynthesisConfig = DEFAULT_CONFIG,
    context: Optional[SynthesisContext] = None,
) -> List[ColumnExtractor]:
    """Algorithm 2: learn the set of column extractors consistent with all examples.

    Parameters
    ----------
    examples:
        A list of ``(tree, column_values)`` pairs — one entry per input-output
        example, where ``column_values`` is the i-th column of the output table.
    config:
        Search bounds; ``config.vectorized`` selects the lazy product engine
        (default) or the eager seed algorithm.
    context:
        Optional :class:`SynthesisContext` with shared per-tree caches
        (vectorized engine only).

    Returns
    -------
    A list of column extractor ASTs, ordered from simplest (shortest) to most
    complex, at most ``config.max_column_programs`` long.

    Raises
    ------
    ColumnLearningError
        If no column extractor consistent with every example exists within the
        configured bounds.
    """
    if config.vectorized:
        return learn_column_extractors_lazy(examples, config, context)
    return learn_column_extractors_eager(examples, config)
