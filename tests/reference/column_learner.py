"""The seed engine's eager column learner, kept as a test oracle.

Figure 9 materialized: :func:`construct_dfa` builds one DFA per (tree, column)
example, whose states are node sets reachable from ``{root}`` and whose
accepting states cover the column (rule (5)); :func:`learn_column_extractors_eager`
intersects them and enumerates accepted words shortest-first.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.dsl.ast import ColumnExtractor, Op
from repro.dsl.semantics import _dedupe, compare_values
from repro.hdt.node import Node, Scalar
from repro.hdt.tree import HDT
from repro.synthesis.column_learner import (
    CHILDREN,
    DESCENDANTS,
    PCHILDREN,
    ColumnLearningError,
    Symbol,
    _alphabet_for_tree,
    word_to_extractor,
)
from repro.synthesis.config import DEFAULT_CONFIG, SynthesisConfig

from .dfa import DFA, intersect_all


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


def learn_column_extractors_eager(
    examples: Sequence[Tuple[HDT, Sequence[Scalar]]],
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> List[ColumnExtractor]:
    """The seed algorithm: eager per-example DFAs + product intersection."""
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
