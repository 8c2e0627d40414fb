"""Lazy product automata over DSL-operator alphabets.

Section 5.1 of the paper learns column extractors by building, for each
input-output example, a DFA whose states are sets of HDT nodes and whose
alphabet symbols are the (instantiated) column-extraction operators
``children_tag``, ``pchildren_tag,pos`` and ``descendants_tag``; consistency
across examples is DFA intersection.  This module never materializes those
automata or their product: each factor is a :class:`LazyComponent` answering
``step`` and acceptance on demand, and :func:`enumerate_product_words`
enumerates the product's words shortest-first, expanding only the states the
search reaches.  (The eager construction is a test oracle in
``tests/reference/``.)  States are opaque hashable values; symbols are
hashable tuples.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

State = Hashable
Symbol = Hashable
Word = Tuple[Symbol, ...]


class LazyComponent:
    """One factor of a lazy product automaton.

    Implementations expose an ``initial`` state handle plus two callables;
    states are opaque hashable handles (the column learner interns node sets
    and hands out integer ids).  A ``step`` returning ``None`` means the
    implicit dead state.
    """

    initial: State

    def step(self, state: State, symbol: Symbol) -> Optional[State]:  # pragma: no cover - interface
        raise NotImplementedError

    def is_accepting(self, state: State) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


def enumerate_product_words(
    components: Sequence[LazyComponent],
    alphabet: Sequence[Symbol],
    *,
    max_length: int = 8,
    max_words: int = 200,
) -> List[Word]:
    """Shortest-first word enumeration over a product automaton built on demand.

    Equivalent to intersecting the per-factor automata and enumerating the
    product's words, but without ever materializing either: product
    states are expanded only when the breadth-first path enumeration reaches
    them, and each (state, symbol) expansion is delegated to the components'
    ``step`` functions (memoized per product state).

    To reproduce the eager oracle (``tests/reference/``) word for word,
    ``alphabet`` must be iterated in the order that oracle sorts out-edges —
    pass it sorted by ``repr``; this function preserves the given order.
    Paths (not states) are explored, so distinct words reaching the same
    product state are all reported.

    An empty result means no accepting product state exists within the
    ``max_length`` exploration horizon — the search cannot tell a genuinely
    empty intersection from one whose shortest witness is longer than the
    bound (every accepting state it *can* discover is reachable within the
    bound and therefore yields a word).
    """
    initial: Tuple[State, ...] = tuple(c.initial for c in components)

    # Single-component products (one input-output example — the migration
    # engine's case) read cached full-alphabet out-edge lists straight off the
    # component, so the per-tree transition graph is expanded at most once for
    # the *entire* multi-table synthesis run.
    single = components[0] if len(components) == 1 else None
    single_successors = getattr(single, "successors", None) if single else None

    # Phase 1 — expand the reachable product, one expansion per STATE (not per
    # path: the path enumeration below revisits states exponentially often in
    # dead regions, so transitions are computed here exactly once).  Depth is
    # bounded by max_length: deeper states cannot appear on an enumerable path.
    out_edges: Dict[Tuple[State, ...], List[Tuple[Symbol, Tuple[State, ...]]]] = {}
    accepting: Set[Tuple[State, ...]] = set()
    depth_of: Dict[Tuple[State, ...], int] = {initial: 0}
    if all(c.is_accepting(s) for c, s in zip(components, initial)):
        accepting.add(initial)
    state_frontier: deque = deque([initial])
    while state_frontier:
        state = state_frontier.popleft()
        depth = depth_of[state]
        if depth >= max_length:
            out_edges.setdefault(state, [])
            continue
        edges: List[Tuple[Symbol, Tuple[State, ...]]] = []
        if single_successors is not None:
            for symbol, dst in single_successors(state[0]):
                successor = (dst,)
                edges.append((symbol, successor))
                if successor not in depth_of:
                    depth_of[successor] = depth + 1
                    if single.is_accepting(dst):
                        accepting.add(successor)
                    state_frontier.append(successor)
        else:
            for symbol in alphabet:
                nxt: List[State] = []
                for component, comp_state in zip(components, state):
                    dst = component.step(comp_state, symbol)
                    if dst is None:
                        break
                    nxt.append(dst)
                else:
                    successor = tuple(nxt)
                    edges.append((symbol, successor))
                    if successor not in depth_of:
                        depth_of[successor] = depth + 1
                        if all(
                            c.is_accepting(s) for c, s in zip(components, successor)
                        ):
                            accepting.add(successor)
                        state_frontier.append(successor)
        out_edges[state] = edges

    if not accepting:
        return []

    # Phase 2 — backward prune: drop states that cannot reach an accepting
    # state, like the eager oracle prunes before it enumerates.  Dead states
    # never produce a word, and removing them does not reorder the accepted
    # paths of the FIFO search, so the word list is unchanged — only the
    # exponential wandering through dead regions is.
    in_edges: Dict[Tuple[State, ...], List[Tuple[State, ...]]] = {}
    for src, edges in out_edges.items():
        for _, dst in edges:
            in_edges.setdefault(dst, []).append(src)
    useful: Set[Tuple[State, ...]] = set(accepting)
    prune_frontier: deque = deque(accepting)
    while prune_frontier:
        state = prune_frontier.popleft()
        for src in in_edges.get(state, ()):  # type: ignore[arg-type]
            if src not in useful:
                useful.add(src)
                prune_frontier.append(src)

    # Phase 3 — shortest-first path enumeration over the pruned graph,
    # identical to the eager oracle's (alphabet order == repr-sorted order).
    results: List[Word] = []
    frontier: deque = deque([(initial, ())] if initial in useful else [])
    while frontier and len(results) < max_words:
        state, word = frontier.popleft()
        if state in accepting:
            results.append(word)
            if len(results) >= max_words:
                break
        if len(word) >= max_length:
            continue
        for symbol, dst in out_edges.get(state, ()):  # type: ignore[arg-type]
            if dst in useful:
                frontier.append((dst, word + (symbol,)))
    return results
