"""The seed engine's eager DFA, kept as a test oracle.

A deterministic finite automaton with the standard product construction,
pruning and shortest-first word enumeration.  The library never builds one:
it walks the product on demand (:func:`repro.automata.dfa.enumerate_product_words`).
States are opaque hashable values; symbols are hashable tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

State = Hashable
Symbol = Hashable
Word = Tuple[Symbol, ...]


@dataclass
class DFA:
    """A deterministic finite automaton.

    The transition function is partial: missing entries are treated as going to
    an implicit dead state.
    """

    states: Set[State]
    alphabet: Set[Symbol]
    transitions: Dict[Tuple[State, Symbol], State]
    initial: State
    accepting: Set[State]

    # ------------------------------------------------------------ invariants
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        if self.initial not in self.states:
            raise ValueError("initial state is not a state")
        if not self.accepting.issubset(self.states):
            raise ValueError("accepting states must be a subset of states")
        for (src, sym), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition {src!r} --{sym!r}--> {dst!r} uses unknown state")
            if sym not in self.alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    # ---------------------------------------------------------------- basics
    def step(self, state: State, symbol: Symbol) -> Optional[State]:
        """Follow one transition; ``None`` means the implicit dead state."""
        return self.transitions.get((state, symbol))

    def accepts(self, word: Iterable[Symbol]) -> bool:
        """Return True iff the DFA accepts the given word."""
        state: Optional[State] = self.initial
        for symbol in word:
            if state is None:
                return False
            state = self.step(state, symbol)
        return state is not None and state in self.accepting

    def is_empty(self) -> bool:
        """True iff the DFA accepts no word at all."""
        return not self._forward_reachable() & self.accepting

    # ----------------------------------------------------------- reachability
    def _forward_reachable(self) -> Set[State]:
        seen: Set[State] = {self.initial}
        frontier = deque([self.initial])
        out_edges = self._out_edges()
        while frontier:
            state = frontier.popleft()
            for _, dst in out_edges.get(state, ()):  # type: ignore[arg-type]
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        return seen

    def _backward_reachable(self, targets: Set[State]) -> Set[State]:
        in_edges: Dict[State, List[State]] = {}
        for (src, _), dst in self.transitions.items():
            in_edges.setdefault(dst, []).append(src)
        seen: Set[State] = set(targets)
        frontier = deque(targets)
        while frontier:
            state = frontier.popleft()
            for src in in_edges.get(state, []):
                if src not in seen:
                    seen.add(src)
                    frontier.append(src)
        return seen

    def _out_edges(self) -> Dict[State, List[Tuple[Symbol, State]]]:
        out: Dict[State, List[Tuple[Symbol, State]]] = {}
        for (src, sym), dst in self.transitions.items():
            out.setdefault(src, []).append((sym, dst))
        return out

    # -------------------------------------------------------------- pruning
    def prune(self) -> "DFA":
        """Remove states that are unreachable or cannot reach an accepting state."""
        forward = self._forward_reachable()
        live_accepting = forward & self.accepting
        if not live_accepting:
            return DFA(
                states={self.initial},
                alphabet=set(self.alphabet),
                transitions={},
                initial=self.initial,
                accepting=set(),
            )
        useful = self._backward_reachable(live_accepting) & forward
        useful.add(self.initial)
        transitions = {
            (src, sym): dst
            for (src, sym), dst in self.transitions.items()
            if src in useful and dst in useful
        }
        return DFA(
            states=useful,
            alphabet=set(self.alphabet),
            transitions=transitions,
            initial=self.initial,
            accepting=live_accepting,
        )

    # --------------------------------------------------------- intersection
    def intersect(self, other: "DFA") -> "DFA":
        """Product construction over the reachable part, pruned."""
        alphabet = self.alphabet & other.alphabet
        initial = (self.initial, other.initial)
        states: Set[State] = {initial}
        transitions: Dict[Tuple[State, Symbol], State] = {}
        accepting: Set[State] = set()
        frontier = deque([initial])
        self_out = self._out_edges()
        while frontier:
            pair = frontier.popleft()
            left, right = pair
            if left in self.accepting and right in other.accepting:
                accepting.add(pair)
            for sym, left_dst in self_out.get(left, []):
                if sym not in alphabet:
                    continue
                right_dst = other.step(right, sym)
                if right_dst is None:
                    continue
                dst = (left_dst, right_dst)
                transitions[(pair, sym)] = dst
                if dst not in states:
                    states.add(dst)
                    frontier.append(dst)
        product = DFA(
            states=states,
            alphabet=alphabet,
            transitions=transitions,
            initial=initial,
            accepting=accepting,
        )
        return product.prune()

    # ---------------------------------------------------------- enumeration
    def enumerate_words(self, max_length: int = 8, max_words: int = 200) -> List[Word]:
        """Enumerate accepted words, shortest first, exploring paths (not
        states) so distinct words reaching the same state are all reported."""
        results: List[Word] = []
        frontier: deque = deque([(self.initial, ())])
        out_edges = self._out_edges()
        while frontier and len(results) < max_words:
            state, word = frontier.popleft()
            if state in self.accepting:
                results.append(word)
                if len(results) >= max_words:
                    break
            if len(word) >= max_length:
                continue
            for sym, dst in sorted(
                out_edges.get(state, []), key=lambda item: repr(item[0])
            ):
                frontier.append((dst, word + (sym,)))
        return results


def intersect_all(automata: List[DFA]) -> DFA:
    """Intersect a non-empty list of DFAs left to right."""
    if not automata:
        raise ValueError("cannot intersect an empty list of automata")
    result = automata[0].prune()
    for dfa in automata[1:]:
        result = result.intersect(dfa)
        if result.is_empty():
            break
    return result
