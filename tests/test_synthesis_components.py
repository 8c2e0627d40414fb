"""Tests for the synthesis building blocks: DFA learner, covers, QM, universe.

The DFA, cover and Quine–McCluskey cases check the oracles in ``tests/reference/``.
"""

import pytest

from repro.dsl import Children, Descendants, NodeVar, Op, PChildren, Var
from repro.hdt import build_tree
from repro.synthesis import (
    ColumnLearningError,
    construct_predicate_universe,
    extractor_to_word,
    learn_column_extractors,
    valid_node_extractors,
    word_to_extractor,
)
from repro.synthesis.set_cover import CoverError
from repro.dsl.semantics import eval_column_on_tree
from tests.reference.column_learner import construct_dfa
from tests.reference.dfa import DFA, intersect_all
from tests.reference.qm import (
    evaluate_dnf,
    implicant_covers,
    minimize,
    minterm_to_bits,
    prime_implicants,
)
from tests.reference.set_cover import branch_and_bound_cover, greedy_cover, ilp_cover, minimum_cover


# --------------------------------------------------------------------------- #
# Generic DFA
# --------------------------------------------------------------------------- #


def _simple_dfa():
    return DFA(
        states={"q0", "q1", "q2"},
        alphabet={"a", "b"},
        transitions={("q0", "a"): "q1", ("q1", "b"): "q2", ("q0", "b"): "q0"},
        initial="q0",
        accepting={"q2"},
    )


def test_dfa_accepts():
    dfa = _simple_dfa()
    assert dfa.accepts(["a", "b"])
    assert dfa.accepts(["b", "a", "b"])
    assert not dfa.accepts(["a"])
    assert not dfa.accepts(["a", "a"])


def test_dfa_validate_rejects_bad_transition():
    dfa = _simple_dfa()
    dfa.transitions[("q0", "z")] = "q1"
    with pytest.raises(ValueError):
        dfa.validate()


def test_dfa_prune_removes_dead_states():
    dfa = DFA(
        states={"q0", "q1", "dead"},
        alphabet={"a"},
        transitions={("q0", "a"): "q1", ("q1", "a"): "dead"},
        initial="q0",
        accepting={"q1"},
    )
    pruned = dfa.prune()
    assert "dead" not in pruned.states
    assert pruned.accepts(["a"])


def test_dfa_is_empty():
    empty = DFA(states={"q0"}, alphabet={"a"}, transitions={}, initial="q0", accepting=set())
    assert empty.is_empty()
    assert not _simple_dfa().is_empty()


def test_dfa_intersection_language():
    ends_in_b = _simple_dfa()
    # accepts any word over {a,b} of length exactly 2
    length_two = DFA(
        states={0, 1, 2},
        alphabet={"a", "b"},
        transitions={(0, "a"): 1, (0, "b"): 1, (1, "a"): 2, (1, "b"): 2},
        initial=0,
        accepting={2},
    )
    product = ends_in_b.intersect(length_two)
    assert product.accepts(["a", "b"])
    assert not product.accepts(["b", "a"])
    assert not product.accepts(["b", "a", "b"])


def test_dfa_enumerate_words_shortest_first():
    dfa = _simple_dfa()
    words = dfa.enumerate_words(max_length=4, max_words=10)
    assert words[0] == ("a", "b")
    assert all(len(words[i]) <= len(words[i + 1]) for i in range(len(words) - 1))


def test_intersect_all_requires_input():
    with pytest.raises(ValueError):
        intersect_all([])


# --------------------------------------------------------------------------- #
# Column extractor learning (Figure 9 / Algorithm 2)
# --------------------------------------------------------------------------- #


@pytest.fixture
def catalog_tree():
    return build_tree(
        {
            "item": [
                {"sku": "a1", "price": 10, "tag": [{"label": "red"}]},
                {"sku": "b2", "price": 20, "tag": [{"label": "blue"}]},
            ]
        },
        tag="catalog",
    )


def test_construct_dfa_accepts_consistent_program(catalog_tree):
    dfa = construct_dfa(catalog_tree, ["a1", "b2"])
    word = extractor_to_word(Children(Children(Var(), "item"), "sku"))
    assert dfa.accepts(word)
    word_desc = extractor_to_word(Descendants(Var(), "sku"))
    assert dfa.accepts(word_desc)


def test_construct_dfa_rejects_wrong_column(catalog_tree):
    dfa = construct_dfa(catalog_tree, ["a1", "b2"])
    wrong = extractor_to_word(Descendants(Var(), "price"))
    assert not dfa.accepts(wrong)


def test_learn_column_extractors_cover_values(catalog_tree):
    extractors = learn_column_extractors([(catalog_tree, ["red", "blue"])])
    assert extractors, "expected at least one consistent extractor"
    for extractor in extractors:
        data = [n.data for n in eval_column_on_tree(extractor, catalog_tree)]
        assert "red" in data and "blue" in data
    # sorted simplest-first
    sizes = [e.size() for e in extractors]
    assert sizes == sorted(sizes)


def test_learn_column_extractors_multiple_examples(catalog_tree):
    other = build_tree(
        {"item": [{"sku": "z9", "price": 5, "tag": [{"label": "green"}]}]}, tag="catalog"
    )
    extractors = learn_column_extractors(
        [(catalog_tree, ["a1", "b2"]), (other, ["z9"])]
    )
    for extractor in extractors:
        assert "z9" in [n.data for n in eval_column_on_tree(extractor, other)]


def test_learn_column_extractors_impossible():
    tree = build_tree({"a": [{"b": 1}]}, tag="root")
    with pytest.raises(ColumnLearningError):
        learn_column_extractors([(tree, ["value-not-present"])])


def test_word_extractor_roundtrip():
    extractor = PChildren(Descendants(Var(), "obj"), "text", 0)
    assert word_to_extractor(extractor_to_word(extractor)) == extractor


# --------------------------------------------------------------------------- #
# Set cover (Algorithm 4)
# --------------------------------------------------------------------------- #

COVER_CASES = [
    # (sets, universe, optimal size)
    ([{0, 1}, {1, 2}, {0, 2}], {0, 1, 2}, 2),
    ([{0}, {1}, {2}, {0, 1, 2}], {0, 1, 2}, 1),
    ([{0, 1, 2}, {3}, {0, 3}], {0, 1, 2, 3}, 2),
    ([{0, 1}, {2, 3}, {4}, {0, 2, 4}], {0, 1, 2, 3, 4}, 3),
]


@pytest.mark.parametrize("sets,universe,optimal", COVER_CASES)
@pytest.mark.parametrize("solver", [branch_and_bound_cover, ilp_cover])
def test_exact_cover_solvers_find_optimum(sets, universe, optimal, solver):
    chosen = solver(sets, universe)
    covered = set()
    for idx in chosen:
        covered |= sets[idx]
    assert covered >= universe
    assert len(chosen) == optimal


@pytest.mark.parametrize("sets,universe,optimal", COVER_CASES)
def test_greedy_cover_is_valid(sets, universe, optimal):
    chosen = greedy_cover(sets, universe)
    covered = set()
    for idx in chosen:
        covered |= sets[idx]
    assert covered >= universe


def test_cover_impossible_raises():
    with pytest.raises(CoverError):
        minimum_cover([{0}], {0, 1})


def test_minimum_cover_empty_universe():
    assert minimum_cover([{1}], set()) == []


@pytest.mark.parametrize("strategy", ["auto", "ilp", "branch_and_bound", "greedy"])
def test_minimum_cover_strategies(strategy):
    chosen = minimum_cover([{0, 1}, {1, 2}, {2}], {0, 1, 2}, strategy=strategy)
    covered = set()
    for idx in chosen:
        covered |= [{0, 1}, {1, 2}, {2}][idx]
    assert covered == {0, 1, 2}


def test_minimum_cover_unknown_strategy():
    with pytest.raises(ValueError):
        minimum_cover([{0}], {0}, strategy="magic")


# --------------------------------------------------------------------------- #
# Quine–McCluskey
# --------------------------------------------------------------------------- #


def test_minterm_bits_roundtrip():
    assert minterm_to_bits(5, 3) == (1, 0, 1)


def test_prime_implicants_classic_example():
    # f(a,b) = a'b + ab + ab' = a + b
    primes = prime_implicants(2, [1, 2, 3])
    assert (1, None) in primes and (None, 1) in primes


def test_minimize_simple_or():
    implicants = minimize(2, [1, 2, 3])
    # a + b: two single-literal terms
    assert len(implicants) == 2
    for m in (1, 2, 3):
        assert evaluate_dnf(implicants, minterm_to_bits(m, 2))
    assert not evaluate_dnf(implicants, minterm_to_bits(0, 2))


def test_minimize_with_dont_cares_collapses():
    # ON = {1}, DC = {3} over 2 vars -> minimal term is just "b" (x1)
    implicants = minimize(2, [1], [3])
    assert len(implicants) == 1
    assert sum(1 for lit in implicants[0] if lit is not None) == 1


def test_minimize_tautology_like():
    implicants = minimize(1, [0, 1])
    assert implicants == [(None,)]


def test_minimize_empty_on_set():
    assert minimize(3, []) == []


def test_implicant_covers():
    assert implicant_covers((1, None), (1, 0))
    assert not implicant_covers((1, None), (0, 0))


def test_minimize_paper_example_shape():
    # Three variables, ON-set/OFF-set patterned after Example 5's truth table:
    # the minimal DNF uses fewer literals than the number of ON rows.
    implicants = minimize(3, [0b110, 0b111, 0b100], [0b010, 0b011])
    for m in (0b110, 0b111, 0b100):
        assert evaluate_dnf(implicants, minterm_to_bits(m, 3))
    for m in (0b000, 0b101, 0b001):
        assert not evaluate_dnf(implicants, minterm_to_bits(m, 3))


# --------------------------------------------------------------------------- #
# Predicate universe (Figure 10)
# --------------------------------------------------------------------------- #


def test_valid_node_extractors_never_bottom(catalog_tree):
    skus = eval_column_on_tree(Children(Children(Var(), "item"), "sku"), catalog_tree)
    extractors = valid_node_extractors([skus])
    from repro.dsl.semantics import eval_node_extractor

    assert NodeVar() in extractors
    for extractor in extractors:
        for node in skus:
            assert eval_node_extractor(extractor, node) is not None


def test_predicate_universe_contains_structural_link(catalog_tree):
    columns = (
        Children(Children(Var(), "item"), "sku"),
        Children(Children(Var(), "item"), "price"),
    )
    universe = construct_predicate_universe([catalog_tree], columns)
    from repro.dsl import CompareNodes, Parent

    structural = [
        p
        for p in universe
        if isinstance(p, CompareNodes)
        and isinstance(p.left_extractor, Parent)
        and isinstance(p.right_extractor, Parent)
    ]
    assert structural, "expected parent(n)=parent(n) style predicates in the universe"


def test_predicate_universe_respects_cap(catalog_tree):
    from repro.synthesis import SynthesisConfig

    config = SynthesisConfig(max_predicate_universe=5)
    columns = (Descendants(Var(), "sku"), Descendants(Var(), "price"))
    universe = construct_predicate_universe([catalog_tree], columns, config)
    assert len(universe) <= 5


def test_predicate_universe_no_string_ordering(catalog_tree):
    from repro.dsl import CompareConst

    columns = (Children(Children(Var(), "item"), "sku"),)
    universe = construct_predicate_universe([catalog_tree], columns)
    for predicate in universe:
        if isinstance(predicate, CompareConst) and isinstance(predicate.constant, str):
            assert predicate.op in (Op.EQ, Op.NE)
