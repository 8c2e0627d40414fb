"""Property-based tests (hypothesis) for core data structures and invariants."""

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dsl import (
    And,
    Children,
    CompareConst,
    CompareNodes,
    Descendants,
    NodeVar,
    Not,
    Op,
    Or,
    Parent,
    PChildren,
    Program,
    TableExtractor,
    True_,
    Var,
    run_program,
)
from repro.hdt import build_tree, hdt_to_json, json_to_hdt
from repro.optimizer import (
    TupleProjection,
    execute,
    execute_nodes,
    iter_execute_nodes,
    plan,
    to_cnf_clauses,
    clauses_to_predicate,
)
from repro.optimizer.optimize import DATA, IDENTITY, IGNORED
from repro.dsl.semantics import eval_column_on_tree, eval_predicate, eval_table, run_program_nodes
from repro.synthesis.bitset import mask_from_indices
from repro.synthesis.qm import minimize_bits
from repro.synthesis.set_cover import branch_and_bound_cover_bits, greedy_cover_bits, ilp_cover_bits
from tests.reference.qm import evaluate_dnf, minterm_to_bits

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
)

json_docs = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), children, max_size=3),
    ),
    max_leaves=12,
)

tag_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def small_trees(draw):
    """Small nested documents with repeated tags (good for extractor testing)."""
    doc = {
        "item": [
            {
                "k": draw(scalars),
                "v": draw(scalars),
                "sub": [{"x": draw(scalars)} for _ in range(draw(st.integers(0, 2)))],
            }
            for _ in range(draw(st.integers(1, 3)))
        ]
    }
    return build_tree(doc, tag="root")


@st.composite
def column_extractors(draw, depth=2):
    extractor = Var()
    for _ in range(draw(st.integers(0, depth))):
        kind = draw(st.sampled_from(["children", "pchildren", "descendants"]))
        tag = draw(st.sampled_from(["item", "k", "v", "sub", "x"]))
        if kind == "children":
            extractor = Children(extractor, tag)
        elif kind == "descendants":
            extractor = Descendants(extractor, tag)
        else:
            extractor = PChildren(extractor, tag, draw(st.integers(0, 1)))
    return extractor


@st.composite
def node_extractors(draw):
    extractor = NodeVar()
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            extractor = Parent(extractor)
        else:
            extractor = __import__("repro.dsl", fromlist=["Child"]).Child(
                extractor, draw(st.sampled_from(["k", "v", "x"])), 0
            )
    return extractor


# --------------------------------------------------------------------------- #
# HDT properties
# --------------------------------------------------------------------------- #


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(json_docs)
def test_json_roundtrip_preserves_scalars(doc):
    """json -> HDT -> json preserves every leaf value (as a multiset)."""
    tree = json_to_hdt({"root_value": doc})
    def leaves(value):
        if isinstance(value, dict):
            out = []
            for v in value.values():
                out.extend(leaves(v))
            return out
        if isinstance(value, list):
            out = []
            for v in value:
                out.extend(leaves(v))
            return out
        return [value]

    original = sorted(map(repr, leaves(doc)))
    restored = sorted(repr(n.data) for n in tree.nodes() if n.is_leaf() and n.data is not None)
    # Empty containers become leaves with data None and are excluded; every
    # original scalar must survive.
    assert all(item in restored for item in original) or original == restored


@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(small_trees())
def test_document_order_and_size_invariants(tree):
    nodes = list(tree.nodes())
    assert len(nodes) == tree.size()
    assert len({n.uid for n in nodes}) == len(nodes)
    for node in nodes:
        for child in node.children:
            assert child.parent is node


# --------------------------------------------------------------------------- #
# DSL / optimizer equivalence
# --------------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_trees(), column_extractors(), column_extractors())
def test_optimizer_equals_naive_semantics(tree, left, right):
    """The cross-product-free executor agrees with the formal semantics."""
    program = Program(
        TableExtractor((left, right)),
        CompareNodes(Parent(NodeVar()), 0, Op.EQ, Parent(NodeVar()), 1),
    )
    assert sorted(map(repr, execute(program, tree))) == sorted(
        map(repr, run_program(program, tree))
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_trees(), column_extractors())
def test_true_filter_returns_all_extracted_tuples(tree, extractor):
    program = Program(TableExtractor((extractor,)), True_())
    rows = run_program(program, tree)
    table = eval_table(program.table, tree)
    assert len(rows) == len(table)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_trees(), column_extractors(), node_extractors(), node_extractors())
def test_cnf_conversion_preserves_semantics(tree, extractor, ne1, ne2):
    """Converting a predicate to CNF and back does not change its value."""
    from repro.dsl import And, Not, Or

    atom1 = CompareNodes(ne1, 0, Op.EQ, ne2, 1)
    atom2 = CompareNodes(NodeVar(), 0, Op.EQ, NodeVar(), 1)
    predicate = Or(And(atom1, atom2), Not(atom1))
    rebuilt = clauses_to_predicate(to_cnf_clauses(predicate))
    table = TableExtractor((extractor, extractor))
    for row in eval_table(table, tree)[:20]:
        assert eval_predicate(predicate, row) == eval_predicate(rebuilt, row)


# --------------------------------------------------------------------------- #
# Naive / planned / streamed executor equivalence (PR-2 acceptance: ≥200
# random program/tree pairs across the three properties below)
# --------------------------------------------------------------------------- #

#: Small value domains force value collisions, so random programs exercise
#: value-equality hash joins (including bool/number cross-type equality).
join_scalars = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from(["a", "b", "c"]),
    st.booleans(),
    st.sampled_from([1.0, 2.0]),
)

comparison_ops = st.sampled_from([Op.EQ, Op.EQ, Op.EQ, Op.NE, Op.LT, Op.GE])


@st.composite
def join_trees(draw):
    """Documents with heavily repeated leaf values (join-friendly)."""
    doc = {
        "item": [
            {
                "k": draw(join_scalars),
                "v": draw(join_scalars),
                "sub": [{"x": draw(join_scalars)} for _ in range(draw(st.integers(0, 2)))],
            }
            for _ in range(draw(st.integers(1, 4)))
        ]
    }
    return build_tree(doc, tag="root")


@st.composite
def random_predicates(draw, arity):
    """Random filter predicates: node/const comparisons under ∧ ∨ ¬."""

    def draw_atom():
        if draw(st.booleans()):
            return CompareNodes(
                draw(node_extractors()),
                draw(st.integers(0, arity - 1)),
                draw(comparison_ops),
                draw(node_extractors()),
                draw(st.integers(0, arity - 1)),
            )
        return CompareConst(
            draw(node_extractors()),
            draw(st.integers(0, arity - 1)),
            draw(comparison_ops),
            draw(join_scalars),
        )

    predicate = draw_atom()
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(["and", "or", "not"]))
        if shape == "and":
            predicate = And(predicate, draw_atom())
        elif shape == "or":
            predicate = Or(predicate, draw_atom())
        else:
            predicate = Not(predicate)
    return predicate


@st.composite
def random_programs(draw, max_arity=3):
    arity = draw(st.integers(1, max_arity))
    columns = tuple(draw(column_extractors()) for _ in range(arity))
    return Program(TableExtractor(columns), draw(random_predicates(arity)))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_trees(), st.data())
def test_naive_planned_streamed_executors_agree(tree, data):
    """run_program (formal semantics) == execute (planned) == iter (streamed).

    The planner's greedy join ordering may enumerate rows in a different
    order than the naive cross product (it seeds the walk on the smallest
    column), so agreement with the formal semantics is as a multiset; the
    planned and streamed paths must agree exactly, order included.
    """
    program = data.draw(random_programs())
    naive = run_program(program, tree)
    planned = execute(program, tree)
    streamed = [tuple(n.data for n in row) for row in iter_execute_nodes(program, tree)]
    assert sorted(map(repr, planned)) == sorted(map(repr, naive))
    assert streamed == planned


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_trees(), st.data())
def test_streamed_node_tuples_match_formal_semantics(tree, data):
    """Tuple-level (not just data-level) agreement with Figure 7."""
    program = data.draw(random_programs())

    def key(rows):
        return sorted(tuple(node.uid for node in row) for row in rows)

    naive_nodes = run_program_nodes(program, tree)
    streamed_nodes = list(iter_execute_nodes(program, tree))
    assert key(streamed_nodes) == key(naive_nodes)
    assert execute_nodes(program, tree) == streamed_nodes


def _first_occurrence_contents(node_rows):
    seen, out = set(), []
    for row in node_rows:
        content = tuple(node.data for node in row)
        if content not in seen:
            seen.add(content)
            out.append(content)
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_trees(), st.data())
def test_fused_projection_preserves_content_rows(tree, data):
    """With an all-DATA projection the executor may collapse join groups, but
    the deduplicated content rows (what a natural-key table stores) must be
    identical — values and first-occurrence order — to full enumeration
    through the same planned pipeline, and the same multiset as the formal
    semantics."""
    program = data.draw(random_programs())
    projection = TupleProjection(tuple(DATA for _ in range(program.arity)))
    fused = _first_occurrence_contents(
        iter_execute_nodes(program, tree, projection=projection)
    )
    unfused = _first_occurrence_contents(iter_execute_nodes(program, tree))
    assert fused == unfused
    naive = _first_occurrence_contents(run_program_nodes(program, tree))
    assert sorted(map(repr, fused)) == sorted(map(repr, naive))


@st.composite
def disjunctive_joins(draw, arity):
    """``Or`` of 2–3 EQ node comparisons over one column pair, each literal
    oriented either way: one disjunctive hash-join clause."""
    pair = draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True))
    sides = st.one_of(st.just(NodeVar()), node_extractors())
    literals = []
    for _ in range(draw(st.integers(2, 3))):
        left, right = pair if draw(st.booleans()) else pair[::-1]
        literals.append(CompareNodes(draw(sides), left, Op.EQ, draw(sides), right))
    return functools.reduce(Or, literals)


@st.composite
def disjunctive_programs(draw):
    """Programs whose predicate holds a disjunctive join, alone, beside a
    second one, or beside a random predicate."""
    arity = draw(st.integers(2, 3))
    columns = tuple(draw(column_extractors()) for _ in range(arity))
    predicate = draw(disjunctive_joins(arity))
    extra = draw(st.sampled_from(["none", "join", "random"]))
    if extra == "join":
        predicate = And(predicate, draw(disjunctive_joins(arity)))
    elif extra == "random":
        predicate = And(predicate, draw(random_predicates(arity)))
    return Program(TableExtractor(columns), predicate)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_trees(), st.data())
def test_disjunctive_join_matches_formal_semantics(tree, data):
    """A disjunctive clause runs as a hash join (the union of one index per
    alternative): its node tuples equal Figure 7's as a multiset, and fused
    first-occurrence content rows equal unfused ones, order included."""
    program = data.draw(disjunctive_programs())
    assert any(len(join) > 1 for join in plan(program).joins)

    def key(rows):
        return sorted(tuple(node.uid for node in row) for row in rows)

    streamed = list(iter_execute_nodes(program, tree))
    assert key(streamed) == key(run_program_nodes(program, tree))
    projection = TupleProjection(tuple(DATA for _ in range(program.arity)))
    fused = iter_execute_nodes(program, tree, projection=projection)
    assert _first_occurrence_contents(fused) == _first_occurrence_contents(streamed)


#: Leaf-valued columns, so value joins find several partners per node.
leaf_columns = st.sampled_from(["k", "v", "x"]).map(lambda tag: Descendants(Var(), tag))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    join_trees(),
    st.one_of(leaf_columns, column_extractors()),
    st.one_of(leaf_columns, column_extractors()),
    st.data(),
)
def test_disjunctive_join_keeps_nested_loop_order(tree, left, right, data):
    """Two columns and one disjunctive join: the rows come in the order of the
    nested loop that checks the clause on every pair — the smaller column
    outside (the lower index on a tie), both in column order."""
    program = Program(TableExtractor((left, right)), data.draw(disjunctive_joins(2)))
    columns = [eval_column_on_tree(extractor, tree) for extractor in (left, right)]
    outer = min((0, 1), key=lambda column: (len(columns[column]), column))
    expected = []
    for first in columns[outer]:
        for second in columns[1 - outer]:
            row = (first, second) if outer == 0 else (second, first)
            if eval_predicate(program.predicate, row):
                expected.append(tuple(node.uid for node in row))
    actual = [tuple(node.uid for node in row) for row in iter_execute_nodes(program, tree)]
    assert actual == expected


@st.composite
def value_join_programs(draw):
    """The shape of the Table 2 programs: leaf-valued columns, one EQ value
    join between bare ``NodeVar``s (so hash groups repeat values and the seed
    collapses on its join key), and up to one more clause of any comparison,
    possibly OR-ed (non-EQ literals keep a clause out of the joins).  Or no
    clause at all: a cross product."""
    arity = draw(st.integers(2, 3))
    columns = tuple(
        Descendants(Var(), draw(st.sampled_from(["k", "v", "x", "sub"]))) for _ in range(arity)
    )

    def pair():
        return draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True))

    def side():
        return NodeVar() if draw(st.booleans()) else draw(node_extractors())

    def clause():
        columns = pair()
        literals = []
        for _ in range(draw(st.integers(1, 2))):
            left, right = columns if draw(st.booleans()) else columns[::-1]
            literals.append(CompareNodes(side(), left, draw(comparison_ops), side(), right))
        return functools.reduce(Or, literals)

    if draw(st.integers(0, 4)) == 0:
        return Program(TableExtractor(columns), True_())
    left, right = pair()
    predicate = CompareNodes(NodeVar(), left, Op.EQ, NodeVar(), right)
    if draw(st.booleans()):
        predicate = And(predicate, clause())
    return Program(TableExtractor(columns), predicate)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_trees(), st.data())
def test_projection_keeps_first_rows(tree, data):
    """Under a projection of DATA / IGNORED columns the executor may collapse
    seeds and hash groups, and with a ``key`` it yields one row per key
    value.  The rows a natural-key table keeps — the first per key value, or
    per consumed content without a key — must be full enumeration's: same
    values in the consumed columns, same order.  Full enumeration itself
    equals Figure 7 as a multiset."""
    program = data.draw(st.one_of(random_programs(), disjunctive_programs(), value_join_programs()))
    arity = program.arity
    key = data.draw(st.one_of(st.none(), st.integers(0, arity - 1)))
    kinds = tuple(
        DATA if column == key else data.draw(st.sampled_from([DATA, IGNORED]))
        for column in range(arity)
    )

    def kept(rows):
        seen, out = set(), []
        for row in rows:
            content = tuple(repr(row[c].data) for c in range(arity) if kinds[c] == DATA)
            identity = content if key is None else row[key].data
            if identity in seen:
                continue
            seen.add(identity)
            out.append(content)
        return out

    full = list(iter_execute_nodes(program, tree))
    assert sorted(tuple(n.uid for n in row) for row in full) == sorted(
        tuple(n.uid for n in row) for row in run_program_nodes(program, tree)
    )
    projected = list(iter_execute_nodes(program, tree, projection=TupleProjection(kinds, key=key)))
    if key is not None:
        assert len(kept(projected)) == len(projected)
    assert kept(projected) == kept(full)


def test_tuple_projection_validates_key():
    assert TupleProjection((IGNORED, DATA), key=1).key == 1
    for kinds, key in (
        ((DATA, IGNORED), 1),  # not a data column
        ((IDENTITY,), 0),
        ((DATA,), 1),  # out of range
        ((DATA,), -1),
    ):
        with pytest.raises(ValueError, match="key column"):
            TupleProjection(kinds, key=key)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_trees(), column_extractors())
def test_tag_index_eval_column_parity(tree, extractor):
    """The TagIndex-backed column scan equals the plain traversal."""
    assert eval_column_on_tree(extractor, tree) == eval_column_on_tree(
        extractor, tree, use_index=False
    )


# --------------------------------------------------------------------------- #
# Quine–McCluskey and set cover properties
# --------------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_qm_minimization_is_correct(num_vars, data):
    universe = list(range(1 << num_vars))
    on_set = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    remaining = [m for m in universe if m not in on_set]
    dc_set = data.draw(st.lists(st.sampled_from(remaining), unique=True, max_size=len(remaining))) if remaining else []
    implicants = minimize_bits(num_vars, on_set, dc_set)
    for minterm in on_set:
        assert evaluate_dnf(implicants, minterm_to_bits(minterm, num_vars))
    off_set = [m for m in universe if m not in on_set and m not in dc_set]
    for minterm in off_set:
        assert not evaluate_dnf(implicants, minterm_to_bits(minterm, num_vars))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_set_cover_solvers_agree_on_validity_and_optimality(data):
    num_elements = data.draw(st.integers(min_value=1, max_value=6))
    universe = set(range(num_elements))
    sets = data.draw(
        st.lists(
            st.sets(st.integers(0, num_elements - 1), min_size=1, max_size=num_elements),
            min_size=1,
            max_size=6,
        )
    )
    covered = set().union(*sets)
    if not universe.issubset(covered):
        universe = covered
    if not universe:
        return
    masks = [mask_from_indices(s) for s in sets]
    universe_mask = mask_from_indices(universe)
    exact = branch_and_bound_cover_bits(masks, universe_mask)
    ilp = ilp_cover_bits(masks, universe_mask)
    greedy = greedy_cover_bits(masks, universe_mask)
    for solution in (exact, ilp, greedy):
        chosen = set().union(*(sets[i] for i in solution)) if solution else set()
        assert universe.issubset(chosen)
    assert len(exact) == len(ilp)
    assert len(greedy) >= len(exact)
