"""Streaming, cross-product-free execution of synthesized programs.

Programs in the DSL are deliberately written as ``filter(π1 × ... × πk, φ)``,
which is easy to synthesize but expensive to execute naively: the intermediate
table is the full cartesian product of the extracted columns.  The paper
(Section 6, Appendix C) avoids materializing that product by using the filter
predicate to guide table generation; this module implements that idea as a
small query planner plus a *streaming* executor:

1. the predicate is converted to CNF (:mod:`repro.optimizer.cnf`);
2. *single-column* clauses are pushed down and applied while scanning the
   column they mention;
3. *equi-join* clauses are executed as hash joins — on node identity when the
   compared nodes are internal, on **canonical data values** when they are
   leaves (value-equality joins, e.g. columns related through a shared
   constant or position value).  A join clause is a disjunction of EQ
   comparisons over one pair of columns; a *disjunctive* join (two or more
   alternatives, e.g. "the movie's first or second genre equals t1") keeps
   one hash index per alternative and takes the union of their hits;
4. any residual clauses are applied to the final tuples.

Execution is a generator pipeline: :func:`iter_execute_nodes` yields node
tuples one at a time from a depth-first walk over the join steps, so no
intermediate tuple list is ever materialized and downstream consumers (the
migration engine's row generation, the runtime's backends) run in fixed
memory.

**Fused dedup.**  Value-equality joins can have output quadratic in the
document size even though the final table is linear: a join on a column with
``d`` distinct data values produces groups of ``n/d`` nodes each, while the
target table consumes only each node's *data* — so every group collapses to
one row per distinct value downstream.  When the caller passes a
:class:`TupleProjection` describing which columns the target table actually
consumes (by ``data``, by node ``identity``, or not at all), the executor
dedups each hash-join group to its representatives *before* the group is
enumerated, which restores linear output for exactly the quadratic case
(e.g. the DBLP author link tables joining on 3 distinct position values).
A column is fused only when nothing later in the pipeline can distinguish
the collapsed nodes: its projection is not ``identity``, no residual clause
mentions it, and every join clause involving it is applied at its own join
step.  The seed column (the first one bound) is collapsed the same way: to
one node per signature when it has no join, and to one node per (signature,
join key) when every join reads it through a bare ``NodeVar`` — later steps
see the seed only through those keys.

**Key cut.**  A projection may also name a ``key`` column: the consumer keeps
only the first row per data value of that column (a natural-key table's
primary key).  The walk then skips a key-level node whose value was already
yielded and, after each yield, abandons the rest of the current key node's
subtree, so the rows keygen would discard are never enumerated.

Column extraction is memoized so that columns sharing a prefix do not
re-traverse the document, and ``descendants``/``children`` steps answer from
the per-tree :class:`~repro.hdt.tree.TagIndex`.

The public entry points :func:`execute` / :func:`execute_nodes` are drop-in,
semantics-preserving replacements for
:func:`repro.dsl.semantics.run_program`; :func:`iter_execute_nodes` is the
streaming variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..dsl.ast import (
    Child,
    CompareConst,
    CompareNodes,
    NodeExtractor,
    NodeVar,
    Not,
    Op,
    Parent,
    Predicate,
    Program,
    True_,
)
from ..dsl.semantics import (
    DataTuple,
    EvaluationError,
    NodeTuple,
    eval_column_on_tree,
    eval_predicate,
)
from ..hdt.node import Node
from ..hdt.tree import HDT
from .cnf import (
    Clause,
    clause_column,
    clauses_to_predicate,
    is_single_column_clause,
    to_cnf_clauses,
)

#: Projection kinds: how the consumer of the node tuples uses one column.
IDENTITY = "identity"  # the node itself matters (surrogate keys, FK links)
DATA = "data"  # only ``node.data`` is consumed
IGNORED = "ignored"  # the column is never read

_KINDS = (IDENTITY, DATA, IGNORED)


@dataclass(frozen=True)
class TupleProjection:
    """What the consumer of an executed program reads from each tuple column.

    ``kinds[i]`` is one of :data:`IDENTITY` (node identity is consumed —
    e.g. surrogate-key generation hashes the node's uid), :data:`DATA` (only
    the node's leaf data value is consumed) or :data:`IGNORED` (the column is
    never read).  Two node tuples that agree on every consumed coordinate are
    interchangeable for the consumer, which is what licenses the executor's
    fused dedup.

    ``key`` (optional) names a :data:`DATA` column whose value the consumer
    deduplicates on, keeping only the first row per value — a natural-key
    table's primary key.  The executor then yields exactly those first rows
    (the key cut) instead of every tuple.
    """

    kinds: Tuple[str, ...]
    key: Optional[int] = None

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown projection kind {kind!r}")
        if self.key is not None and not (
            0 <= self.key < len(self.kinds) and self.kinds[self.key] == DATA
        ):
            raise ValueError(f"key column {self.key!r} is not a data column of {self.kinds}")

    @property
    def arity(self) -> int:
        return len(self.kinds)

    @staticmethod
    def identity(arity: int) -> "TupleProjection":
        """The projection that consumes every column by node identity."""
        return TupleProjection((IDENTITY,) * arity)


@dataclass
class ExecutionPlan:
    """A compiled execution strategy for one program."""

    program: Program
    projection: Optional[TupleProjection] = None
    pushdown: Dict[int, List[Clause]] = field(default_factory=dict)
    joins: List[Tuple[CompareNodes, ...]] = field(default_factory=list)
    """Join clauses: each a disjunction of EQ comparisons over one column pair."""
    residual: List[Clause] = field(default_factory=list)
    fusable: Set[int] = field(default_factory=set)
    stats: Dict[str, int] = field(default_factory=dict)
    """Counters from the most recent execution of this plan: join-step
    classification (``value_join_clauses`` / ``node_join_clauses``), columns
    actually fused (``fused_columns``), tuples enumerated through the pipeline
    (``partial_tuples``) and final rows yielded (``rows_yielded``)."""

    def describe(self) -> str:
        """Human-readable plan summary (used in logs and the ablation report)."""
        parts = [
            f"columns={self.program.arity}",
            f"pushdown_clauses={sum(len(v) for v in self.pushdown.values())}",
            f"hash_joins={len(self.joins)}",
            f"disjunctive_joins={sum(1 for join in self.joins if len(join) > 1)}",
            f"residual_clauses={len(self.residual)}",
            f"fusable_columns={sorted(self.fusable)}",
        ]
        if self.projection is not None and self.projection.key is not None:
            parts.append(f"key_column={self.projection.key}")
        if self.stats:
            parts.append(
                "value_joins={0}, node_joins={1}, fused_columns={2}".format(
                    self.stats.get("value_join_clauses", 0),
                    self.stats.get("node_join_clauses", 0),
                    self.stats.get("fused_columns", 0),
                )
            )
            parts.append(
                "partial_tuples={0}, rows={1}".format(
                    self.stats.get("partial_tuples", 0),
                    self.stats.get("rows_yielded", 0),
                )
            )
        return ", ".join(parts)


def _clause_columns(clause: Clause) -> Optional[Set[int]]:
    """Columns referenced by a clause, or ``None`` when unknown (opaque)."""
    columns: Set[int] = set()
    for literal in clause:
        target = literal.operand if isinstance(literal, Not) else literal
        if isinstance(target, CompareConst):
            columns.add(target.column)
        elif isinstance(target, CompareNodes):
            columns.add(target.left_column)
            columns.add(target.right_column)
        elif isinstance(target, True_):
            continue
        else:
            return None
    return columns


def _join_clause(clause: Clause) -> Optional[Tuple[CompareNodes, ...]]:
    """The clause as a hash join, or ``None`` when it is not one.

    A clause is a join when every literal is an EQ :class:`CompareNodes`
    between the same two different columns; each literal is one alternative
    of the join.
    """
    pair = None
    for literal in clause:
        if not isinstance(literal, CompareNodes) or literal.op is not Op.EQ:
            return None
        columns = frozenset((literal.left_column, literal.right_column))
        if len(columns) != 2 or pair not in (None, columns):
            return None
        pair = columns
    return tuple(clause) if pair is not None else None


def plan(program: Program, projection: Optional[TupleProjection] = None) -> ExecutionPlan:
    """Compile a program into an execution plan.

    ``projection`` (optional) describes what the consumer reads from each
    tuple column and enables the fused-dedup optimization; omitting it (or
    passing all-:data:`IDENTITY`) preserves the exact tuple-level semantics.
    """
    clauses = to_cnf_clauses(program.predicate)
    execution = ExecutionPlan(program=program, projection=projection)
    for clause in clauses:
        join = _join_clause(clause)
        if join is not None:
            execution.joins.append(join)
        elif is_single_column_clause(clause):
            execution.pushdown.setdefault(clause_column(clause), []).append(clause)
        else:
            execution.residual.append(clause)

    if projection is not None:
        # A column is statically fusable when the consumer does not need the
        # node's identity and no residual clause can inspect the node.  The
        # remaining (join-order-dependent) condition — every join clause
        # involving the column is applied at the column's own join step — is
        # checked at execution time.
        blocked: Set[int] = set()
        for clause in execution.residual:
            referenced = _clause_columns(clause)
            if referenced is None:
                blocked.update(range(program.arity))
            else:
                blocked.update(referenced)
        execution.fusable = {
            column
            for column in range(min(program.arity, projection.arity))
            if projection.kinds[column] != IDENTITY and column not in blocked
        }
    return execution


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #


def execute(program: Program, tree: HDT) -> List[DataTuple]:
    """Run a program without materializing the full cross product."""
    return [tuple(n.data for n in row) for row in iter_execute_nodes(program, tree)]


def execute_nodes(program: Program, tree: HDT) -> List[NodeTuple]:
    """Like :func:`execute` but return node tuples (used by the migration engine)."""
    return list(iter_execute_nodes(program, tree))


def iter_execute_nodes(
    program: Program,
    tree: HDT,
    *,
    projection: Optional[TupleProjection] = None,
    execution: Optional[ExecutionPlan] = None,
) -> Iterator[NodeTuple]:
    """Stream a program's surviving node tuples without materializing them.

    Tuples come in the order of a depth-first walk over the join order: the
    seed column's nodes in document order, and under each partial tuple the
    next column's matching nodes in document order.  Without a
    ``projection`` the stream is the exact filtered cross product in that
    order.  With one, hash-join groups whose members are indistinguishable to
    the consumer are collapsed to their first representatives before
    enumeration, and with a ``projection.key`` only the first tuple per key
    value is yielded (see the module docstring); either way the consumer's
    first-occurrence rows, and their order, are those of the full stream.
    Pass a pre-compiled ``execution`` plan to reuse planning work and to read
    back ``execution.stats`` afterwards.
    """
    if execution is None:
        execution = plan(program, projection)
    elif execution.program is not program:
        raise ValueError("execution plan was compiled for a different program")
    elif projection is not None and execution.projection != projection:
        raise ValueError("projection conflicts with the pre-compiled execution plan")
    return _iter_rows(execution, tree)


# --------------------------------------------------------------------------- #
# Execution internals
# --------------------------------------------------------------------------- #


def _eval_single_column(predicate: Predicate, node: Node, column: int, arity: int) -> bool:
    """Evaluate a single-column clause by placing the node at its column slot."""
    row = tuple(node for _ in range(arity))
    # Every literal in the clause references `column` only, so filling the
    # other slots with the same node is sound: they are never inspected.
    return eval_predicate(predicate, row)


def _compile_node_extractor(extractor: NodeExtractor):
    """Compile a node extractor into a closure (the executor's hot path).

    Equivalent to :func:`repro.dsl.semantics.eval_node_extractor` but without
    the per-call isinstance dispatch: the AST walk happens once at plan time.
    """
    if isinstance(extractor, NodeVar):
        return lambda node: node
    if isinstance(extractor, Parent):
        inner = _compile_node_extractor(extractor.source)

        def _parent(node, _inner=inner):
            target = _inner(node)
            return None if target is None else target.parent

        return _parent
    if isinstance(extractor, Child):
        inner = _compile_node_extractor(extractor.source)

        def _child(node, _inner=inner, _tag=extractor.tag, _pos=extractor.pos):
            target = _inner(node)
            return None if target is None else target.child_with(_tag, _pos)

        return _child
    raise EvaluationError(f"unknown node extractor: {extractor!r}")


def _key_for(extractor_fn, node: Node) -> Optional[Tuple]:
    """Hash key of a node under one side of an equi-join clause.

    Leaf targets key by their raw data value (value-equality joins); internal
    targets key by node identity.  The key equivalence is *exactly* the
    equivalence ``eval_predicate`` decides for an EQ clause:

    * Python's ``==``/``hash`` across ``bool``/``int``/``float`` agree with
      :func:`repro.dsl.semantics._values_equal` (``True == 1 == 1.0``,
      exact ``int``/``float`` comparison, no string/number coercion);
    * NaN — which EQ-compares false against everything, itself included —
      maps to ``None`` (⊥) so it never enters an index;
    * the ``"d"``/``"n"`` tags keep the two key spaces disjoint, so a leaf
      never joins an internal node.

    Because the match is exact, joined tuples need no re-check of their join
    clauses.
    """
    target = extractor_fn(node)
    if target is None:
        return None
    if not target.children:
        data = target.data
        if data != data:  # NaN
            return None
        return ("d", data)
    return ("n", target.uid)


def _signature(node: Node, kind: str):
    """Equivalence key of a node under a projection kind (fused dedup)."""
    if kind == IGNORED:
        return ()
    data = node.data
    # The raw class distinguishes 1 / 1.0 / True so the representative's
    # projected row is byte-identical to what full enumeration + downstream
    # content dedup would have produced first.
    return (data.__class__, data)


def _dedupe_by_signature(nodes: Sequence[Node], kind: str) -> List[Node]:
    """First occurrence per projection signature, preserving document order."""
    seen: Set = set()
    out: List[Node] = []
    for node in nodes:
        signature = _signature(node, kind)
        if signature not in seen:
            seen.add(signature)
            out.append(node)
    return out


def _build_index(
    column: int,
    literals: Sequence[CompareNodes],
    nodes: Sequence[Node],
    key_spaces: List[Set[str]],
):
    """One hash index of a join step: the key of every node of ``column``
    under ``literals`` (one per join clause), and the probe that computes the
    same key from a partial assignment.  ``key_spaces[i]`` collects the key
    spaces literal ``i`` met.
    """
    build_fns = []
    probes = []
    for literal in literals:
        # If the new column is the right operand of the literal, its key
        # comes from the right extractor; otherwise from the left one.
        if literal.right_column == column:
            build_fns.append(_compile_node_extractor(literal.right_extractor))
            probes.append((literal.left_column, _compile_node_extractor(literal.left_extractor)))
        else:
            build_fns.append(_compile_node_extractor(literal.left_extractor))
            probes.append((literal.right_column, _compile_node_extractor(literal.right_extractor)))
    single = len(build_fns) == 1
    index: Dict[Tuple, List] = {}
    for node in nodes:
        if single:
            key = _key_for(build_fns[0], node)
            if key is None:
                continue
            key_spaces[0].add(key[0])
        else:
            parts = []
            for position, fn in enumerate(build_fns):
                part = _key_for(fn, node)
                if part is None:
                    parts = None
                    break
                key_spaces[position].add(part[0])
                parts.append(part)
            if parts is None:
                continue
            key = tuple(parts)
        index.setdefault(key, []).append(node)
    return tuple(probes), index


def _probe_key(probes, assignment: List[Optional[Node]]) -> Optional[Tuple]:
    """The index key a partial assignment probes with (``None``: no match)."""
    if len(probes) == 1:
        bound_column, fn = probes[0]
        return _key_for(fn, assignment[bound_column])
    parts = []
    for bound_column, fn in probes:
        key = _key_for(fn, assignment[bound_column])
        if key is None:
            return None
        parts.append(key)
    return tuple(parts)


def _itself(node: Node) -> Node:
    return node


def _dedupe_seed(nodes: Sequence[Node], kind: str) -> List[Node]:
    """First occurrence per (projection signature, ``NodeVar`` join key)."""
    seen: Set = set()
    out: List[Node] = []
    for node in nodes:
        signature = (_signature(node, kind), _key_for(_itself, node))
        if signature not in seen:
            seen.add(signature)
            out.append(node)
    return out


class _JoinStep:
    """One join step: bind ``column`` given the already-bound assignment.

    A node matches when every join clause of the step has a matching
    alternative.  Without disjunctive clauses that is one hash index keyed by
    all clauses at once.  Otherwise the step keeps one index per combination
    of alternatives (one literal from each clause), and a partial tuple's
    candidates are the union of the combinations' probe hits, in column
    (document) order.  Because every key is exact EQ semantics
    (:func:`_key_for`), the union is exactly the disjunction.
    """

    __slots__ = ("index", "nodes", "_probes", "_single", "_alternatives", "_kind", "_rank")

    def __init__(
        self,
        column: int,
        joins: List[Tuple[CompareNodes, ...]],
        nodes: Sequence[Node],
        fused: bool,
        kind: str,
        stats: Dict[str, int],
    ) -> None:
        self._alternatives = None
        self._kind = kind if fused else None
        if not joins:
            # Disconnected column: nested-loop extension over the column scan
            # (deduped to representatives when fusable).
            self.index = None
            self.nodes = _dedupe_by_signature(nodes, kind) if fused else list(nodes)
            self._probes = ()
            self._single = True
            return
        key_spaces: List[Set[str]] = [set() for _ in joins]
        alternatives = []
        for literals in product(*joins):
            probes, index = _build_index(column, literals, nodes, key_spaces)
            if fused:
                # Collapse every hash group to its representatives *before*
                # any partial tuple enumerates it — this is the fused dedup.
                # With several alternatives it is exact before the union too:
                # the first node per signature in the union is the earliest
                # of the per-group firsts.
                index = {
                    key: group if len(group) < 2 else _dedupe_by_signature(group, kind)
                    for key, group in index.items()
                }
            alternatives.append((probes, index))
        self.nodes = None
        if len(alternatives) == 1:
            (self._probes, self.index), = alternatives
            self._single = len(joins) == 1
        else:
            self.index = None
            self._probes = ()
            self._single = False
            self._alternatives = tuple(alternatives)
            self._rank = {node.uid: position for position, node in enumerate(nodes)}
        # Classify each clause of this step by the key space it joined on.
        for spaces in key_spaces:
            if "d" in spaces:
                stats["value_join_clauses"] = stats.get("value_join_clauses", 0) + 1
            if "n" in spaces:
                stats["node_join_clauses"] = stats.get("node_join_clauses", 0) + 1

    def candidates(self, assignment: List[Optional[Node]]) -> Sequence[Node]:
        """Nodes that may extend the partial assignment at this column."""
        if self.index is None:
            if self._alternatives is None:
                return self.nodes
            return self._union(assignment)
        if self._single:
            bound_column, fn = self._probes[0]
            key = _key_for(fn, assignment[bound_column])
            if key is None:
                return ()
            return self.index.get(key, ())
        key = _probe_key(self._probes, assignment)
        if key is None:
            return ()
        return self.index.get(key, ())

    def _union(self, assignment: List[Optional[Node]]) -> Sequence[Node]:
        hits: Dict[int, Node] = {}
        rank = self._rank
        for probes, index in self._alternatives:
            key = _probe_key(probes, assignment)
            if key is not None:
                for node in index.get(key, ()):
                    hits[rank[node.uid]] = node
        if not hits:
            return ()
        union = [hits[position] for position in sorted(hits)]
        if self._kind is not None and len(union) > 1:
            union = _dedupe_by_signature(union, self._kind)
        return union


def _join_order(columns: List[List[Node]], joins: List[CompareNodes]) -> List[int]:
    """Greedy left-deep join ordering.

    Start from the column with the fewest candidate nodes, then repeatedly
    add the column connected to the current set by a join clause;
    disconnected columns are added last via nested-loop extension.
    """
    remaining = set(range(len(columns)))
    order: List[int] = []
    if remaining:
        first = min(remaining, key=lambda i: (len(columns[i]), i))
        order.append(first)
        remaining.remove(first)
    while remaining:
        connected = [
            i
            for i in remaining
            if any(
                (j.left_column in order and j.right_column == i)
                or (j.right_column in order and j.left_column == i)
                for j in joins
            )
        ]
        pool = connected or sorted(remaining)
        nxt = min(pool, key=lambda i: (len(columns[i]), i))
        order.append(nxt)
        remaining.remove(nxt)
    return order


_DONE = object()


def _iter_rows(execution: ExecutionPlan, tree: HDT) -> Iterator[NodeTuple]:
    program = execution.program
    arity = program.arity
    stats = execution.stats
    stats.clear()
    if arity == 0:
        return

    projection = execution.projection
    kinds = (
        projection.kinds
        if projection is not None
        else TupleProjection.identity(arity).kinds
    )

    # ----------------------------------------------------------- column scan
    cache: Dict = {}
    columns: List[List[Node]] = []
    for column_index, extractor in enumerate(program.table.columns):
        nodes = eval_column_on_tree(extractor, tree, cache=cache)
        for clause in execution.pushdown.get(column_index, []):
            predicate = clauses_to_predicate([clause])
            nodes = [
                node
                for node in nodes
                if _eval_single_column(predicate, node, column_index, arity)
            ]
        columns.append(nodes)
    stats["pushdown_clauses"] = sum(len(v) for v in execution.pushdown.values())

    # ------------------------------------------------------------ join order
    # Only single-literal joins steer the order.  The order decides which
    # row wins a primary key, so a disjunctive join leaves every table the
    # order of the nested loop it replaces (ordering by fan-out is separate
    # work).
    order = _join_order(columns, [join[0] for join in execution.joins if len(join) == 1])

    # ------------------------------------------------------------ join steps
    # Every literal of a join clause compares the same two columns, so the
    # first literal names the pair.
    def joins_involving(column: int) -> List[Tuple[CompareNodes, ...]]:
        return [
            j
            for j in execution.joins
            if j[0].left_column == column or j[0].right_column == column
        ]

    bound: Set[int] = {order[0]}
    steps: List[Optional[_JoinStep]] = [None]  # level 0 is the seed column
    fused_columns = 0
    for column_index in order[1:]:
        joins_here = [
            j
            for j in execution.joins
            if (j[0].left_column in bound and j[0].right_column == column_index)
            or (j[0].right_column in bound and j[0].left_column == column_index)
        ]
        # Fuse only when *every* clause that can see this column is applied
        # right here; a clause deferred to a later step (or to the residual)
        # could distinguish nodes the dedup would collapse.
        fuse = (
            column_index in execution.fusable
            and len(joins_involving(column_index)) == len(joins_here)
        )
        if fuse:
            fused_columns += 1
        steps.append(
            _JoinStep(
                column_index,
                joins_here,
                columns[column_index],
                fuse,
                kinds[column_index] if column_index < len(kinds) else IDENTITY,
                stats,
            )
        )
        bound.add(column_index)

    seed_column = order[0]
    seed_nodes = columns[seed_column]
    if seed_column in execution.fusable:
        seed_joins = joins_involving(seed_column)
        if not seed_joins:
            seed_nodes = _dedupe_by_signature(seed_nodes, kinds[seed_column])
            fused_columns += 1
        elif all(
            isinstance(
                literal.left_extractor
                if literal.left_column == seed_column
                else literal.right_extractor,
                NodeVar,
            )
            for join in seed_joins
            for literal in join
        ):
            # Later steps see the seed only through its join keys, and with
            # bare ``NodeVar`` sides every key is the node's own
            # ``_key_for``: nodes agreeing on (signature, key) are
            # interchangeable.  Other seed-side extractors are not worth the
            # key computations (docs/executor.md, "Seed collapse").
            seed_nodes = _dedupe_seed(seed_nodes, kinds[seed_column])
            fused_columns += 1
    stats["fused_columns"] = fused_columns

    # --------------------------------------------------------- streamed walk
    # Depth-first over the join steps: one partial assignment exists at a
    # time, and complete tuples are yielded as they are found — the generator
    # never holds an intermediate tuple list.
    # Every join clause is applied at exactly one step (the step of its
    # later-bound column), and the hash-key equivalence is exactly the EQ
    # semantics of ``eval_predicate`` (see :func:`_key_for`), so joined
    # tuples need no re-check — only residual clauses are evaluated here.
    residual_predicate = clauses_to_predicate(execution.residual)
    check_residual = not isinstance(residual_predicate, True_)
    levels = len(order)
    partial_tuples = 0
    rows_yielded = 0
    # Key cut: the consumer keeps the first row per key value, by the same
    # ``node.data`` objects and set semantics as keygen's ``seen_keys``.
    key_column = projection.key if projection is not None else None
    key_level = order.index(key_column) if key_column is not None else -1
    yielded_keys: Set = set()

    assignment: List[Optional[Node]] = [None] * arity
    stack: List[Iterator[Node]] = [iter(seed_nodes)]
    try:
        while stack:
            level = len(stack) - 1
            node = next(stack[level], _DONE)
            if node is _DONE:
                stack.pop()
                continue
            if level == key_level and node.data in yielded_keys:
                continue
            assignment[order[level]] = node
            partial_tuples += 1
            if level + 1 < levels:
                candidates = steps[level + 1].candidates(assignment)
                if candidates:
                    stack.append(iter(candidates))
                continue
            row = tuple(assignment)  # type: ignore[arg-type]
            if check_residual and not eval_predicate(residual_predicate, row):
                continue
            rows_yielded += 1
            if key_level >= 0:
                # Every further row under this key node repeats its key.
                yielded_keys.add(row[key_column].data)
                del stack[key_level + 1 :]
            yield row
    finally:
        stats["partial_tuples"] = partial_tuples
        stats["rows_yielded"] = rows_yielded
