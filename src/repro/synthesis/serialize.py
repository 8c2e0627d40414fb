"""Lossless JSON serialization of :class:`SynthesisContext` artifacts, and the
configuration fingerprint.

:func:`config_fingerprint` keys the runtime's spec store
(:class:`~repro.runtime.context_store.ContextStore`): programs learned under
other search bounds are never reused.  The context codec
(:func:`serialize_context` / :func:`deserialize_context`, and the
``context_dumps`` / ``context_loads`` string forms) has no caller in the
learn path: the spec store reuses whole table programs instead, and a
persisted context made relearning slower.  It is kept, with its round-trip
oracles, because the benchmark's ``relearn_warm`` workload times it.

Everything a :class:`~repro.synthesis.context.SynthesisContext` has learned
that is a pure function of (example trees, configuration) gets a stable wire
format in the ``dsl/serialize.py`` idiom, so a synthesizer can be seeded with
the caches instead of recomputing them:

* per-tree facts — the instantiated operator alphabet, the document
  constants, and the ``value → node`` equality classes used for DFA
  acceptance;
* learned column-extractor lists keyed by ``(trees, column values)``;
* valid node-extractor sets χi keyed by ``(trees, column node-list
  signature)``;
* whole predicate universes keyed by ``(trees, per-column node-list
  signatures)``.

Node uids are process-local counters, so they never appear on the wire:
nodes are addressed by their **preorder position**, and trees by their
:meth:`~repro.hdt.tree.HDT.content_fingerprint`.  Deserialization re-keys
every artifact against the session's own tree objects — a tree whose
fingerprint does not match any provided tree is dropped entirely (its cache
entries would be meaningless), which also makes loading tolerant of stale
store entries.

What is deliberately *not* serialized: the :class:`TreeAutomaton` (its
interned states fill in demand order, so persisting them could change how the
``max_dfa_states`` budget binds), the ``(ϕ, node) → target`` memo and the
per-predicate satisfying-node-set cache (both keyed by raw uids and cheap to
rebuild for the tables actually re-synthesized), the column-signature memo
(one column evaluation per entry), and the per-tree evaluation caches
(derived data).  Because every serialized
cache is a deterministic function of its key, a rehydrated context produces
**byte-identical programs** to a cold run — the oracle of the benchmark's
``relearn_warm`` workload.

The round-trip property — rehydrating a payload against the same trees
reproduces every cache dictionary exactly — is enforced by
``tests/test_context_serialize.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as _dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.serialize import (
    Json,
    SerializationError,
    column_from_json,
    column_to_json,
    node_extractor_from_json,
    node_extractor_to_json,
    op_from_json,
    op_to_json,
    predicate_from_json,
    predicate_to_json,
    scalar_from_json,
    scalar_to_json,
)
from ..hdt.node import Node
from ..hdt.tree import HDT
from .column_learner import CHILDREN, DESCENDANTS, PCHILDREN
from .config import SynthesisConfig
from .context import SynthesisContext, _is_nan

CONTEXT_FORMAT_VERSION = 2
"""Bumped whenever the context wire format changes incompatibly; only this
version loads.  Version 2 keys χi and universe entries by **node-list
signatures** (per-tree preorder positions of the nodes a column extracts),
matching the in-memory cache keys of
:class:`~repro.synthesis.context.SynthesisContext`.
"""

_OP_FIELDS = {"constant_ops", "node_pair_ops"}


# --------------------------------------------------------------------------- #
# Synthesis configuration
# --------------------------------------------------------------------------- #


def config_to_json(config: SynthesisConfig) -> Json:
    """Serialize a :class:`SynthesisConfig` (operator sets become sorted lists)."""
    payload: Dict[str, Json] = {"kind": "synthesis_config"}
    for field in _dataclass_fields(SynthesisConfig):
        value = getattr(config, field.name)
        if field.name in _OP_FIELDS:
            value = sorted(op_to_json(op) for op in value)
        payload[field.name] = value
    return payload


def config_from_json(payload: Json) -> SynthesisConfig:
    """Inverse of :func:`config_to_json`; unknown fields are ignored, missing
    fields take their defaults (so old payloads keep loading)."""
    if not isinstance(payload, dict) or payload.get("kind") != "synthesis_config":
        raise SerializationError("payload is not a serialized synthesis config")
    kwargs: Dict[str, object] = {}
    for field in _dataclass_fields(SynthesisConfig):
        if field.name not in payload:
            continue
        value = payload[field.name]
        if field.name in _OP_FIELDS:
            value = frozenset(op_from_json(symbol) for symbol in value)
        kwargs[field.name] = value
    return SynthesisConfig(**kwargs)  # type: ignore[arg-type]


def config_fingerprint(config: SynthesisConfig) -> str:
    """A stable hex digest identifying a configuration's search bounds.

    Learned artifacts depend on the bounds (a tighter cap learns shorter
    lists), so the :class:`~repro.runtime.context_store.ContextStore` keys
    every spec snapshot by this digest alongside the spec fingerprint.
    """
    canonical = json.dumps(config_to_json(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Alphabet symbols
# --------------------------------------------------------------------------- #


def _symbol_to_json(symbol: Tuple) -> Json:
    return list(symbol)


# --------------------------------------------------------------------------- #
# Context serialization
# --------------------------------------------------------------------------- #


def _has_nan(values) -> bool:
    return any(_is_nan(value) for value in values)


class _Pool:
    """Deduplicating side table for AST payloads.

    The per-universe predicate lists overlap heavily (χi pieces recur across
    candidate column sets), so each distinct AST is serialized once into a
    shared pool and referenced by index — an order-of-magnitude saving in
    both payload size and (de)serialization time, which is what keeps warm
    incremental learns cheaper than the synthesis they replace.
    """

    def __init__(self, to_json) -> None:
        self._to_json = to_json
        self._index: Dict[object, int] = {}
        self.items: List[Json] = []

    def ref(self, obj) -> int:
        position = self._index.get(obj)
        if position is None:
            position = len(self.items)
            self._index[obj] = position
            self.items.append(self._to_json(obj))
        return position


def serialize_context(context: SynthesisContext) -> Json:
    """Serialize every persistable artifact of a context.

    Cache keys that embed tree identities are rewritten as indices into the
    payload's ``trees`` array; node uids are rewritten as preorder positions;
    column extractors, node extractors and predicates are interned into
    shared pools and referenced by index.  Entries whose keys contain NaN are
    skipped — NaN equals nothing under ``compare_values``, so such entries
    can never be looked up again anyway.
    """
    trees = context.trees()
    tree_index = {id(tree): position for position, tree in enumerate(trees)}
    preorder: List[Dict[int, int]] = [
        {node.uid: position for position, node in enumerate(tree.nodes())}
        for tree in trees
    ]

    def trees_ref(trees_key: Tuple[int, ...]) -> Optional[List[int]]:
        refs = []
        for tree_id in trees_key:
            position = tree_index.get(tree_id)
            if position is None:  # pragma: no cover - keys always come from facts
                return None
            refs.append(position)
        return refs

    tree_payloads: List[Json] = []
    for position, tree in enumerate(trees):
        facts = context.facts(tree)
        entry: Dict[str, Json] = {
            "fingerprint": tree.content_fingerprint(),
            "size": tree.size(),
        }
        # Lazy facts are serialized only once computed; omitted fields simply
        # rehydrate lazily again.
        if facts.has_alphabet():
            entry["alphabet"] = [_symbol_to_json(s) for s in facts.alphabet]
        if facts.has_constants():
            entry["constants"] = [scalar_to_json(c) for c in facts.constants]
        value_uids = facts.value_classes()
        if value_uids is not None:
            uid_to_pos = preorder[position]
            entry["value_classes"] = [
                [scalar_to_json(value), sorted(uid_to_pos[uid] for uid in uids)]
                for value, uids in value_uids.items()
            ]
        tree_payloads.append(entry)

    columns_pool = _Pool(column_to_json)
    node_extractors_pool = _Pool(node_extractor_to_json)
    predicates_pool = _Pool(predicate_to_json)

    column_results: List[Json] = []
    for (trees_key, values_key), extractors in context.column_results.items():
        refs = trees_ref(trees_key)
        if refs is None or any(_has_nan(example) for example in values_key):
            continue
        column_results.append(
            {
                "trees": refs,
                "values": [
                    [scalar_to_json(v) for v in example] for example in values_key
                ],
                "extractors": [columns_pool.ref(e) for e in extractors],
            }
        )

    def sig_to_json(refs: List[int], sig: Tuple[Tuple[int, ...], ...]) -> Json:
        # One uid tuple per tree, aligned with ``refs``; uids become preorder
        # positions so the signature survives process boundaries.
        return [
            [preorder[tree_pos][uid] for uid in uids]
            for tree_pos, uids in zip(refs, sig)
        ]

    chi: List[Json] = []
    for (trees_key, sig), extractors in context.chi.items():
        refs = trees_ref(trees_key)
        if refs is None:
            continue
        chi.append(
            {
                "trees": refs,
                "signature": sig_to_json(refs, sig),
                "extractors": [node_extractors_pool.ref(e) for e in extractors],
            }
        )

    universes: List[Json] = []
    for (trees_key, sigs), predicates in context.universes.items():
        refs = trees_ref(trees_key)
        if refs is None:
            continue
        universes.append(
            {
                "trees": refs,
                "signatures": [sig_to_json(refs, sig) for sig in sigs],
                "predicates": [predicates_pool.ref(p) for p in predicates],
            }
        )

    payload: Dict[str, Json] = {
        "kind": "synthesis_context",
        "version": CONTEXT_FORMAT_VERSION,
        "trees": tree_payloads,
        "columns_pool": columns_pool.items,
        "node_extractors_pool": node_extractors_pool.items,
        "predicates_pool": predicates_pool.items,
        "column_results": column_results,
        "chi": chi,
        "universes": universes,
    }
    if context.config is not None:
        payload["config"] = config_to_json(context.config)
    return payload


def _index(value: Json, size: int, what: str) -> int:
    """A list index from the wire: an int (not a bool) inside ``[0, size)``."""
    if type(value) is not int or not 0 <= value < size:
        raise SerializationError(f"{what} {value!r} is out of range")
    return value


_SYMBOL_ARITY = {CHILDREN: 2, DESCENDANTS: 2, PCHILDREN: 3}


def _symbol_from_json(payload: Json) -> Tuple:
    if (
        not isinstance(payload, list)
        or not payload
        or not isinstance(payload[0], str)
        or _SYMBOL_ARITY.get(payload[0]) != len(payload)
    ):
        raise SerializationError(f"malformed alphabet symbol payload: {payload!r}")
    return tuple(payload)


def deserialize_context(
    payload: Json,
    trees: Sequence[HDT],
    context: Optional[SynthesisContext] = None,
) -> SynthesisContext:
    """Rehydrate serialized artifacts against this session's tree objects.

    ``trees`` are matched to the payload's trees by content fingerprint; the
    artifacts of unmatched payload trees are dropped.  When ``context`` is
    given, entries are merged into it without overwriting anything already
    present (used to fold ``--jobs`` worker payloads back into the parent);
    otherwise a fresh context is returned.

    A payload that is not a version-2 context, or has any malformed entry,
    raises :class:`SerializationError` and leaves ``context`` untouched.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "synthesis_context":
        raise SerializationError("payload is not a serialized synthesis context")
    version = payload.get("version")
    if type(version) is not int or version != CONTEXT_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported context format version {version!r} "
            f"(this build reads version {CONTEXT_FORMAT_VERSION})"
        )
    try:
        facts, caches = _decode_context(payload, trees)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as error:
        # Decoding indexes into the payload directly; any of these means an
        # entry does not have the shape the serializer writes.
        raise SerializationError(f"malformed synthesis context: {error!r}") from error

    if context is None:
        context = SynthesisContext()
    for tree, alphabet, constants, value_classes in facts:
        tree_facts = context.facts(tree)
        if alphabet is not None and not tree_facts.has_alphabet():
            tree_facts.preload_alphabet(alphabet)
        if constants is not None and not tree_facts.has_constants():
            tree_facts.preload_constants(constants)
        if value_classes is not None and tree_facts.value_classes() is None:
            tree_facts.preload_value_classes(value_classes)
    targets = (context.column_results, context.chi, context.universes)
    for target, decoded in zip(targets, caches):
        for key, value in decoded.items():
            target.setdefault(key, value)
    return context


def _decode_context(payload: Dict, trees: Sequence[HDT]):
    """Per-tree facts and the three cache dictionaries of a version-2 payload."""
    tree_entries = payload.get("trees", [])
    by_fingerprint = {tree.content_fingerprint(): tree for tree in trees}
    matched: Dict[int, HDT] = {}
    nodes_of: Dict[int, List[Node]] = {}
    facts = []
    for position, entry in enumerate(tree_entries):
        tree = by_fingerprint.get(entry.get("fingerprint"))
        if tree is None:
            continue
        preorder = list(tree.nodes())
        if len(preorder) != entry.get("size", len(preorder)):
            continue  # defensive: fingerprint match implies equal size
        matched[position] = tree
        nodes_of[position] = preorder
        alphabet = constants = value_classes = None
        if "alphabet" in entry:
            alphabet = [_symbol_from_json(s) for s in entry["alphabet"]]
        if "constants" in entry:
            constants = [scalar_from_json(c) for c in entry["constants"]]
        if "value_classes" in entry:
            value_classes = {
                scalar_from_json(value): frozenset(
                    preorder[_index(pos, len(preorder), "node position")].uid
                    for pos in positions
                )
                for value, positions in entry["value_classes"]
            }
        facts.append((tree, alphabet, constants, value_classes))

    def trees_key(entry: Dict) -> Optional[Tuple[int, ...]]:
        refs = [_index(ref, len(tree_entries), "tree reference") for ref in entry["trees"]]
        if not all(ref in matched for ref in refs):
            return None
        return tuple(id(matched[ref]) for ref in refs)

    def pooled(pool: List, refs: Json) -> List:
        return [pool[_index(ref, len(pool), "pool reference")] for ref in refs]

    def sig_from_json(refs: List[int], payload_sig: Json) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(
                nodes_of[ref][_index(pos, len(nodes_of[ref]), "node position")].uid
                for pos in positions
            )
            for ref, positions in zip(refs, payload_sig)
        )

    # Decode each pooled AST exactly once; every reference shares the object
    # (the AST dataclasses are frozen, so sharing is safe).
    columns_pool = [column_from_json(c) for c in payload.get("columns_pool", [])]
    node_extractors_pool = [
        node_extractor_from_json(e) for e in payload.get("node_extractors_pool", [])
    ]
    predicates_pool = [
        predicate_from_json(p) for p in payload.get("predicates_pool", [])
    ]

    column_results: Dict = {}
    for entry in payload.get("column_results", []):
        key = trees_key(entry)
        if key is not None:
            values = tuple(
                tuple(scalar_from_json(v) for v in example) for example in entry["values"]
            )
            column_results.setdefault(
                (key, values), pooled(columns_pool, entry["extractors"])
            )

    chi: Dict = {}
    for entry in payload.get("chi", []):
        key = trees_key(entry)
        if key is not None:
            sig = sig_from_json(entry["trees"], entry["signature"])
            chi.setdefault((key, sig), pooled(node_extractors_pool, entry["extractors"]))

    universes: Dict = {}
    for entry in payload.get("universes", []):
        key = trees_key(entry)
        if key is not None:
            sigs = tuple(sig_from_json(entry["trees"], sig) for sig in entry["signatures"])
            universes.setdefault((key, sigs), pooled(predicates_pool, entry["predicates"]))

    return facts, (column_results, chi, universes)


def context_dumps(context: SynthesisContext, *, indent: int = 2) -> str:
    """Serialize a context straight to a JSON string."""
    return json.dumps(serialize_context(context), indent=indent, sort_keys=True)


def context_loads(
    text: str, trees: Sequence[HDT], context: Optional[SynthesisContext] = None
) -> SynthesisContext:
    """Inverse of :func:`context_dumps`."""
    return deserialize_context(json.loads(text), trees, context)
