"""Round-trip tests for SynthesisContext serialization (repro.synthesis.serialize).

The contract: rehydrating a serialized context against the same trees
reproduces every cache dictionary *exactly*, and rehydrating against a
structurally identical re-built tree (fresh node uids) re-keys node
references correctly.  Both matter — the former backs the on-disk
ContextStore, the latter is what makes cross-process / cross-session reuse
sound at all.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dsl.ast import Op
from repro.dsl.serialize import SerializationError
from repro.hdt import build_tree
from repro.synthesis import (
    ExamplePair,
    SynthesisConfig,
    SynthesisTask,
    Synthesizer,
)
from repro.synthesis.context import SynthesisContext
from repro.synthesis.serialize import (
    config_fingerprint,
    config_from_json,
    config_to_json,
    context_dumps,
    context_loads,
    deserialize_context,
    serialize_context,
)

# --------------------------------------------------------------------------- #
# Configuration round trip
# --------------------------------------------------------------------------- #


def test_config_round_trip_default_and_presets():
    for config in (
        SynthesisConfig(),
        SynthesisConfig.for_migration(),
        SynthesisConfig.fast(),
        SynthesisConfig(cover_strategy="greedy"),
        SynthesisConfig(constant_ops=frozenset({Op.LE, Op.NE}), max_constants=7),
    ):
        assert config_from_json(config_to_json(config)) == config


def test_config_fingerprint_tracks_bounds():
    base = SynthesisConfig()
    assert config_fingerprint(base) == config_fingerprint(SynthesisConfig())
    assert config_fingerprint(base) != config_fingerprint(
        SynthesisConfig(max_column_programs=7)
    )
    assert config_fingerprint(base) != config_fingerprint(
        SynthesisConfig(cover_strategy="greedy")
    )


def test_config_from_json_rejects_foreign_payloads():
    with pytest.raises(SerializationError):
        config_from_json({"kind": "program"})


def test_config_from_json_defaults_missing_fields():
    payload = {"kind": "synthesis_config", "max_column_programs": 5}
    config = config_from_json(payload)
    assert config.max_column_programs == 5
    assert config.max_dfa_states == SynthesisConfig().max_dfa_states


def test_config_from_json_ignores_retired_engine_switches():
    """Payloads written while the config still had engine switches load."""
    payload = config_to_json(SynthesisConfig.fast())
    payload.update(vectorized=False, candidate_caching=False)
    assert config_from_json(payload) == SynthesisConfig.fast()


# --------------------------------------------------------------------------- #
# Context round trip
# --------------------------------------------------------------------------- #

DOC = {
    "person": [
        {"name": "Ann", "age": 31, "city": "Oslo"},
        {"name": "Bob", "age": 24, "city": "Pune"},
        {"name": "Cid", "age": 31, "city": "Oslo"},
    ]
}


def _learned_context(tree, rows, config=SynthesisConfig.fast()):
    synthesizer = Synthesizer(config)
    task = SynthesisTask(examples=[ExamplePair(tree, [tuple(r) for r in rows])])
    result = synthesizer.synthesize(task)
    assert result.success
    return synthesizer.context


def _assert_contexts_equal(original, restored, old_tree, new_tree):
    """Cache-by-cache equality, tolerating the tree-identity re-keying.

    χi and universe keys embed node-list signatures (uid tuples); a rebuilt
    tree assigns fresh uids, so signatures are remapped by preorder position
    — exactly what (de)serialization does on the wire.
    """
    remap = {id(old_tree): id(new_tree)}
    uid_map = {
        old.uid: new.uid for old, new in zip(old_tree.nodes(), new_tree.nodes())
    }

    def rekey_trees(trees_key):
        return tuple(remap.get(t, t) for t in trees_key)

    def remap_sig(sig):
        return tuple(tuple(uid_map.get(uid, uid) for uid in uids) for uids in sig)

    assert {
        (rekey_trees(tk), rest): v
        for (tk, rest), v in original.column_results.items()
    } == dict(restored.column_results)
    assert {
        (rekey_trees(tk), remap_sig(sig)): v
        for (tk, sig), v in original.chi.items()
    } == dict(restored.chi)
    assert {
        (rekey_trees(tk), tuple(remap_sig(s) for s in sigs)): v
        for (tk, sigs), v in original.universes.items()
    } == dict(restored.universes)


def test_round_trip_same_tree_is_exact():
    tree = build_tree(DOC)
    context = _learned_context(tree, [("Ann", "Oslo"), ("Cid", "Oslo")])
    payload = serialize_context(context)
    restored = deserialize_context(
        json.loads(json.dumps(payload)), [tree]
    )
    _assert_contexts_equal(context, restored, tree, tree)
    original_facts = context.facts(tree)
    restored_facts = restored.facts(tree)
    assert restored_facts.alphabet == original_facts.alphabet
    assert restored_facts.constants == original_facts.constants
    assert restored_facts.value_classes() == original_facts.value_classes()


def test_round_trip_re_keys_against_rebuilt_tree():
    """A structurally identical tree has different uids; positions must map."""
    tree = build_tree(DOC)
    context = _learned_context(tree, [("Ann", 31), ("Bob", 24)])
    clone = build_tree(DOC)
    assert clone.root.uid != tree.root.uid
    restored = context_loads(context_dumps(context), [clone])
    _assert_contexts_equal(context, restored, tree, clone)
    # Value classes must reference the *clone's* nodes.
    value_classes = restored.facts(clone).value_classes()
    clone_uids = {n.uid for n in clone.nodes()}
    for uids in value_classes.values():
        assert uids <= clone_uids
    # And they must still mean the same thing: nodes carrying the value.
    assert value_classes == {
        value: frozenset(n.uid for n in clone.nodes() if n.data == value)
        for value in value_classes
    }
    assert restored.facts(clone).uids_for_value(31) == frozenset(
        n.uid for n in clone.nodes() if n.data == 31
    )


def test_unmatched_fingerprint_drops_entries():
    tree = build_tree(DOC)
    context = _learned_context(tree, [("Ann", "Oslo")])
    other = build_tree({"different": [1, 2, 3]})
    restored = context_loads(context_dumps(context), [other])
    assert restored.column_results == {}
    assert restored.chi == {}
    assert restored.universes == {}


def test_merge_into_existing_context_keeps_existing_entries():
    tree = build_tree(DOC)
    context = _learned_context(tree, [("Ann", "Oslo")])
    payload = serialize_context(context)
    target = SynthesisContext()
    sentinel_key = (
        (id(tree),),
        tuple(tuple(values) for values in [("Ann",)]),
    )
    sentinel = ["existing"]
    target.column_results[sentinel_key] = sentinel
    deserialize_context(payload, [tree], context=target)
    assert target.column_results[sentinel_key] is sentinel
    assert len(target.column_results) >= len(context.column_results)


def test_scalar_shapes_survive_the_trip():
    doc = {"rec": [{"flag": True, "n": 1, "x": 1.0, "s": "1"}]}
    tree = build_tree(doc)
    context = SynthesisContext()
    facts = context.facts(tree)
    _ = facts.alphabet, facts.constants
    facts.uids_for_value(True)  # force the value-class table
    restored = context_loads(context_dumps(context), [tree])
    constants = restored.facts(tree).constants
    # repr-level identity: True stayed bool, 1 stayed int, 1.0 stayed float.
    assert [repr(c) for c in constants] == [repr(c) for c in facts.constants]


def test_rejects_foreign_and_future_payloads():
    tree = build_tree(DOC)
    with pytest.raises(SerializationError):
        deserialize_context({"kind": "program"}, [tree])
    context = _learned_context(tree, [("Ann", "Oslo")])
    payload = serialize_context(context)
    payload["version"] = 999
    with pytest.raises(SerializationError):
        deserialize_context(payload, [tree])


@pytest.mark.parametrize(
    "change",
    [
        {"version": "2"},
        {"version": None},
        {"version": 2.0},
        {"version": True},
        {"trees": [5]},
        {"trees": {"fingerprint": "x"}},
        {"chi": [{"trees": [-1], "signature": [], "extractors": []}]},
    ],
    ids=repr,
)
def test_malformed_payloads_raise_serialization_error(change):
    tree = build_tree(DOC)
    payload = serialize_context(_learned_context(tree, [("Ann", "Oslo")]))
    payload.update(change)
    target = SynthesisContext()
    with pytest.raises(SerializationError):
        deserialize_context(payload, [tree], context=target)
    assert not target.trees()  # a refused payload merges nothing


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats(allow_nan=False)
    | st.sampled_from(["", "x", "children", "pchildren", "node_var", "int"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["kind", "version", "trees", "type", "value", "source"]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)
SECTIONS = ("trees", "columns_pool", "node_extractors_pool", "predicates_pool")
SECTIONS += ("column_results", "chi", "universes")


def _loads_or_is_refused(payload, tree):
    try:
        assert isinstance(deserialize_context(payload, [tree]), SynthesisContext)
    except SerializationError:
        pass


@settings(max_examples=150, deadline=None)
@given(value=json_values, sections=st.dictionaries(st.sampled_from(SECTIONS), json_values))
def test_property_any_json_value_loads_or_is_refused(value, sections):
    """Any JSON value, bare or as the sections of a version-2 payload, yields
    a context or a SerializationError, never another exception."""
    tree = build_tree(DOC)
    _loads_or_is_refused(value, tree)
    _loads_or_is_refused({"kind": "synthesis_context", "version": 2, **sections}, tree)


@pytest.fixture(scope="module")
def valid_payload():
    tree = build_tree(DOC)
    context = _learned_context(tree, [("Ann", "Oslo"), ("Cid", "Oslo")])
    return tree, json.dumps(serialize_context(context))


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), replacement=json_values, delete=st.booleans())
def test_property_mutated_payload_loads_or_is_refused(valid_payload, data, replacement, delete):
    """Replace (or delete) any one entry of a valid payload: the result is a
    context or a SerializationError, never another exception."""
    tree, text = valid_payload
    payload = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(payload))[1:]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    _loads_or_is_refused(payload, tree)


# --------------------------------------------------------------------------- #
# Property: losslessness over random documents and columns
# --------------------------------------------------------------------------- #

scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(["aa", "bb", "cc", "1", ""]),
    st.booleans(),
)


@st.composite
def random_docs(draw):
    return {
        "item": [
            {
                "k": draw(scalars),
                "v": draw(scalars),
            }
            for _ in range(draw(st.integers(1, 3)))
        ]
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=random_docs())
def test_property_round_trip_is_lossless(doc):
    tree = build_tree(doc)
    values = [n.data for n in tree.root.descendants_with_tag("k")]
    synthesizer = Synthesizer(SynthesisConfig.fast())
    task = SynthesisTask(examples=[ExamplePair(tree, [(v,) for v in values])])
    synthesizer.synthesize(task)
    context = synthesizer.context
    clone = build_tree(doc)
    restored = context_loads(context_dumps(context), [clone])
    _assert_contexts_equal(context, restored, tree, clone)
    if context.facts(tree).value_classes() is not None:
        # Rehydrated facts must equal facts recomputed from scratch on the
        # clone (dict equality conflates True/1 exactly like the live table).
        fresh = SynthesisContext().facts(clone)
        fresh.uids_for_value(0)  # force the lazy table
        assert restored.facts(clone).value_classes() == fresh.value_classes()
